import networkx as nx
import pytest
from hypothesis import given, settings

from kronkappa import (
    VERTEX_CAP,
    Graph,
    Graph6Error,
    complete_graph,
    direct_product,
    parse_edge_list,
    parse_graph6,
    random_graph,
    write_edge_list,
    write_graph6,
)

from conftest import graph_strategy


# --- graph6 ---------------------------------------------------------------

def test_known_records_decode():
    assert parse_graph6("A?").vertex_count == 2
    assert parse_graph6("A?").edge_count() == 0
    assert parse_graph6("A_").edge_list() == [(0, 1)]
    # "B_" is the single edge 0-1 on three vertices; the path adds 1-2 ("Bg")
    assert parse_graph6("B_").edge_list() == [(0, 1)]
    assert parse_graph6("Bg").edge_list() == [(0, 1), (1, 2)]
    assert parse_graph6("BW").edge_list() == [(0, 2), (1, 2)]
    assert parse_graph6("Dhc").edge_list() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert parse_graph6("?").vertex_count == 0


def test_known_records_encode():
    assert write_graph6(Graph(3, [(0, 1), (1, 2)])) == "Bg"
    assert write_graph6(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])) == "Dhc"
    assert write_graph6(Graph(0, [])) == "?"
    assert write_graph6(complete_graph(2)) == "A_"


def test_optional_header_and_bytes_input():
    assert parse_graph6(">>graph6<<Bg") == parse_graph6("Bg")
    assert parse_graph6(b"Bg\n") == parse_graph6("Bg")


def test_petersen_record():
    g = parse_graph6("IheA@GUAo")
    assert g.vertex_count == 10
    assert g.edge_count() == 15
    assert all(g.degree(v) == 3 for v in range(10))


@given(graph_strategy(max_vertices=12))
def test_roundtrip(g):
    assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=40)
@given(graph_strategy(max_vertices=10))
def test_encoding_matches_networkx(g):
    mine = write_graph6(g)
    h = nx.empty_graph(g.vertex_count)
    h.add_edges_from(g.edge_list())
    theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert mine == theirs
    back = nx.from_graph6_bytes(mine.encode())
    assert {tuple(sorted(e)) for e in back.edges()} == set(g.edge_list())


def test_long_form_roundtrip_and_networkx():
    g = random_graph(100, 0.1, 42)
    record = write_graph6(g)
    assert record.startswith("~")
    assert parse_graph6(record) == g
    h = nx.empty_graph(100)
    h.add_edges_from(g.edge_list())
    assert record == nx.to_graph6_bytes(h, header=False).decode().strip()


def test_63_vertex_boundary():
    g = Graph(63, [(0, 62)])
    assert parse_graph6(write_graph6(g)) == g


@pytest.mark.parametrize("record,offset", [
    ("", 0),
    ("B" + chr(30), 1),       # byte below 63
    ("B\x7f?", 1),            # byte above 126
    ("B", 1),                 # truncated body
    ("Bg?", 2),               # trailing byte
    ("~~~", 1),               # >3-byte counts unsupported
    ("~??", 3),               # truncated extended count
    ("~??B??", 1),            # extended form for n < 63
    (b"B\xff", 1),            # not ASCII
])
def test_malformed_records_report_offset(record, offset):
    with pytest.raises(Graph6Error) as err:
        parse_graph6(record)
    assert err.value.offset == offset
    assert f"byte offset {offset}" in str(err.value)


def test_over_cap_header_refused_on_its_own():
    # ~?O@ declares 1,025 vertices and no data bytes
    with pytest.raises(ValueError, match="vertex cap"):
        parse_graph6("~?O@")


def test_record_at_the_cap_roundtrips():
    g = direct_product(complete_graph(2), complete_graph(512)).graph
    assert g.vertex_count == VERTEX_CAP
    assert parse_graph6(write_graph6(g)) == g


def test_nonzero_padding_rejected():
    # 2 vertices use 1 bit of the data byte; set a padding bit instead
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6("A" + chr(63 + 1))


# --- edge lists -----------------------------------------------------------

SAMPLE = """\
# a path with a comment and a blank line
p 4

0 1
1 2   # trailing comment
2 3
"""


def test_edge_list_parses_comments_and_blanks():
    g = parse_edge_list(SAMPLE)
    assert g.vertex_count == 4
    assert g.edge_list() == [(0, 1), (1, 2), (2, 3)]


def test_edge_list_write_roundtrip():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    text = write_edge_list(g)
    assert text == "p 4\n0 1\n1 2\n2 3\n"
    assert parse_edge_list(text) == g


@given(graph_strategy(max_vertices=9))
def test_edge_list_roundtrip_property(g):
    assert parse_edge_list(write_edge_list(g)) == g


@pytest.mark.parametrize("text,fragment", [
    ("0 1\n", "line 1"),                      # edge before header
    ("p x\n", "line 1"),                      # non-integer count
    ("p -2\n", "line 1"),                     # negative count
    ("p 3\n0\n", "line 2"),                   # not a pair
    ("p 3\n0 a\n", "line 2"),                 # non-integer endpoint
    ("p 3\n0 1\n1 1\n", "line 3"),            # loop
    ("p 3\n0 1\n0 3\n", "line 3"),            # out of range
    ("# only a comment\n", "header"),         # nothing at all
])
def test_edge_list_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_edge_list(text)

import pytest
from hypothesis import given, settings, strategies as st

from kronkappa import (
    all_labeled_graphs,
    connected_components,
    labeled_graphs,
    odd_cycle_status,
    random_bipartite_graph,
    random_connected_graph,
    random_graph,
)


def test_same_seed_same_graph():
    assert random_graph(8, 0.4, 123) == random_graph(8, 0.4, 123)
    assert random_connected_graph(8, 0.4, 5) == random_connected_graph(8, 0.4, 5)
    # every one of the 32 samples of G(9, 0.01) comes out disconnected here,
    # so this pins the component joining as well
    assert random_connected_graph(9, 0.01, 77) == random_connected_graph(9, 0.01, 77)
    assert random_bipartite_graph(3, 4, 0.5, 9) == random_bipartite_graph(3, 4, 0.5, 9)


def test_probability_extremes():
    assert random_graph(6, 0.0, 0).edge_count() == 0
    assert random_graph(6, 1.0, 0).edge_count() == 15
    assert random_bipartite_graph(2, 3, 1.0, 0).edge_count() == 6


@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_probability_range_checked(bad):
    with pytest.raises(ValueError):
        random_graph(4, bad, 0)
    with pytest.raises(ValueError):
        random_connected_graph(4, bad, 0)
    with pytest.raises(ValueError):
        random_bipartite_graph(2, 2, bad, 0)


def test_vertex_count_checked():
    with pytest.raises(ValueError):
        random_graph(0, 0.5, 0)
    with pytest.raises(ValueError):
        random_bipartite_graph(0, 3, 0.5, 0)


@settings(max_examples=50)
@given(st.integers(1, 10), st.integers(0, 2 ** 32))
def test_random_connected_graph_is_connected(n, seed):
    g = random_connected_graph(n, 0.15, seed)
    assert len(connected_components(g)) == 1
    assert g.edge_count() >= n - 1


def test_random_connected_graph_p_zero():
    assert random_connected_graph(1, 0.0, 0).vertex_count == 1
    with pytest.raises(ValueError, match="connected"):
        random_connected_graph(5, 0.0, 0)


def test_component_joining_kicks_in_for_tiny_p():
    # p small enough that 32 samples of G(9, 0.01) are essentially never
    # connected; joining the last sample's components must still connect it
    g = random_connected_graph(9, 0.01, 77)
    assert len(connected_components(g)) == 1


@settings(max_examples=40)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32))
def test_bipartite_generator_structure(a, b, seed):
    g = random_bipartite_graph(a, b, 0.6, seed)
    assert g.vertex_count == a + b
    left = range(a)
    for u in left:
        for v in left:
            if u < v:
                assert not g.has_edge(u, v)
    for u in range(a, a + b):
        for v in range(a, a + b):
            if u < v:
                assert not g.has_edge(u, v)
    assert odd_cycle_status(g).is_bipartite


@pytest.mark.parametrize("m,count", [(1, 1), (2, 2), (3, 8), (4, 64)])
def test_labeled_graph_counts(m, count):
    graphs = list(labeled_graphs(m))
    assert len(graphs) == count
    assert len(set(graphs)) == count  # all distinct
    assert all(g.vertex_count == m for g in graphs)


def test_all_labeled_graphs_spans_sizes():
    graphs = list(all_labeled_graphs(3))
    assert len(graphs) == 1 + 2 + 8
    assert [g.vertex_count for g in graphs[:3]] == [1, 2, 2]


def test_labeled_graphs_rejects_zero():
    with pytest.raises(ValueError):
        list(labeled_graphs(0))


def test_connected_labeled_graph_counts():
    # classic sequence for connected labelled graphs, sizes 1..5
    for m, expect in [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728)]:
        got = sum(1 for g in labeled_graphs(m)
                  if len(connected_components(g)) == 1)
        assert got == expect

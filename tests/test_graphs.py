import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kronkappa import (
    Graph,
    connected_components,
    delete_vertex,
    induced_subgraph,
    min_degree,
    odd_cycle_status,
    random_graph,
)

from conftest import graph_strategy, ref_components, ref_has_odd_closed_walk


def test_build_rejects_loops():
    with pytest.raises(ValueError, match="loop"):
        Graph(3, [(1, 1)])


def test_build_rejects_out_of_range_endpoints():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(-1, 0)])


def test_build_rejects_negative_vertex_count():
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1
    assert g.edge_list() == [(0, 1)]


def test_empty_graph():
    g = Graph(0, [])
    assert g.vertex_count == 0
    assert connected_components(g) == []
    assert g.edge_list() == []


def test_degrees_and_neighbors():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degree(0) == 3
    assert g.degree(2) == 1
    assert g.neighbors(0) == (1, 2, 3)
    assert g.neighbors(2) == (0,)
    assert min_degree(g) == 1
    with pytest.raises(ValueError):
        g.degree(4)


def test_min_degree_needs_vertices():
    with pytest.raises(ValueError):
        min_degree(Graph(0, []))


def test_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    c = Graph(3, [(0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != "Bg"
    assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
    assert Graph(0) == Graph(0) and hash(Graph(0)) == hash(Graph(0))


def test_from_adjacency_rejects_bad_masks():
    with pytest.raises(ValueError):
        Graph.from_adjacency([0b10, 0b10])  # loop at vertex 1
    with pytest.raises(ValueError):
        Graph.from_adjacency([0b100, 0b000])  # bit beyond vertex range


def test_components_order_and_content():
    g = Graph(6, [(3, 4), (0, 5)])
    assert connected_components(g) == [[0, 5], [1], [2], [3, 4]]


@given(graph_strategy(max_vertices=9))
def test_components_match_union_find(g):
    mine = connected_components(g)
    assert mine == ref_components(g.vertex_count, g.edge_list())
    flat = sorted(v for comp in mine for v in comp)
    assert flat == list(range(g.vertex_count))


def test_components_match_union_find_on_larger_graphs():
    # the test above stops at 9 vertices; these seeded graphs have 9-80, and
    # an average degree of 1.5 leaves several components
    split_past_64 = False
    for seed in range(40):
        n = 9 + seed * 71 // 39
        g = random_graph(n, 1.5 / n, seed)
        comps = connected_components(g)
        assert comps == ref_components(n, g.edge_list())
        split_past_64 |= len(comps) > 1 and any(c[0] < 64 <= c[-1] for c in comps)
    assert split_past_64


@given(graph_strategy(max_vertices=7))
def test_adjacency_matrix_shape(g):
    mat = g.adjacency_matrix()
    assert mat.dtype == np.bool_
    assert (mat == mat.T).all()
    assert not mat.diagonal().any()
    assert int(mat.sum()) == 2 * g.edge_count()


def test_import_leaves_numpy_unloaded():
    # only adjacency_matrix needs numpy, and it imports it when called
    proc = subprocess.run(
        [sys.executable, "-c", "import kronkappa, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_single_vertex_is_bipartite():
    status = odd_cycle_status(Graph(1, []))
    assert status.is_bipartite
    assert status.bipartition == (frozenset({0}), frozenset())
    assert status.odd_cycle is None


def test_triangle_has_odd_cycle():
    status = odd_cycle_status(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not status.is_bipartite
    assert status.bipartition is None
    assert len(status.odd_cycle) == 3


@pytest.mark.parametrize("g,cycle", [
    # a triangle 2-3-4 hung on the path 0-1-2: the walks down from 3 and 4
    # meet at 2, so the cycle is the triangle and avoids the root 0
    (Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)]), [2, 3, 4]),
    # a C4 on 0..3 beside a triangle on 4..6: only the second component is odd
    (Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)]), [4, 5, 6]),
])
def test_odd_cycle_is_the_triangle(g, cycle):
    status = odd_cycle_status(g)
    assert status.bipartition is None
    assert sorted(status.odd_cycle) == cycle


def test_even_cycle_bipartition():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    status = odd_cycle_status(g)
    assert status.bipartition == (frozenset({0, 2, 4}), frozenset({1, 3, 5}))


@given(graph_strategy(max_vertices=8))
def test_odd_cycle_status_vs_walk_oracle(g):
    """Bipartite verdict must agree with the matrix-power odd-walk oracle, and
    whichever witness comes back must actually be what it claims."""
    status = odd_cycle_status(g)
    assert status.is_bipartite == (not ref_has_odd_closed_walk(g))
    if status.is_bipartite:
        left, right = status.bipartition
        assert left | right == frozenset(range(g.vertex_count))
        assert not left & right
        for u, v in g.edges:
            assert (u in left) != (v in left)
    else:
        cycle = status.odd_cycle
        assert len(cycle) % 2 == 1
        assert len(set(cycle)) == len(cycle)
        for i, u in enumerate(cycle):
            assert g.has_edge(u, cycle[(i + 1) % len(cycle)])


def test_delete_vertex_relabels_downward():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h, relabel = delete_vertex(g, 1)
    assert h.vertex_count == 3
    assert relabel == {0: 0, 2: 1, 3: 2}
    assert h.edge_list() == [(1, 2)]


def test_delete_vertex_refuses_tiny_or_missing():
    with pytest.raises(ValueError):
        delete_vertex(Graph(1, []), 0)
    with pytest.raises(ValueError):
        delete_vertex(Graph(3, []), 3)


@given(graph_strategy(min_vertices=2, max_vertices=8), st.data())
def test_delete_vertex_preserves_remaining_adjacency(g, data):
    u = data.draw(st.integers(0, g.vertex_count - 1))
    h, relabel = delete_vertex(g, u)
    assert set(relabel) == set(range(g.vertex_count)) - {u}
    assert sorted(relabel.values()) == list(range(h.vertex_count))
    for a in relabel:
        for b in relabel:
            if a < b:
                assert g.has_edge(a, b) == h.has_edge(relabel[a], relabel[b])


def test_induced_subgraph_sorts_and_relabels():
    g = Graph(5, [(0, 2), (2, 4), (1, 3)])
    h = induced_subgraph(g, [4, 0, 2])
    assert h.vertex_count == 3
    assert h.edge_list() == [(0, 1), (1, 2)]


def test_induced_subgraph_checks_range():
    with pytest.raises(ValueError):
        induced_subgraph(Graph(3, []), [0, 3])


@given(graph_strategy(max_vertices=8), st.data())
def test_induced_subgraph_keeps_exactly_internal_edges(g, data):
    chosen = data.draw(st.lists(
        st.integers(0, max(g.vertex_count - 1, 0)), unique=True)
        if g.vertex_count else st.just([]))
    sub = induced_subgraph(g, chosen)
    ordered = sorted(set(chosen))
    assert sub.vertex_count == len(ordered)
    expect = {(i, j) for i in range(len(ordered)) for j in range(i + 1, len(ordered))
              if g.has_edge(ordered[i], ordered[j])}
    assert set(sub.edge_list()) == expect

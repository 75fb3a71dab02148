from itertools import combinations
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.connectivity import local_node_connectivity

from kronkappa import (
    Graph,
    all_labeled_graphs,
    brute_force_kappa,
    complete_graph,
    direct_product,
    is_separator,
    kappa,
    min_vertex_cut,
    parse_graph6,
    random_connected_graph,
    random_graph,
)
from kronkappa import _kernels
from kronkappa._kernels import _disjoint_paths, kappa_from_matrix

from conftest import graph_strategy, ref_is_separator, ref_kappa, ref_min_vertex_cut

PETERSEN = "IheA@GUAo"


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("g,expected", [
    (Graph(1, []), 0),
    (Graph(2, []), 0),
    (Graph(2, [(0, 1)]), 1),
    (Graph(3, [(0, 1), (1, 2)]), 1),
    (cycle(5), 2),
    (complete_graph(5), 4),
    (Graph(4, [(0, 1), (2, 3)]), 0),
    # delta 5 and flows from v_min = 0 give 5: every minimum cut, such as
    # {0, 5, 6, 7}, holds v_min, so only a pair in its neighbourhood finds 4
    (parse_graph6("G{fzzw"), 4),
])
def test_kappa_known_values(g, expected):
    assert kappa(g) == expected
    assert brute_force_kappa(g) == expected


def test_kappa_petersen():
    assert kappa(parse_graph6(PETERSEN)) == 3


def test_kappa_empty_graph_rejected():
    with pytest.raises(ValueError):
        kappa(Graph(0, []))
    with pytest.raises(ValueError):
        brute_force_kappa(Graph(0, []))


def test_kappa_of_small_products():
    # values frozen from an independent subset-deletion oracle
    p3 = Graph(3, [(0, 1), (1, 2)])
    prod = direct_product(p3, complete_graph(3)).graph
    assert kappa(prod) == 2
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    prod = direct_product(k23, complete_graph(3)).graph
    assert kappa(prod) == 4


def test_brute_force_budget():
    # the work budget is the only bound: K13 may need 8,191 deletion subsets
    assert brute_force_kappa(complete_graph(13)) == 12
    # K7 x K3 has 21 vertices of degree 12: up to 1,695,222 deletion subsets
    product = direct_product(complete_graph(7), complete_graph(3)).graph
    with pytest.raises(ValueError, match="budget"):
        brute_force_kappa(product)


def test_brute_force_past_64_vertices():
    path = Graph(70, [(i, i + 1) for i in range(69)])
    assert brute_force_kappa(path) == 1


@given(graph_strategy(min_vertices=1, max_vertices=6))
def test_flow_matches_subset_reference(g):
    assert kappa(g) == ref_kappa(g)


@given(graph_strategy(min_vertices=1, max_vertices=9))
def test_flow_matches_brute_force(g):
    assert kappa(g) == brute_force_kappa(g)


def _to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.vertex_count))
    out.add_edges_from(g.edges)
    return out


@pytest.mark.parametrize("seed", range(30))
def test_flow_matches_networkx_beyond_brute_force(seed):
    rng = Random(seed)
    g = random_graph(rng.randint(13, 24), rng.choice((0.2, 0.35, 0.5, 0.7)), seed)
    assert kappa(g) == nx.node_connectivity(_to_networkx(g))


@pytest.mark.parametrize("seed", range(18))
def test_product_flow_matches_networkx(seed):
    # dense products make later augmenting paths cancel flow of earlier ones
    rng = Random(seed)
    factor = random_connected_graph(rng.randint(6, 8), rng.choice((0.3, 0.5, 0.7)), seed)
    product = direct_product(factor, complete_graph(3 + seed % 3)).graph
    assert kappa(product) == nx.node_connectivity(_to_networkx(product))


def test_disjoint_paths_match_networkx_on_every_pair():
    """Flows between every non-adjacent pair, so later augmenting paths walk
    back through vertices whose flow earlier ones rerouted. Every cutoff c
    from 1 to n gives min(local connectivity, c): no phase runs past it."""
    graphs = [random_graph(9 + seed % 6, 0.3, seed) for seed in range(12)]
    # a path here must reroute a vertex's outgoing unit and a later one then
    # cancels that new unit; a stale successor made the walk loop forever
    graphs.append(Graph(9, [(0, 3), (0, 4), (0, 7), (0, 8), (1, 3), (1, 4), (1, 6),
                                  (2, 4), (2, 5), (2, 8), (3, 7), (4, 6), (4, 7), (5, 6)]))
    for g in graphs:
        n = g.vertex_count
        rows = [g.adjacency_mask(v) for v in range(n)]
        reference = _to_networkx(g)
        for s, t in combinations(range(n), 2):
            if not g.has_edge(s, t):
                paths = local_node_connectivity(reference, s, t)
                for c in range(1, n + 1):
                    assert _disjoint_paths(rows, s, t, c) == min(paths, c), (g, s, t, c)


@pytest.mark.parametrize("seed", range(24))
def test_kappa_floor_returns_capped_connectivity(seed):
    """With kappa >= floor known, the kernel returns min(kappa, floor + 1)."""
    rng = Random(seed)
    if seed % 3:
        g = random_graph(rng.randint(2, 16), rng.choice((0.2, 0.4, 0.6, 0.8, 1.0)), seed)
    else:
        factor = random_connected_graph(rng.randint(3, 6), rng.choice((0.4, 0.7)), seed)
        g = direct_product(factor, complete_graph(rng.choice((3, 4)))).graph
    rows = [g.adjacency_mask(v) for v in range(g.vertex_count)]
    k = nx.node_connectivity(_to_networkx(g))
    for floor in range(k + 1):
        assert kappa_from_matrix(rows, floor) == min(k, floor + 1), (seed, floor)


def _chain(*vertices):
    return list(zip(vertices, vertices[1:]))


def test_disjoint_paths_reroute_along_a_flow_path():
    """s-p-v-q-t is the unique shortest path, so the first augmentation takes
    it. The second must enter q by s-5-6-7-q and step back along the flow,
    v_out -> v_in -> p_out, to leave p by p-8-9-10-t; that frees v. With the
    chains s-11..15-v and v-16..20-t added, a third path then runs through v."""
    s, t, p, v, q = range(5)
    core = _chain(s, p, v, q, t) + _chain(s, 5, 6, 7, q) + _chain(p, 8, 9, 10, t)
    through_v = _chain(s, *range(11, 16), v) + _chain(v, *range(16, 21), t)
    for edges, n, paths in ((core, 11, 2), (core + through_v, 21, 3)):
        rows = [Graph(n, edges).adjacency_mask(x) for x in range(n)]
        assert _disjoint_paths(rows, s, t, n) == paths


def test_disjoint_paths_phase_passes_a_dead_end(monkeypatch):
    """s-a-c-t, s-a-d-t and s-b-e-t are all shortest, so one levelled search
    serves them. Walking back from t the phase pushes s-a-c-t; then d, the
    lowest candidate left, is entered only from a, which now carries flow, so
    d is a dead end and e gives s-b-e-t. Two paths in one phase, and the
    second search finds t unreachable."""
    s, t, a, b, c, d, e = range(7)
    edges = [(s, a), (s, b), (a, c), (a, d), (b, e), (c, t), (d, t), (e, t)]
    rows = [Graph(7, edges).adjacency_mask(x) for x in range(7)]
    searches = []
    search = _kernels._augmenting_path
    monkeypatch.setattr(_kernels, "_augmenting_path",
                        lambda *args: searches.append(args) or search(*args))
    assert _disjoint_paths(rows, s, t, 7) == 2
    assert len(searches) == 2
    searches.clear()
    assert _disjoint_paths(rows, s, t, 1) == 1
    assert len(searches) == 1


def test_is_separator_cases():
    c6 = cycle(6)
    assert is_separator(c6, [0, 3])
    assert not is_separator(c6, [0])
    assert not is_separator(c6, [])
    assert is_separator(c6, range(5))  # one vertex left
    assert not is_separator(c6, range(6))  # nothing left
    assert is_separator(Graph(2, []), [])
    with pytest.raises(ValueError):
        is_separator(c6, [6])


def test_is_separator_accepts_any_iterable():
    c4 = cycle(4)
    assert is_separator(c4, {0, 2})
    assert is_separator(c4, iter([0, 2]))


@given(graph_strategy(min_vertices=1, max_vertices=7), st.data())
def test_is_separator_matches_reference(g, data):
    subset = data.draw(st.lists(
        st.integers(0, g.vertex_count - 1), unique=True))
    assert is_separator(g, subset) == ref_is_separator(g, subset)


def test_min_cut_four_cycle_prefers_lex_smallest():
    assert min_vertex_cut(cycle(4)).vertices == frozenset({0, 2})


def test_min_cut_path_center():
    cut = min_vertex_cut(Graph(3, [(0, 1), (1, 2)]))
    assert cut.vertices == frozenset({1})
    assert cut.residual_verdict == "disconnected"


def test_min_cut_complete_graph_leaves_last_vertex():
    cut = min_vertex_cut(complete_graph(4))
    assert cut.vertices == frozenset({0, 1, 2})
    assert cut.residual_verdict == "trivial"


def test_min_cut_single_vertex():
    cut = min_vertex_cut(Graph(1, []))
    assert cut.vertices == frozenset()
    assert cut.residual_verdict == "trivial"


def test_min_cut_disconnected_is_empty():
    cut = min_vertex_cut(Graph(4, [(0, 1), (2, 3)]))
    assert cut.vertices == frozenset()
    assert cut.residual_verdict == "disconnected"


def test_min_cut_empty_graph_rejected():
    with pytest.raises(ValueError):
        min_vertex_cut(Graph(0, []))


@settings(max_examples=60)
@given(graph_strategy(min_vertices=1, max_vertices=7))
def test_min_cut_is_valid_minimum_and_lex_first(g):
    from itertools import combinations

    cut = min_vertex_cut(g)
    k = kappa(g)
    assert len(cut.vertices) == k
    n = g.vertex_count
    if k == n - 1:
        # complete-graph convention
        assert cut.vertices == frozenset(range(n - 1))
        return
    assert is_separator(g, cut.vertices)
    # lexicographically first among all minimum separators, per the
    # independent reference separator test
    for candidate in combinations(range(n), k):
        if ref_is_separator(g, candidate):
            assert frozenset(candidate) == cut.vertices
            break


def test_min_cut_matches_subset_walk_exhaustively():
    """Every labelled graph on up to 5 vertices, and every G x K_n with a
    factor on up to 3 vertices and n in {3, 4}, against the subset walk."""
    graphs = list(all_labeled_graphs(5)) + [
        direct_product(factor, complete_graph(n)).graph
        for factor in all_labeled_graphs(3) for n in (3, 4)]
    for g in graphs:
        expected = ref_min_vertex_cut(g)
        cut = min_vertex_cut(g)
        assert cut.vertices == expected, g.edges
        complete = len(expected) == g.vertex_count - 1
        assert cut.residual_verdict == ("trivial" if complete else "disconnected")


def test_min_cut_of_a_100_vertex_product():
    """C20 with chords i ~ i+2 is 4-regular with kappa 4, so its product with
    K5 has 100 vertices and kappa 16: far beyond a walk over 16-subsets."""
    square = Graph(20, [(i, (i + d) % 20) for i in range(20) for d in (1, 2)])
    product = direct_product(square, complete_graph(5)).graph
    cut = min_vertex_cut(product)
    assert len(cut) == kappa(product) == 16
    assert is_separator(product, cut.vertices)
    assert cut.residual_verdict == "disconnected"

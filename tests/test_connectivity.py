from itertools import combinations
from math import comb
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
    connected_components,
    direct_product,
    is_separator,
    kappa,
    min_degree,
    min_vertex_cut,
    parse_graph6,
    random_connected_graph,
    random_graph,
)
from kronkappa import _kernels, connectivity
from kronkappa._kernels import _disjoint_paths, _eh_pairs, kappa_from_matrix

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
    # the work budget is the only bound: it admits K13, which is answered from
    # its degrees without walking a subset
    assert brute_force_kappa(complete_graph(13)) == 12
    # K7 x K3 has 21 vertices of degree 12: up to 1,695,222 deletion subsets
    product = direct_product(complete_graph(7), complete_graph(3)).graph
    with pytest.raises(ValueError, match="budget"):
        brute_force_kappa(product)


def _watch_residual_tests(monkeypatch):
    """Record each residual test of the brute force as (rest, halves)."""
    tests = []
    still_connected = _kernels._still_connected

    def watched(rows, rest, halves=None):
        tests.append((rest, halves))
        return still_connected(rows, rest, halves)

    monkeypatch.setattr(_kernels, "_still_connected", watched)
    return tests


def test_brute_force_past_64_vertices(monkeypatch):
    tests = _watch_residual_tests(monkeypatch)
    path = Graph(70, [(i, i + 1) for i in range(69)])
    assert brute_force_kappa(path) == 1
    # a one-vertex cut walks no subsets, and 35-vertex halves are over the bound
    assert tests and all(halves is None for _, halves in tests)


def _all_levels_brute_force(rows):
    """Reference walk: every k-subset in Gosper order for k = 1, 2, ... until
    one disconnects the graph."""
    n = len(rows)
    full = (1 << n) - 1
    if not _kernels._still_connected(rows, full):
        return 0
    for k in range(1, n - 1):
        subset = (1 << k) - 1
        while subset <= full:
            rest = full & ~subset
            if _kernels._reach(rows, rest & -rest, rest) != rest:
                return k
            low = subset & -subset
            ripple = subset + low
            subset = (((ripple ^ subset) >> 2) // low) | ripple
    return n - 1


def test_one_level_walk_matches_all_levels():
    k3 = complete_graph(3)
    graphs = list(all_labeled_graphs(6))
    products = [direct_product(g, k3).graph for g in all_labeled_graphs(5)]
    assert (len(graphs), len(products)) == (33867, 1099)
    for g in graphs + products:
        assert brute_force_kappa(g) == _all_levels_brute_force(g._adj), g.edge_list()


def test_brute_force_walks_one_level(monkeypatch):
    tests = _watch_residual_tests(monkeypatch)
    product = direct_product(complete_graph(5), complete_graph(3)).graph
    assert brute_force_kappa(product) == 8
    # every residual test, by the tables or by _reach, is one _still_connected
    # call: one for the whole graph, one per vertex of the first 8-vertex cut
    # and one per 7-subset of the 15 vertices; the all-levels reference takes 16,481
    assert len(tests) <= comb(15, 7) + 8 + 1
    # kappa = 8 is proved only by testing the residual of every 7-subset
    assert len({rest for rest, _ in tests if rest.bit_count() == 8}) == comb(15, 7)
    # 16 * C(15, 7) > 2^9, so the 7-level is walked with tables of 2^8 + 2^7 entries
    tables = {id(halves): halves for _, halves in tests if halves is not None}
    assert [(len(lo), len(hi), h) for lo, hi, h, _ in tables.values()] == [(256, 128, 8)]
    monkeypatch.undo()
    calls = 0
    reach = _kernels._reach

    def counted(*args):
        nonlocal calls
        calls += 1
        return reach(*args)

    monkeypatch.setattr(_kernels, "_reach", counted)
    assert _all_levels_brute_force(product._adj) == 8
    assert calls == 16481


def test_table_walk_matches_references(monkeypatch):
    tests = _watch_residual_tests(monkeypatch)
    k4, k5 = complete_graph(4), complete_graph(5)
    products = [direct_product(g, k4).graph for g in all_labeled_graphs(4)]
    assert len(products) == 75
    products += [direct_product(k5, k4).graph, direct_product(k4, k5).graph]
    draws = []  # random graphs on 13-24 vertices within the budget
    seed = 0
    while len(draws) < 30:
        rng = Random(seed)
        g = random_graph(rng.randint(13, 24), rng.choice((0.3, 0.5, 0.7)), seed)
        seed += 1
        try:
            connectivity.require_brute_force_budget(g.vertex_count, min_degree(g))
        except ValueError:
            continue
        draws.append(g)
    tabled = set()
    for g in products + draws:
        tests.clear()
        brute = brute_force_kappa(g)
        assert brute == kappa(g), g.edge_list()
        n = g.vertex_count
        if sum(comb(n, j) for j in range(brute)) <= 50_000:
            assert brute == _all_levels_brute_force(g._adj), g.edge_list()
        for _, halves in tests:
            if halves is not None:
                lo, hi, h, low = halves
                assert (len(lo), len(hi), low) == (1 << h, 1 << n - h, (1 << h) - 1)
                assert h == (n + 1) // 2 <= 16
                tabled.add(n)
    # the tables served odd and even vertex counts, and halves of 9 or more vertices
    assert {n % 2 for n in tabled} == {0, 1} and max(tabled) > 16, tabled


@pytest.mark.parametrize("n", [33, 38])
def test_brute_force_tables_stay_within_their_bound(n, monkeypatch):
    # two cliques joined only through 0..3, and vertex n - 1 joined to five
    # vertices of the second: minimum degree 5, kappa 4. The first cut, N(n - 1),
    # is a minimal separator, so the 4-level of C(n, 4) subsets passes the
    # build rule; from 33 vertices on, h = ceil(n/2) >= 17 would make tables of
    # 2^17 entries or more (2 x 2^19 at 38 vertices), so none are built
    a, b = range(4, n // 2 + 2), range(n // 2 + 2, n - 1)
    edges = [(u, v) for side in (a, b) for u, v in combinations(side, 2)]
    edges += [(u, v) for u in range(4) for v in range(u + 1, n - 1)]
    edges += [(v, n - 1) for v in b[:5]]
    g = Graph(n, edges)
    connectivity.require_brute_force_budget(n, min_degree(g))
    assert min_degree(g) == 5 and 16 * comb(n, 4) > 2 << (n + 1) // 2
    tests = _watch_residual_tests(monkeypatch)
    assert brute_force_kappa(g) == kappa(g) == 4
    assert any(rest.bit_count() == n - 4 for rest, _ in tests)  # the 4-level was walked
    assert all(halves is None for _, halves in tests)


def test_brute_force_runs_no_flow(monkeypatch):
    def refuse(*args):
        raise AssertionError("the brute force ran a flow")

    for module in (_kernels, connectivity):
        monkeypatch.setattr(module, "_disjoint_paths", refuse)
        monkeypatch.setattr(module, "kappa_from_matrix", refuse)
    monkeypatch.setattr(connectivity, "kappa", refuse)
    product = direct_product(complete_graph(5), complete_graph(3)).graph
    graphs = [parse_graph6("G{fzzw"), parse_graph6(PETERSEN), product]
    assert [brute_force_kappa(g) for g in graphs] == [4, 3, 8]


@given(graph_strategy(min_vertices=1, max_vertices=6))
def test_flow_matches_subset_reference(g):
    assert kappa(g) == ref_kappa(g)


@given(graph_strategy(min_vertices=1, max_vertices=9))
def test_flow_matches_brute_force(g):
    assert kappa(g) == brute_force_kappa(g)


def _to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.vertex_count))
    out.add_edges_from(g.edge_list())
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
    """The kernel returns kappa. With kappa >= floor known, flows over the
    pair schedule cut off at floor + 1, with the minimum degree, give
    min(kappa, floor + 1): the decision min-cut membership takes on G' - v."""
    rng = Random(seed)
    if seed % 3:
        g = random_graph(rng.randint(2, 16), rng.choice((0.2, 0.4, 0.6, 0.8, 1.0)), seed)
    else:
        factor = random_connected_graph(rng.randint(3, 6), rng.choice((0.4, 0.7)), seed)
        g = direct_product(factor, complete_graph(rng.choice((3, 4)))).graph
    rows = [g.adjacency_mask(v) for v in range(g.vertex_count)]
    k = nx.node_connectivity(_to_networkx(g))
    assert kappa_from_matrix(rows) == k, seed
    degrees = [row.bit_count() for row in rows]
    v_min = degrees.index(min(degrees))
    for floor in range(k + 1):
        flows = [_disjoint_paths(rows, s, t, floor + 1) for s, t in _eh_pairs(rows, v_min)]
        assert min([min(degrees), floor + 1] + flows) == min(k, floor + 1), (seed, floor)


def _relabelled(rows, seed):
    """``rows`` with their vertices shuffled by a seeded permutation."""
    order = list(range(len(rows)))
    Random(seed).shuffle(order)
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        out[order[v]] = sum(1 << order[w] for w in range(len(rows)) if row >> w & 1)
    return out


@pytest.mark.parametrize("n", range(2, 7))
def test_product_columns_recognise_row_major_products(n):
    """G x K_n in row-major labels is read with its n from n = 3 on; a
    relabelled copy is not read at all."""
    factors = [complete_graph(2), cycle(5), parse_graph6(PETERSEN)]
    factors += [random_connected_graph(6, 0.5, seed) for seed in range(3)]
    for seed, g in enumerate(factors):
        rows = direct_product(g, complete_graph(n)).graph._adj
        assert _kernels._product_columns(rows) == (n if n >= 3 else 0), (g, n)
        assert _kernels._product_columns(_relabelled(rows, seed)) == 0, (g, n)


def test_product_columns_reject_non_products():
    for seed in range(12):
        g = random_connected_graph(6 + 2 * seed, 0.3 + seed % 3 * 0.2, seed)
        assert _kernels._product_columns(g._adj) == 0, g


def _orbit_schedule_agrees(g, n, reference=None):
    """kappa_from_matrix is the same on the product's rows, which get the
    orbit schedule, and on a relabelled copy, which does not."""
    rows = direct_product(g, complete_graph(n)).graph._adj
    shuffled = _relabelled(rows, n)
    assert _kernels._product_columns(rows) == n
    assert _kernels._product_columns(shuffled) == 0
    k = kappa_from_matrix(shuffled)
    assert kappa_from_matrix(rows) == k, (g, n)
    if reference is not None:
        assert k == reference, (g, n)


def test_orbit_schedule_matches_the_full_schedule():
    for g in all_labeled_graphs(4):
        if g.vertex_count > 1 and g.edge_count():
            for n in (3, 4, 5):
                _orbit_schedule_agrees(g, n)
    for seed in range(8):
        rng = Random(seed)
        g = random_connected_graph(rng.randint(6, 9), rng.choice((0.3, 0.5, 0.7)), seed)
        n = 3 + seed % 4
        product = direct_product(g, complete_graph(n)).graph
        _orbit_schedule_agrees(g, n, nx.node_connectivity(_to_networkx(product)))


def _eh_definition(rows, v_min):
    """Esfahanian-Hakimi's pairs around v_min, straight from the definition."""
    around = rows[v_min]
    pairs = {(v_min, t) for t in range(len(rows)) if t != v_min and not around >> t & 1}
    return pairs | {(x, y) for x, y in combinations(range(len(rows)), 2)
                    if around >> x & around >> y & 1 and not rows[x] >> y & 1}


@pytest.mark.parametrize("seed", range(6))
def test_orbit_schedule_runs_one_pair_per_orbit(seed, monkeypatch):
    """Column permutations that fix v_min's column map a pair of G x K_n to
    one with the same layers and the same answer to "same column?". The
    kernel must run one pair of each such class that Esfahanian-Hakimi's
    full schedule holds, and no other: a value check alone cannot show this,
    since on products a smaller schedule often still finds kappa."""
    rng = Random(seed)
    g = random_connected_graph(rng.randint(4, 7), rng.choice((0.4, 0.6)), seed)
    n = 3 + seed % 3
    rows = direct_product(g, complete_graph(n)).graph._adj
    degrees = [row.bit_count() for row in rows]
    v_min = degrees.index(min(degrees))

    def orbit(x, y):
        return frozenset((x // n, y // n)), x % n == y % n

    full = {orbit(x, y) for x, y in _eh_definition(rows, v_min)}
    pairs = []
    paths = _kernels._disjoint_paths
    monkeypatch.setattr(_kernels, "_disjoint_paths",
                        lambda *args: pairs.append(args[1:3]) or paths(*args))
    kappa_from_matrix(rows)
    assert {orbit(x, y) for x, y in pairs} == full
    assert len(pairs) == len(full)


def test_dense_product_runs_one_flow_per_orbit(monkeypatch):
    """K2 x K512 at the vertex cap: two flows from v_min = (0, 0), to (0, 1)
    and (1, 0), and one in its neighbourhood, from (1, 1) to (1, 2). The full
    schedule would run 512 + C(511, 2) = 130,817."""
    product = direct_product(complete_graph(2), complete_graph(512)).graph
    flows = []
    paths = _kernels._disjoint_paths
    monkeypatch.setattr(_kernels, "_disjoint_paths",
                        lambda *args: flows.append(args[1:3]) or paths(*args))
    assert kappa(product) == 511
    assert flows == [(0, 1), (0, 512), (513, 514)]


def _eh_pairs_match_definition(rows):
    degrees = [row.bit_count() for row in rows]
    v_min = degrees.index(min(degrees))
    pairs = list(_eh_pairs(rows, v_min))
    assert len(pairs) == len(set(pairs)), rows
    assert not any(rows[a] >> b & 1 for a, b in pairs), rows
    assert set(pairs) == _eh_definition(rows, v_min), rows


def test_eh_pairs_match_their_definition():
    """Every connected, non-complete labelled graph on up to 6 vertices but
    the four that read as G x K3 in row-major labels (K2 x K3, or a G with
    loops), which get the orbit schedule; and shuffled copies of G x K_n,
    which do not."""
    products = 0
    for g in all_labeled_graphs(6):
        m = g.vertex_count
        if g.edge_count() < m * (m - 1) // 2 and len(connected_components(g)) == 1:
            if _kernels._product_columns(g._adj):
                products += 1
            else:
                _eh_pairs_match_definition(g._adj)
    assert products == 4
    for seed in range(6):
        g = random_connected_graph(4 + seed % 3, 0.5, seed)
        rows = direct_product(g, complete_graph(3 + seed % 3)).graph._adj
        shuffled = _relabelled(rows, seed)
        assert _kernels._product_columns(shuffled) == 0
        _eh_pairs_match_definition(shuffled)


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
        assert cut.vertices == expected, g.edge_list()
        complete = len(expected) == g.vertex_count - 1
        assert cut.residual_verdict == ("trivial" if complete else "disconnected")


def test_min_cut_of_a_100_vertex_product():
    """C20 with chords i ~ i+2 is 4-regular with kappa 4, so its product with
    K5 has 100 vertices and kappa 16: far beyond a walk over 16-subsets."""
    square = Graph(20, [(i, (i + d) % 20) for i in range(20) for d in (1, 2)])
    product = direct_product(square, complete_graph(5)).graph
    cut = min_vertex_cut(product)
    assert len(cut.vertices) == kappa(product) == 16
    assert is_separator(product, cut.vertices)
    assert cut.residual_verdict == "disconnected"


def test_min_cut_of_a_dense_random_graph():
    """G(100, 0.5, 2): a dense graph, where each membership test anchors up to
    c of v's ~50 neighbours."""
    cut = min_vertex_cut(random_graph(100, 0.5, 2))
    assert sorted(cut.vertices) == [
        5, 6, 7, 10, 11, 13, 16, 20, 29, 31, 36, 37, 38, 39, 40, 45, 46, 54, 55, 58, 59, 62, 63,
        64, 68, 69, 71, 74, 76, 80, 81, 82, 84, 88, 89, 91, 92, 94, 97]
    assert cut.residual_verdict == "disconnected"


def wheel(k, hub_last=False):
    """W_k: a hub joined to every vertex of C_k, the hub labelled 0 or k."""
    hub, rim = (k, range(k)) if hub_last else (0, range(1, k + 1))
    rim = list(rim)
    return Graph(k + 1, [(hub, r) for r in rim] + list(zip(rim, rim[1:] + rim[:1])))


def _count_branches(monkeypatch):
    """Count the connectivity searches and the local flows that min-cut
    membership runs, through the names ``connectivity`` calls them by."""
    counts = {"kappa_from_matrix": 0, "_disjoint_paths": 0}
    for name in counts:
        real = getattr(connectivity, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(connectivity, name, counted)
    return counts


def test_local_min_cut_test_matches_connectivity_search(monkeypatch):
    """v lies in a minimum cut of G, with kappa(G) = c, exactly when
    kappa(G - v) = c - 1. Every vertex of every labelled graph on up to 6
    vertices with 1 <= kappa <= V - 2, of seeded G(m, p) x K_n, of wheels
    with the hub first or last and of the dense K4 x K4 and K5 x K5; the local
    test runs flows and never computes kappa(G - v)."""
    rng = Random(19)
    graphs = list(all_labeled_graphs(6))
    graphs += [direct_product(random_connected_graph(rng.randint(3, 10), rng.choice((0.3, 0.5)),
                                                     seed), complete_graph(3 + seed % 3)).graph
               for seed in range(12)]
    graphs += [wheel(k, hub_last) for k in (4, 6, 9, 30) for hub_last in (False, True)]
    graphs += [direct_product(complete_graph(m), complete_graph(m)).graph for m in (4, 5)]
    cases = [(g._adj, c) for g in graphs for c in [kappa(g)] if 1 <= c <= g.vertex_count - 2]
    counts = _count_branches(monkeypatch)
    for rows, c in cases:
        for v in range(len(rows)):
            rest = _kernels._drop(rows, v)
            expected = kappa_from_matrix(rest) == c - 1
            assert connectivity._in_min_cut(rest, rows[v], v, c) == expected, (rows, v)
    assert counts["_disjoint_paths"] > 0
    assert counts["kappa_from_matrix"] == 0


def test_min_cut_matches_subset_walk_around_hubs(monkeypatch):
    """Inputs whose vertices have more neighbours than anchors: wheels with
    the hub first and last, K_{2,5}, K3 x K4, every factor on up to 4 vertices times K3, C4 x K4, and K_{2,4} with a
    perfect matching added on its side of 4."""
    graphs = [wheel(k, hub_last) for k in range(4, 10) for hub_last in (False, True)]
    graphs.append(Graph(7, [(a, b) for a in range(2) for b in range(2, 7)]))
    graphs.append(direct_product(complete_graph(3), complete_graph(4)).graph)
    graphs += [direct_product(factor, complete_graph(3)).graph
               for factor in all_labeled_graphs(4)]
    graphs.append(direct_product(cycle(4), complete_graph(4)).graph)
    graphs.append(Graph(6, [(a, b) for a in range(2) for b in range(2, 6)] + [(2, 5), (3, 4)]))
    counts = _count_branches(monkeypatch)
    for g in graphs:
        assert min_vertex_cut(g).vertices == ref_min_vertex_cut(g), g.edge_list()
    assert counts["kappa_from_matrix"] == len(graphs)  # kappa(g) itself


def test_min_cut_of_a_cycle_product_runs_local_flows_only(monkeypatch):
    """C12 x K3 (kappa 4): the one connectivity search is kappa(product), and
    the cut's membership tests, anchored at v's first c neighbours only, run
    12 flows."""
    product = direct_product(cycle(12), complete_graph(3)).graph
    counts = _count_branches(monkeypatch)
    assert min_vertex_cut(product).vertices == {0, 1, 6, 7}
    assert counts == {"kappa_from_matrix": 1, "_disjoint_paths": 12}


def test_min_cut_of_a_wheel_product_with_the_hub_first(monkeypatch):
    """W30 x K3 with the hub labelled 0 (kappa 6): the hub's copies have 60
    neighbours each, yet the membership tests stay local to v, running 238
    flows and no connectivity search past kappa(product)."""
    product = direct_product(wheel(30), complete_graph(3)).graph
    counts = _count_branches(monkeypatch)
    assert min_vertex_cut(product).vertices == {0, 1, 3, 4, 9, 10}
    assert counts == {"kappa_from_matrix": 1, "_disjoint_paths": 238}

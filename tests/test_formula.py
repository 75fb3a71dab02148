from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from kronkappa import (
    VERTEX_CAP,
    FormulaInapplicable,
    Graph,
    brute_force_kappa,
    build_quotient,
    check_complete_product,
    check_layer_in_component,
    check_quotient_connected,
    complete_graph,
    connected_components,
    direct_product,
    formula_kappa_product,
    is_separator,
    kappa,
    kappa_product_fast,
    min_degree,
    min_vertex_cut,
    sample_separator,
    witness_cut,
)
from kronkappa import formula
from kronkappa.checks import CHECKS, InstanceFacts

from conftest import connected_graph_strategy


def p3():
    return Graph(3, [(0, 1), (1, 2)])


def two_k4s_sharing_an_edge():
    # K4 on {0,1,2,3} and K4 on {2,3,4,5}: kappa 2 (cut {2,3}), delta 3
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a, b) for a in (2, 3, 4, 5) for b in (2, 3, 4, 5) if a < b]
    return Graph(6, edges)


@pytest.mark.parametrize("kappa_g,delta_g,n,value,branch", [
    (1, 1, 3, 2, "neighborhood"),   # (n-1)*delta = 2 < 3 = n*kappa
    (1, 2, 3, 3, "copy"),           # n*kappa = 3 < 4
    (2, 2, 3, 4, "neighborhood"),
    (2, 3, 3, 6, "tie"),            # 3*2 == 2*3
    (0, 0, 5, 0, "tie"),
    (0, 4, 4, 0, "copy"),
])
def test_formula_values_and_branches(kappa_g, delta_g, n, value, branch):
    result = formula_kappa_product(kappa_g, delta_g, n)
    assert result.value == value
    assert result.binding_branch == branch
    assert (result.kappa_g, result.delta_g, result.n) == (kappa_g, delta_g, n)


@pytest.mark.parametrize("n", [2, 1, 0, -3])
def test_formula_refuses_small_n(n):
    with pytest.raises(FormulaInapplicable):
        formula_kappa_product(1, 1, n)
    with pytest.raises(FormulaInapplicable):
        kappa_product_fast(p3(), n)


def test_formula_refuses_negative_parameters():
    with pytest.raises(ValueError):
        formula_kappa_product(-1, 2, 3)


def test_formula_inapplicable_is_value_error():
    # callers that only catch ValueError still see the rejection
    assert issubclass(FormulaInapplicable, ValueError)


def test_kappa_product_fast_known_values():
    assert kappa_product_fast(p3(), 3) == 2
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert kappa_product_fast(c4, 3) == 4
    assert kappa_product_fast(complete_graph(1), 3) == 0


@settings(max_examples=60)
@given(connected_graph_strategy(max_vertices=6), st.integers(3, 5))
def test_fast_value_matches_measured_product(g, n):
    prod = direct_product(g, complete_graph(n)).graph
    assert kappa_product_fast(g, n) == kappa(prod)


def test_witness_neighborhood_branch():
    w = witness_cut(p3(), 3)
    # minimum-degree vertex 0; neighbours of (0, 0) are (1, 1) and (1, 2)
    assert w.vertices == frozenset({4, 5})
    assert w.branch == "neighborhood"
    assert w.residual_verdict == "disconnected"


def test_witness_copy_branch():
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert kappa(bowtie) == 1 and min_degree(bowtie) == 2
    w = witness_cut(bowtie, 3)
    assert w.branch == "copy"
    assert w.vertices == frozenset({6, 7, 8})  # cut vertex 2, all three columns


def test_witness_tie_prefers_neighborhood():
    g = two_k4s_sharing_an_edge()
    assert brute_force_kappa(g) == 2 and min_degree(g) == 3
    assert formula_kappa_product(2, 3, 3).binding_branch == "tie"
    w = witness_cut(g, 3)
    assert w.branch == "neighborhood"
    assert len(w.vertices) == 6


def test_witness_rejects_bad_factors():
    with pytest.raises(ValueError, match="connected"):
        witness_cut(Graph(4, [(0, 1), (2, 3)]), 3)
    with pytest.raises(ValueError):
        witness_cut(Graph(1, []), 3)
    with pytest.raises(FormulaInapplicable):
        witness_cut(p3(), 2)


@settings(max_examples=60)
@given(connected_graph_strategy(max_vertices=6), st.integers(3, 5))
def test_witness_separates_with_formula_size(g, n):
    w = witness_cut(g, n)
    prod = direct_product(g, complete_graph(n)).graph
    assert len(w.vertices) == kappa_product_fast(g, n)
    assert is_separator(prod, w.vertices)
    assert w.branch in ("copy", "neighborhood")


def test_quotient_without_deletions_mirrors_factor():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    q = build_quotient(c4, 3, [])
    assert q.graph.edge_list() == c4.edge_list()
    assert q.remainders[1] == frozenset({3, 4, 5})
    assert q.removed == frozenset()


def test_quotient_drops_edge_for_single_column_remainders():
    g = two_k4s_sharing_an_edge()
    # bound = min(3*2, 2*3) = 6; S shaves layers 0 and 1 down to column 0
    s = {0 * 3 + 1, 0 * 3 + 2, 1 * 3 + 1, 1 * 3 + 2}
    q = build_quotient(g, 3, s)
    assert q.remainders[0] == frozenset({0})
    assert q.remainders[1] == frozenset({3})
    assert not q.graph.has_edge(0, 1)  # both remainders stuck in column 0
    assert q.graph.has_edge(0, 2)
    assert len(connected_components(q.graph)) == 1


def test_quotient_validation_errors():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError, match="below"):
        build_quotient(c4, 3, [0, 1, 3, 4])  # size 4 = bound
    with pytest.raises(ValueError, match="empties layer 0"):
        build_quotient(c4, 3, [0, 1, 2])
    with pytest.raises(ValueError, match="out of range"):
        build_quotient(c4, 3, [12])
    with pytest.raises(ValueError, match="kappa"):
        build_quotient(Graph(2, []), 3, [])
    with pytest.raises(FormulaInapplicable):
        build_quotient(c4, 2, [])


def test_quotient_and_sampling_refuse_an_over_cap_product(monkeypatch):
    # checked before any layer is built: C4 x K_n would need 1,028 vertices
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    n = VERTEX_CAP // 4 + 1
    with pytest.raises(ValueError, match="vertex cap"):
        build_quotient(c4, n, [])
    with pytest.raises(ValueError, match="vertex cap"):
        sample_separator(c4, n, Random(0))
    # and before kappa(G): a 400-vertex factor times K3 needs 1,200 vertices
    def no_kappa(g):
        raise AssertionError("kappa(G) computed before the cap check")
    monkeypatch.setattr(formula, "kappa", no_kappa)
    big = Graph(400, [(v, v + 1) for v in range(399)])
    with pytest.raises(ValueError, match="vertex cap"):
        build_quotient(big, 3, [])
    with pytest.raises(ValueError, match="vertex cap"):
        sample_separator(big, 3, Random(0))


def test_quotient_bound_uses_factor_kappa():
    # two triangles joined by an edge: kappa 1 < delta 2, so with n = 3 the
    # bound is min(3*1, 2*2) = 3, not 4
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    for check in (check_quotient_connected, check_layer_in_component):
        with pytest.raises(ValueError, match="below"):
            check(g, 3, [0, 3, 6])
    with pytest.raises(ValueError, match="below"):
        build_quotient(g, 3, [0, 3, 6], kappa_g=1)
    assert sample_separator(g, 3, Random(5), kappa_g=1) == sample_separator(g, 3, Random(5))


def test_quotient_reports_pass_on_valid_sample():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    r1 = check_quotient_connected(c4, 3, [0, 5, 7])
    assert r1.passed
    assert r1.inputs["S"] == [0, 5, 7]
    assert r1.computed["quotient_components"] == 1
    r2 = check_layer_in_component(c4, 3, [0, 5, 7])
    assert r2.passed
    assert r2.computed["all_in_one_component"] is True


def test_layer_in_component_fails_when_a_layer_is_split():
    # with the product replaced by G x H for an edgeless H there are no edges
    # at all, so even with S empty every layer remainder falls apart into
    # single vertices
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    facts = InstanceFacts(c4, 3)
    facts.product = direct_product(c4, Graph(3, [])).graph
    computed, ok = CHECKS["layer_in_component"](facts, [])
    assert computed == {"layers": 4, "all_in_one_component": False}
    assert not ok


@settings(max_examples=40)
@given(connected_graph_strategy(max_vertices=6), st.integers(3, 4),
       st.integers(0, 2 ** 32 - 1))
def test_sampled_separators_keep_quotient_connected(g, n, seed):
    rng = Random(seed)
    s = sample_separator(g, n, rng)
    bound = min(n * kappa(g), (n - 1) * min_degree(g))
    assert len(s) < bound
    for i in range(g.vertex_count):
        assert not s >= frozenset(range(i * n, (i + 1) * n))
    assert check_quotient_connected(g, n, s).passed
    assert check_layer_in_component(g, n, s).passed


def test_sample_separator_deterministic():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    a = sample_separator(g, 3, Random(99))
    b = sample_separator(g, 3, Random(99))
    assert a == b


def test_sample_separator_rejects_disconnected():
    with pytest.raises(ValueError):
        sample_separator(Graph(3, [(0, 1)]), 3, Random(0))


def test_complete_product_reports():
    report = check_complete_product(3, 4)
    assert report.passed
    assert report.computed["kappa_product"] == 6
    assert report.inputs == {"m": 3, "n": 4}
    with pytest.raises(ValueError):
        check_complete_product(4, 3)
    with pytest.raises(FormulaInapplicable):
        check_complete_product(2, 2)


def test_disconnected_factor_formula_gives_zero_and_matches():
    g = Graph(4, [(0, 1), (2, 3)])
    assert kappa_product_fast(g, 3) == 0
    prod = direct_product(g, complete_graph(3)).graph
    assert kappa(prod) == 0


def test_isolated_vertex_factor_delta_zero():
    g = Graph(3, [(0, 1)])
    result = formula_kappa_product(kappa(g), min_degree(g), 4)
    assert result.value == 0
    assert kappa_product_fast(g, 4) == 0


def test_witness_on_complete_factor():
    w = witness_cut(complete_graph(3), 3)
    assert w.branch == "neighborhood"
    assert len(w.vertices) == 4
    prod = direct_product(complete_graph(3), complete_graph(3)).graph
    assert is_separator(prod, w.vertices)


def test_min_cut_feeds_copy_branch():
    # copy witness above the factor's lexicographically-first minimum cut
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert min_vertex_cut(bowtie).vertices == frozenset({2})

import numpy as np
import pytest
from hypothesis import given, settings

from kronkappa import (
    Graph,
    complete_graph,
    connected_components,
    direct_product,
    lemma_checks,
    min_degree,
    odd_cycle_status,
    random_bipartite_graph,
    random_graph,
)
from kronkappa.checks import CHECKS, InstanceFacts

from conftest import graph_strategy, ref_product_edges


def test_complete_graph_structure():
    k1 = complete_graph(1)
    assert k1.vertex_count == 1 and k1.edge_count() == 0
    k4 = complete_graph(4)
    assert all(k4.degree(v) == 3 for v in range(4))
    with pytest.raises(ValueError):
        complete_graph(0)


def test_k2_times_k3_is_hexagon():
    # frozen from the definitional product oracle: a single 6-cycle
    prod = direct_product(complete_graph(2), complete_graph(3))
    assert prod.graph.vertex_count == 6
    assert prod.graph.edge_list() == [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)]
    assert all(prod.graph.degree(v) == 2 for v in range(6))
    assert len(connected_components(prod.graph)) == 1


def test_product_needs_nonempty_factors():
    with pytest.raises(ValueError):
        direct_product(Graph(0, []), complete_graph(2))


@settings(max_examples=60)
@given(graph_strategy(max_vertices=5), graph_strategy(max_vertices=5))
def test_product_edges_match_definition(g, h):
    prod = direct_product(g, h)
    assert set(prod.graph.edge_list()) == ref_product_edges(g, h)


@settings(max_examples=60)
@given(graph_strategy(max_vertices=5), graph_strategy(max_vertices=5))
def test_product_adjacency_is_kron(g, h):
    """Row-major labelling makes the product's adjacency matrix exactly the
    Kronecker product of the factor matrices."""
    got = direct_product(g, h).graph.adjacency_matrix()
    want = np.kron(g.adjacency_matrix(), h.adjacency_matrix())
    assert (got == want).all()


def _with_isolated_vertex(g):
    return Graph(g.vertex_count + 1, g.edge_list())


@pytest.mark.parametrize("g, h", [
    (complete_graph(13), complete_graph(5)),
    (_with_isolated_vertex(random_graph(13, 0.4, seed=3)), complete_graph(5)),
    (random_graph(9, 0.5, seed=4), _with_isolated_vertex(random_graph(10, 0.4, seed=5))),
    (_with_isolated_vertex(random_graph(15, 0.3, seed=6)),
     _with_isolated_vertex(random_graph(9, 0.5, seed=7))),
])
def test_product_beyond_64_vertices_is_kron(g, h):
    """Product rows wider than one machine word still match the definition."""
    prod = direct_product(g, h).graph
    assert 65 <= prod.vertex_count <= 160
    want = np.kron(g.adjacency_matrix(), h.adjacency_matrix())
    assert (prod.adjacency_matrix() == want).all()
    assert set(prod.edge_list()) == ref_product_edges(g, h)


@settings(max_examples=60)
@given(graph_strategy(max_vertices=5), graph_strategy(max_vertices=5))
def test_product_commutes_up_to_coordinate_swap(g, h):
    gh = direct_product(g, h)
    hg = direct_product(h, g)
    hn, gn = h.vertex_count, g.vertex_count
    for a in range(gn * hn):
        i, j = divmod(a, hn)
        for b in range(a + 1, gn * hn):
            k, l = divmod(b, hn)
            assert gh.graph.has_edge(a, b) == hg.graph.has_edge(j * gn + i, l * gn + k)


@given(graph_strategy(max_vertices=5), graph_strategy(max_vertices=5))
def test_product_degrees_multiply(g, h):
    prod = direct_product(g, h)
    for a in range(prod.graph.vertex_count):
        i, j = divmod(a, h.vertex_count)
        assert prod.graph.degree(a) == g.degree(i) * h.degree(j)


def lemma_report(g, n, name):
    return next(r for r in lemma_checks(g, n, separator_samples=0) if r.check_name == name)


def test_weichsel_connected_product():
    p3 = Graph(3, [(0, 1), (1, 2)])
    report = lemma_report(p3, 3, "weichsel_iff")
    assert report.passed
    assert report.computed["product_connected"] is True
    assert report.computed["odd_cycle_in_some_factor"] is True


def test_weichsel_bipartite_pair_disconnects():
    # K_2 is bipartite too, so a bipartite G times K_2 falls apart
    b = random_bipartite_graph(2, 3, 1.0, 0)
    report = lemma_report(b, 2, "weichsel_iff")
    assert report.passed
    assert report.computed["predicted_connected"] is False
    assert report.computed["product_connected"] is False


def test_weichsel_needs_nontrivial_factors():
    with pytest.raises(ValueError, match="nontrivial"):
        CHECKS["weichsel_iff"](InstanceFacts(Graph(1, []), 3))


@settings(max_examples=50)
@given(graph_strategy(min_vertices=2, max_vertices=5),
       graph_strategy(min_vertices=2, max_vertices=5))
def test_weichsel_never_fails(g, h):
    # the criterion is a theorem: it holds on every pair of nontrivial factors,
    # and the check agrees with it on G x K_2 and G x K_3
    connected = [len(connected_components(x)) == 1 for x in (g, h)]
    odd_cycle = [not odd_cycle_status(x).is_bipartite for x in (g, h)]
    predicted = all(connected) and any(odd_cycle)
    assert (len(connected_components(direct_product(g, h).graph)) == 1) == predicted
    assert all(lemma_report(g, n, "weichsel_iff").passed for n in (2, 3))


def test_degree_product_report():
    p3 = Graph(3, [(0, 1), (1, 2)])
    report = lemma_report(p3, 3, "degree_product")
    assert report.passed
    assert report.computed == {
        "delta_product": 2, "delta_g": 1, "delta_h": 2, "agree": True}
    assert report.check_name == "degree_product"
    assert set(report.inputs) == {"graph6", "n"}


@given(graph_strategy(max_vertices=5), graph_strategy(max_vertices=5))
def test_degree_product_identity(g, h):
    assert min_degree(direct_product(g, h).graph) == min_degree(g) * min_degree(h)

"""Shared strategies and small independent reference implementations.

The reference functions deliberately use different algorithms from the package
(union-find instead of BFS, matrix powers instead of two-colouring, subset
deletion instead of flows) so tests compare two routes, not one route twice.
"""

from itertools import combinations

import numpy as np
from hypothesis import strategies as st

import kronkappa as kk
from kronkappa import Graph


@st.composite
def graph_strategy(draw, min_vertices=1, max_vertices=8):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph(n, [])
    picked = draw(st.lists(st.sampled_from(pairs), unique=True))
    return Graph(n, picked)


def connected_graph_strategy(min_vertices=2, max_vertices=7):
    return graph_strategy(min_vertices, max_vertices).filter(
        lambda g: len(kk.connected_components(g)) == 1)


def ref_components(n, edges):
    """Union-find components, same output convention as the package."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def ref_is_separator(g, removed):
    removed = set(removed)
    kept = [v for v in range(g.vertex_count) if v not in removed]
    if not kept:
        return False
    if len(kept) == 1:
        return True
    index = {v: i for i, v in enumerate(kept)}
    edges = [(index[u], index[v]) for u, v in g.edge_list()
             if u not in removed and v not in removed]
    return len(ref_components(len(kept), edges)) != 1


def ref_min_vertex_cut(g):
    """First separator in a walk over subsets by size, each size in
    lexicographic order; only for tiny graphs. On a complete graph that is
    all vertices but the last, which leaves one vertex."""
    n = g.vertex_count
    for k in range(n):
        for removed in combinations(range(n), k):
            if ref_is_separator(g, removed):
                return frozenset(removed)
    raise ValueError("no separator in the empty graph")


def ref_kappa(g):
    """Subset-deletion connectivity; only for tiny graphs."""
    return len(ref_min_vertex_cut(g))


def ref_product_edges(g, h):
    """Definitional direct-product edge set: scan all vertex pairs."""
    hn = h.vertex_count
    out = set()
    for u1 in range(g.vertex_count):
        for v1 in range(hn):
            for u2 in range(g.vertex_count):
                for v2 in range(hn):
                    if g.has_edge(u1, u2) and h.has_edge(v1, v2):
                        a, b = u1 * hn + v1, u2 * hn + v2
                        out.add((min(a, b), max(a, b)))
    return out


def ref_has_odd_closed_walk(g):
    """diag(A^L) > 0 for some odd L <= n; equivalent to containing an odd cycle."""
    n = g.vertex_count
    if n == 0:
        return False
    a = g.adjacency_matrix().astype(np.int64)
    power = np.eye(n, dtype=np.int64)
    for length in range(1, n + 1):
        power = np.minimum(power @ a, 1)
        if length % 2 == 1 and power.diagonal().any():
            return True
    return False

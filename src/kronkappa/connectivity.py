"""Exact vertex connectivity, minimum separators, and the brute-force oracle."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from ._kernels import _drop, _still_connected, brute_force_kappa_bits, kappa_from_matrix
from .graphs import Graph, min_degree

#: most deletion subsets the oracle may have to try, bounded before it starts
BRUTE_FORCE_BUDGET = 1_000_000


@dataclass(frozen=True)
class CutWitness:
    """A vertex cut together with what its removal does to the graph.

    residual_verdict is "disconnected" (>= 2 components remain) or "trivial"
    (a single vertex remains). branch is only set for product witness cuts.
    """

    vertices: frozenset[int]
    residual_verdict: str
    branch: str | None = None

    def __len__(self) -> int:
        return len(self.vertices)


def kappa(g: Graph) -> int:
    """Vertex connectivity. 0 for disconnected graphs and for K1, n-1 for Kn."""
    if g.vertex_count == 0:
        raise ValueError("connectivity undefined for the empty graph")
    return kappa_from_matrix(g._adj)


def is_separator(g: Graph, vertices) -> bool:
    """True iff removing ``vertices`` leaves a disconnected or single-vertex graph.

    Removing all vertices, or starting from a disconnected graph and removing
    nothing, follows the same rule: the residual must be disconnected or a
    lone vertex, so the empty residual returns False.
    """
    n = g.vertex_count
    removed = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for vertex count {n}")
        removed |= 1 << v
    rest = ((1 << n) - 1) & ~removed
    return rest != 0 and not _still_connected(g._adj, rest)


def min_vertex_cut(g: Graph) -> CutWitness:
    """A minimum vertex cut, lexicographically smallest among minimum cuts.

    For complete graphs (where no removal disconnects) the convention is all
    vertices but the last, leaving a single vertex.
    """
    n = g.vertex_count
    k = kappa(g)
    if k == n - 1:
        # kappa == n-1 happens exactly for complete graphs (K1 included)
        return CutWitness(frozenset(range(n - 1)), "trivial")
    chosen = _lex_min_cut(g, k)
    if not is_separator(g, chosen):
        raise AssertionError("chosen vertices do not separate the graph; kappa is wrong")
    # k < n - 1 leaves two or more vertices
    return CutWitness(frozenset(chosen), "disconnected")


def _lex_min_cut(g: Graph, k: int) -> list[int]:
    """The lexicographically smallest minimum cut of a non-complete G whose
    connectivity the caller knows to be k.

    The cut grows from a prefix P that lies in some minimum cut, so
    kappa(G - P) = k - |P|. Vertices are tried in increasing order, and v
    joins P exactly when kappa(G - P - v) = k - |P| - 1, which is when some
    minimum cut holds P and v. A vertex turned down there is in no minimum
    cut through a later prefix either, so the result is the lexicographically
    smallest. That is at most n connectivity tests, and each only has to tell
    k - |P| - 1 from anything larger.
    """
    rows = g._adj  # G - P, relabelled in order
    chosen = []
    for v in range(g.vertex_count):
        if len(chosen) == k:
            break
        rest = _drop(rows, v - len(chosen))  # every vertex of P is below v
        target = k - len(chosen) - 1
        if kappa_from_matrix(rest, floor=target) == target:
            chosen.append(v)
            rows = rest
    return chosen


def brute_force_kappa(g: Graph) -> int:
    """Connectivity by enumerating deletion subsets in increasing size.

    Independent of the flow routine; meant as a cross-check oracle, hence the
    work budget. kappa never exceeds the minimum degree, so at most
    sum(C(n, j) for j <= delta) subsets are tried; a graph whose bound is
    above ``BRUTE_FORCE_BUDGET`` is refused before enumeration starts.
    """
    if g.vertex_count == 0:
        raise ValueError("connectivity undefined for the empty graph")
    require_brute_force_budget(g.vertex_count, min_degree(g))
    return brute_force_kappa_bits(g._adj)


def require_brute_force_budget(vertex_count: int, delta: int) -> None:
    """ValueError when sum(C(vertex_count, j) for j <= delta), the subsets the
    oracle may try, is above ``BRUTE_FORCE_BUDGET``."""
    subsets = sum(comb(vertex_count, j) for j in range(delta + 1))
    if subsets > BRUTE_FORCE_BUDGET:
        raise ValueError(f"brute force on {vertex_count} vertices of minimum degree {delta} "
                         f"may try {subsets} deletion subsets, above the oracle budget "
                         f"{BRUTE_FORCE_BUDGET}")

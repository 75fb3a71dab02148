"""Exact vertex connectivity, minimum separators, and the brute-force oracle."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from ._kernels import (_disjoint_paths, _drop, _still_connected, brute_force_kappa_bits,
                       kappa_from_matrix)
from .graphs import Graph, bit_indices, min_degree

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
        g._check_vertex(v)
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

    The cut grows from a prefix P that lies in some minimum cut, so G' = G - P
    is not complete and has connectivity c = k - |P|. Vertices are tried in
    increasing order, and v joins P exactly when some minimum cut of G' holds
    it, so a vertex turned down is in no minimum cut through a later prefix
    either. That holds exactly when two non-adjacent neighbours a, b of v are
    joined by fewer than c disjoint paths in G' - v: a minimum cut S through v
    is a minimal separator, so v has neighbours in two components of G' - S,
    which S - v separates; and Menger's cut of at most c - 1 vertices between
    a and b in G' - v, plus v, cuts G'. S - v holds at most c - 1 neighbours of
    v, so only v's first c neighbours anchor a pair, each with the later ones
    it is not adjacent to. A neighbour of v with degree c - 1 in G' - v
    settles it at once, and only a neighbour can have that degree: any other
    vertex keeps its degree in G', at least c.
    """
    rows = g._adj  # G - P, relabelled in order
    chosen = []
    for v in range(g.vertex_count):
        if len(chosen) == k:
            break
        u = v - len(chosen)  # v's label in G - P: every vertex of P is below v
        rest = _drop(rows, u)
        if _in_min_cut(rest, rows[u], u, k - len(chosen)):
            chosen.append(v)
            rows = rest
    return chosen


def _in_min_cut(rest, row, v, c):
    """Whether v, whose row is ``row``, lies in a minimum cut of a G' with
    kappa(G') = c, given G' - v as ``rest`` (see ``_lex_min_cut``)."""
    below = (1 << v) - 1
    neighbours = bit_indices(row & below | row >> 1 & ~below)  # in rest's labels
    if any(rest[x].bit_count() < c for x in neighbours):
        return True  # that neighbour has degree c in G'; its neighbours, v among them, cut G'
    # each of v's first c neighbours with the later ones it is not adjacent to
    return any(_disjoint_paths(rest, a, b, c) < c for i, a in enumerate(neighbours[:c])
               for b in neighbours[i + 1:] if not rest[a] >> b & 1)


def brute_force_kappa(g: Graph) -> int:
    """Connectivity by walking deletion subsets one level below each cut.

    Separating sets exist at every size from kappa to n - 2, so a cut is
    minimum once no subset one smaller separates. No flow is used; a graph
    with sum(C(n, j) for j <= delta) over ``BRUTE_FORCE_BUDGET`` is refused up
    front. From the first level of over 2^(h+1)/16 subsets, h = ceil(n/2) <= 16,
    residuals are tested by two half-width lookup tables of at most 2^16 entries.
    """
    if g.vertex_count == 0:
        raise ValueError("connectivity undefined for the empty graph")
    require_brute_force_budget(g.vertex_count, min_degree(g))
    return brute_force_kappa_bits(g._adj)


def require_brute_force_budget(vertex_count: int, delta: int) -> None:
    """ValueError once sum(C(vertex_count, j) for j <= delta), the subsets the
    oracle may try, passes ``BRUTE_FORCE_BUDGET``; summing stops there."""
    subsets = 0
    for j in range(delta + 1):
        subsets += comb(vertex_count, j)
        if subsets > BRUTE_FORCE_BUDGET:
            raise ValueError(f"brute force on {vertex_count} vertices of minimum degree {delta} "
                             f"may try over {BRUTE_FORCE_BUDGET} deletion subsets, its budget")

"""The closed form for kappa(G x K_n) and the machinery around it.

For n >= 3 and connected G,

    kappa(G x K_n) = min(n * kappa(G), (n - 1) * delta(G)),

and each side of the minimum comes with an explicit separator: a minimum cut
of G blown up through every layer, or the open neighbourhood of a product
vertex sitting over a minimum-degree vertex of G. n = 2 is excluded because
K_2 products of bipartite factors fall apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .connectivity import CutWitness, _lex_min_cut, is_separator, kappa
from .graphs import Graph, _require_within_cap, bit_indices, min_degree
from .products import complete_graph, direct_product


class FormulaInapplicable(ValueError):
    """The closed form is only established for complete factors K_n with n >= 3."""


def _require_applicable(n: int) -> None:
    if n < 3:
        raise FormulaInapplicable(
            f"n={n}: the closed form needs n >= 3 (at n=2 a bipartite factor "
            "already makes the product disconnected; compute kappa directly instead)")


@dataclass(frozen=True)
class FormulaResult:
    """Value of the closed form plus which side of the minimum binds.

    binding_branch is "copy" (n * kappa smaller), "neighborhood"
    ((n - 1) * delta smaller), or "tie".
    """

    n: int
    kappa_g: int
    delta_g: int
    value: int
    binding_branch: str


def formula_kappa_product(kappa_g: int, delta_g: int, n: int) -> FormulaResult:
    _require_applicable(n)
    if kappa_g < 0 or delta_g < 0:
        raise ValueError("kappa and delta must be nonnegative")
    copy_side = n * kappa_g
    neighborhood_side = (n - 1) * delta_g
    if copy_side < neighborhood_side:
        branch = "copy"
    elif neighborhood_side < copy_side:
        branch = "neighborhood"
    else:
        branch = "tie"
    return FormulaResult(n=n, kappa_g=kappa_g, delta_g=delta_g,
                         value=min(copy_side, neighborhood_side),
                         binding_branch=branch)


def kappa_product_fast(g: Graph, n: int) -> int:
    """kappa(G x K_n) by the closed form, without building the product."""
    return formula_kappa_product(kappa(g), min_degree(g), n).value


def witness_cut(g: Graph, n: int) -> CutWitness:
    """An explicit minimum separator of G x K_n matching the closed form.

    The set is the one ``witness_vertices`` builds; it is re-checked against
    the actual product before being returned.
    """
    _require_applicable(n)
    product = direct_product(g, complete_graph(n)).graph  # refuses an over-cap product
    result = formula_kappa_product(kappa(g), min_degree(g), n)
    chosen, branch = witness_vertices(g, result)
    if len(chosen) != result.value:
        raise AssertionError("witness size does not match the closed form")
    if not is_separator(product, chosen):
        raise AssertionError("constructed witness does not separate the product")
    left = product.vertex_count - len(chosen)
    return CutWitness(chosen, "trivial" if left == 1 else "disconnected", branch)


def witness_vertices(g: Graph, result: FormulaResult) -> tuple[frozenset[int], str]:
    """The closed form's separator of G x K_n and the branch it comes from,
    for a connected factor G on two or more vertices and its ``result``.

    Copy branch: C x V(K_n) for a minimum cut C of G. Neighborhood branch
    (also taken on ties): all neighbours of (u, 0) where u is the smallest
    minimum-degree vertex of G.
    """
    if g.vertex_count < 2:
        raise ValueError("witness needs a factor with at least two vertices")
    if result.kappa_g == 0:
        raise ValueError("witness needs a connected factor")
    n = result.n
    if result.binding_branch == "copy":
        # G is not complete here: for K_m, (n - 1) * delta < n * kappa
        factor_cut = _lex_min_cut(g, result.kappa_g)
        return frozenset(c * n + j for c in factor_cut for j in range(n)), "copy"
    u_row = next(row for row in g._adj if row.bit_count() == result.delta_g)
    # neighbours of (u, 0) in G x K_n: every (w, j) with w ~ u and j != 0
    return (frozenset(w * n + j for w in bit_indices(u_row) for j in range(1, n)),
            "neighborhood")


@dataclass(frozen=True)
class QuotientGraph:
    """Layer-contraction of G x K_n after deleting a candidate separator S.

    remainders[i] is layer i minus S; the quotient keeps an edge ij of G when
    some product edge still runs between the two remainders, which fails only
    when both remainders are single vertices in the same column.
    """

    removed: frozenset[int]
    remainders: tuple[frozenset[int], ...]
    graph: Graph


def build_quotient(g: Graph, n: int, removed, *, kappa_g: int | None = None) -> QuotientGraph:
    """Validates that S is small enough (|S| < min(n*kappa, (n-1)*delta)) and
    leaves every layer nonempty, then contracts layers. A caller that already
    holds kappa(G) passes it as ``kappa_g``."""
    _require_within_cap(g.vertex_count * n)
    if kappa_g is None:
        kappa_g = kappa(g)
    bound = formula_kappa_product(kappa_g, min_degree(g), n).value  # refuses n < 3 first
    if kappa_g == 0:
        raise ValueError("quotient needs a connected factor with kappa >= 1")
    m = g.vertex_count
    removed = frozenset(removed)
    for v in removed:
        if not 0 <= v < m * n:
            raise ValueError(f"product vertex {v} out of range")
    if len(removed) >= bound:
        raise ValueError(
            f"candidate separator has {len(removed)} vertices; "
            f"must stay below min(n*kappa, (n-1)*delta) = {bound}")
    remainders = []
    for i in range(m):
        rem = frozenset(range(i * n, (i + 1) * n)) - removed
        if not rem:
            raise ValueError(f"candidate separator empties layer {i}")
        remainders.append(rem)
    masks = [0] * m
    for i, j in g.edge_list():
        # joined unless both remainders are one vertex in the same column
        rem_i, rem_j = remainders[i], remainders[j]
        if len(rem_i) > 1 or len(rem_j) > 1 or min(rem_i) % n != min(rem_j) % n:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return QuotientGraph(removed=removed, remainders=tuple(remainders),
                         graph=Graph.from_adjacency(masks))


def sample_separator(g: Graph, n: int, rng: Random, *,
                     kappa_g: int | None = None) -> frozenset[int]:
    """Random candidate separator for the quotient checks.

    Draws |S| uniformly from 0 .. bound-1 and S uniformly among product vertex
    sets of that size, rejecting draws that empty a layer (after 100 rejections
    the size is redrawn; after 1000 sizes it gives up). A caller that already
    holds kappa(G) passes it as ``kappa_g``.
    """
    _require_within_cap(g.vertex_count * n)
    if kappa_g is None:
        kappa_g = kappa(g)
    bound = formula_kappa_product(kappa_g, min_degree(g), n).value  # refuses n < 3 first
    if kappa_g == 0:
        raise ValueError("no candidate separators exist for a factor with kappa = 0")
    total = g.vertex_count * n
    for _ in range(1000):
        size = rng.randrange(bound)
        for _attempt in range(100):
            chosen = frozenset(rng.sample(range(total), size))
            if all(sum(1 for v in chosen if v // n == i) < n
                   for i in range(g.vertex_count)):
                return chosen
        # this size keeps emptying some layer; try another
    raise RuntimeError("could not sample a layer-respecting candidate separator")

"""Complete graphs and direct products.

The direct product G x H joins (u1, v1) to (u2, v2) exactly when u1u2 is an
edge of G and v1v2 is an edge of H. Product vertices use the row-major
labelling (i, j) -> i * |V(H)| + j, which is part of the public contract: layer
i of G x H is the contiguous block i*n .. i*n + n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _require_within_cap, bit_indices


@dataclass(frozen=True)
class ProductGraph:
    """The result of ``direct_product``; its ``graph`` is G x H."""

    graph: Graph


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    _require_within_cap(n)
    full = (1 << n) - 1
    return Graph.from_adjacency([full ^ (1 << v) for v in range(n)])


def direct_product(g: Graph, h: Graph) -> ProductGraph:
    if g.vertex_count == 0 or h.vertex_count == 0:
        raise ValueError("direct product needs nonempty factors")
    hn = h.vertex_count
    _require_within_cap(g.vertex_count * hn)
    # Row (u, i) of A(G) kron A(H) is spread[u] * row i of H, where spread[u]
    # has bit w * |V(H)| for each w ~ u; an H row is below 2**|V(H)|, so the
    # shifted copies do not overlap and the multiply never carries.
    spread = [sum(1 << (w * hn) for w in bit_indices(row)) for row in g._adj]
    adj = [s * row for s in spread for row in h._adj]
    return ProductGraph(Graph.from_adjacency(adj))

"""Complete graphs and direct products.

The direct product G x H joins (u1, v1) to (u2, v2) exactly when u1u2 is an
edge of G and v1v2 is an edge of H. Product vertices use the row-major
labelling (i, j) -> i * |V(H)| + j, which is part of the public contract: layer
i of G x H is the contiguous block i*n .. i*n + n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class ProductGraph:
    """A direct product together with its factor dimensions."""

    graph: Graph
    left_count: int
    right_count: int

    def index_of(self, i: int, j: int) -> int:
        """Product label of the pair (i, j)."""
        if not (0 <= i < self.left_count and 0 <= j < self.right_count):
            raise ValueError(f"pair ({i}, {j}) out of range for a "
                             f"{self.left_count} x {self.right_count} product")
        return i * self.right_count + j

    def pair_of(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.graph.vertex_count:
            raise ValueError(f"product vertex {index} out of range")
        return divmod(index, self.right_count)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    full = (1 << n) - 1
    return Graph.from_adjacency([full ^ (1 << v) for v in range(n)])


def direct_product(g: Graph, h: Graph) -> ProductGraph:
    if g.vertex_count == 0 or h.vertex_count == 0:
        raise ValueError("direct product needs nonempty factors")
    hn = h.vertex_count
    h_edges = h.edge_list()
    adj = [0] * (g.vertex_count * hn)
    for u1, u2 in g.edge_list():
        base1 = u1 * hn
        base2 = u2 * hn
        for v1, v2 in h_edges:
            a, b = base1 + v1, base2 + v2
            adj[a] |= 1 << b
            adj[b] |= 1 << a
            a, b = base1 + v2, base2 + v1
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return ProductGraph(Graph.from_adjacency(adj), g.vertex_count, hn)

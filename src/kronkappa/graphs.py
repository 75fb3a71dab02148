"""Simple undirected graphs over vertices 0..n-1, plus basic structural queries.

Adjacency is stored as one Python-int bitmask per vertex, which keeps the
separator and component machinery elsewhere in the package down to a few
integer operations per step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ._kernels import _drop, _reach


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """Immutable simple graph. No loops, no multi-edges, no vertex data."""

    __slots__ = ("_adj",)

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 0:
            raise ValueError(f"vertex count must be nonnegative, got {vertex_count}")
        adj = [0] * vertex_count
        for edge in edges:
            u, v = edge
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) not allowed")
            if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
                raise ValueError(
                    f"edge ({u}, {v}) out of range for vertex count {vertex_count}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._adj = tuple(adj)

    @classmethod
    def from_adjacency(cls, masks) -> "Graph":
        """Build directly from per-vertex neighbour bitmasks.

        Fast path for internal constructions; masks are checked for range and
        loop-freeness but symmetry is trusted.
        """
        masks = tuple(masks)
        limit = 1 << len(masks)
        for v, m in enumerate(masks):
            if not 0 <= m < limit or (m >> v) & 1:
                raise ValueError(f"bad adjacency mask at vertex {v}")
        g = cls.__new__(cls)
        g._adj = masks
        return g

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edge set as (u, v) pairs with u < v."""
        return frozenset(self.edge_list())

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v; walking the rows gives sorted order."""
        return [(u, v) for u, row in enumerate(self._adj)
                for v in bit_indices((row >> (u + 1)) << (u + 1))]

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return (self._adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(bit_indices(self._adj[v]))

    def adjacency_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v]

    def adjacency_matrix(self) -> "numpy.ndarray":
        """Dense boolean adjacency matrix (row i = neighbours of i).

        An export for numpy users: numpy is imported here, not by the package.
        """
        import numpy as np

        n = len(self._adj)
        mat = np.zeros((n, n), dtype=np.bool_)
        for v, row in enumerate(self._adj):
            for w in bit_indices(row):
                mat[v, w] = True
        return mat

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise ValueError(f"vertex {v} out of range for vertex count {len(self._adj)}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph({len(self._adj)}, {self.edge_list()})"


def min_degree(g: Graph) -> int:
    if g.vertex_count == 0:
        raise ValueError("minimum degree undefined for the empty graph")
    return min(m.bit_count() for m in g._adj)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    comps = []
    rest = (1 << g.vertex_count) - 1
    while rest:
        reach = _reach(g._adj, rest & -rest, rest)
        comps.append(bit_indices(reach))
        rest ^= reach
    return comps


@dataclass(frozen=True)
class OddCycleStatus:
    """Either a two-colouring of every component or one odd cycle, never both."""

    bipartition: tuple[frozenset[int], frozenset[int]] | None
    odd_cycle: tuple[int, ...] | None

    @property
    def is_bipartite(self) -> bool:
        return self.bipartition is not None


def odd_cycle_status(g: Graph) -> OddCycleStatus:
    """Two-colour by BFS; a same-colour edge closes an odd cycle through the
    tree paths to the endpoints' lowest common ancestor."""
    rows = g._adj
    n = len(rows)
    color = [-1] * n
    parent = [-1] * n
    depth = [0] * n
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in bit_indices(rows[u]):
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return OddCycleStatus(None, _cycle_through(u, v, parent, depth))
    side0 = frozenset(v for v in range(n) if color[v] == 0)
    side1 = frozenset(v for v in range(n) if color[v] == 1)
    return OddCycleStatus((side0, side1), None)


def _cycle_through(u: int, v: int, parent: list[int], depth: list[int]) -> tuple[int, ...]:
    # walk both endpoints up to their LCA; u and v have equal colour, hence
    # equal depth parity, so the resulting cycle length is odd
    path_u, path_v = [u], [v]
    a, b = u, v
    while depth[a] > depth[b]:
        a = parent[a]
        path_u.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        path_v.append(b)
    while a != b:
        a = parent[a]
        path_u.append(a)
        b = parent[b]
        path_v.append(b)
    return tuple(path_u + path_v[-2::-1])


def delete_vertex(g: Graph, u: int) -> tuple[Graph, dict[int, int]]:
    """Remove one vertex.

    Returns the smaller graph and the old->new label map for the survivors
    (labels above u shift down by one).
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("vertex deletion needs a graph with at least two vertices")
    if not 0 <= u < n:
        raise ValueError(f"vertex {u} out of range for vertex count {n}")
    labels = {v: v - (v > u) for v in range(n) if v != u}
    return Graph.from_adjacency(_drop(g._adj, u)), labels


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on ``vertices``, relabelled 0..k-1 in sorted order."""
    chosen = sorted(set(vertices))
    for v in chosen:
        g._check_vertex(v)
    # bit k of a new row is bit chosen[k] of the old one
    rows = g._adj
    return Graph.from_adjacency(
        sum(((rows[old] >> w) & 1) << k for k, w in enumerate(chosen)) for old in chosen)

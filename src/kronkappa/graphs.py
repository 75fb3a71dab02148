"""Simple undirected graphs over vertices 0..n-1, plus basic structural queries.

Adjacency is stored as one Python-int bitmask per vertex, which keeps the
separator and component machinery elsewhere in the package down to a few
integer operations per step.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels import _drop, _reach

#: most vertices of a graph built from a count rather than from rows already
#: held (``from_adjacency``); its rows take VERTEX_CAP**2 / 8 bytes, 128 KB
VERTEX_CAP = 1024


def _require_within_cap(count: int) -> None:
    if count > VERTEX_CAP:
        raise ValueError(f"{count} vertices is above the vertex cap {VERTEX_CAP}")


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
        _require_within_cap(vertex_count)
        adj = [0] * vertex_count
        for u, v in edges:
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
    """Two-colour each component by the parity of its breadth-first levels,
    grown as masks from the component's lowest vertex. An edge inside one
    level closes an odd cycle: its two ends step down a level at a time, each
    to its lowest neighbour there, until the two walks meet."""
    rows = g._adj
    sides = [0, 0]
    rest = (1 << len(rows)) - 1
    while rest:
        levels = []
        front = rest & -rest
        while front:
            rest ^= front
            sides[len(levels) & 1] |= front
            levels.append(front)
            grown = 0
            m = front
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                inside = rows[u] & front
                if inside:
                    a, b = [u], [(inside & -inside).bit_length() - 1]
                    k = len(levels) - 1
                    while a[-1] != b[-1]:
                        k -= 1
                        for walk in (a, b):
                            down = rows[walk[-1]] & levels[k]
                            walk.append((down & -down).bit_length() - 1)
                    return OddCycleStatus(None, tuple(a + b[-2::-1]))
                grown |= rows[u]
            front = grown & rest
    return OddCycleStatus((frozenset(bit_indices(sides[0])),
                           frozenset(bit_indices(sides[1]))), None)


def delete_vertex(g: Graph, u: int) -> tuple[Graph, dict[int, int]]:
    """Remove one vertex.

    Returns the smaller graph and the old->new label map for the survivors
    (labels above u shift down by one).
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("vertex deletion needs a graph with at least two vertices")
    g._check_vertex(u)
    labels = {v: v - (v > u) for v in range(n) if v != u}
    return Graph.from_adjacency(_drop(g._adj, u)), labels


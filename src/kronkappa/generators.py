"""Seeded graph generators and exhaustive labelled-graph enumeration.

Everything here is deterministic in (parameters, seed): the same call gives
the same graph in any process, which the sweep harness relies on.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from random import Random
from typing import Iterator

from .graphs import Graph, connected_components

_CONNECT_RETRIES = 32


def _sample_masks(n: int, p: float, rng: Random) -> list[int]:
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return masks


def _check_args(n: int, p: float) -> None:
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with an explicit seed."""
    _check_args(n, p)
    return Graph.from_adjacency(_sample_masks(n, p, Random(seed)))


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Connected G(n, p): resample up to ``_CONNECT_RETRIES`` times, then
    overlay a uniform random spanning tree on the last sample.

    p = 0 with n >= 2 cannot come out connected and is rejected once the
    retry budget is spent.
    """
    _check_args(n, p)
    rng = Random(seed)
    for _ in range(_CONNECT_RETRIES):
        g = Graph.from_adjacency(_sample_masks(n, p, rng))
        if len(connected_components(g)) == 1:
            return g
    if p == 0.0:
        raise ValueError(
            f"p=0 on {n} vertices cannot give a connected graph ({_CONNECT_RETRIES} retries spent)")
    masks = list(g._adj)
    for u, v in _random_tree_edges(n, rng):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph.from_adjacency(masks)


def _random_tree_edges(n: int, rng: Random) -> list[tuple[int, int]]:
    # uniform labelled tree via a Pruefer sequence
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    # after consuming the sequence exactly two leaves remain; join them
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def random_bipartite_graph(a: int, b: int, p: float, seed: int) -> Graph:
    """Bipartite G(a, b, p): sides {0..a-1} and {a..a+b-1}, cross edges only."""
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = Random(seed)
    masks = [0] * (a + b)
    for u in range(a):
        for v in range(a, a + b):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return Graph.from_adjacency(masks)


def labeled_graphs(m: int) -> Iterator[Graph]:
    """Every labelled graph on m vertices, in edge-subset order (2^C(m,2) graphs)."""
    if m < 1:
        raise ValueError("need at least one vertex")
    pairs = list(combinations(range(m), 2))
    for subset in range(1 << len(pairs)):
        masks = [0] * m
        rest = subset
        idx = 0
        while rest:
            if rest & 1:
                u, v = pairs[idx]
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            rest >>= 1
            idx += 1
        yield Graph.from_adjacency(masks)


def all_labeled_graphs(max_vertices: int) -> Iterator[Graph]:
    """Every labelled graph on 1..max_vertices vertices."""
    for m in range(1, max_vertices + 1):
        yield from labeled_graphs(m)

"""Seeded graph generators and exhaustive labelled-graph enumeration.

Everything here is deterministic in (parameters, seed): the same call gives
the same graph in any process, which the sweep harness relies on.
"""

from __future__ import annotations

from itertools import combinations, product
from random import Random
from typing import Iterator

from .graphs import Graph, _require_within_cap, bit_indices, connected_components

_CONNECT_RETRIES = 32


def _sample(n: int, pairs, p: float, rng: Random) -> Graph:
    """The graph on n vertices keeping each of ``pairs``, in order, with probability p."""
    return Graph(n, [pair for pair in pairs if rng.random() < p])


def _check_args(n: int, p: float) -> None:
    if n < 1:
        raise ValueError("need at least one vertex")
    _require_within_cap(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with an explicit seed."""
    _check_args(n, p)
    return _sample(n, combinations(range(n), 2), p, Random(seed))


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Connected G(n, p): resample up to ``_CONNECT_RETRIES`` times; if every
    sample is disconnected, join each later component of the last sample by
    one edge to a vertex of the earlier components, both ends drawn from the
    same seeded generator.

    p = 0 with n >= 2 cannot come out connected and is rejected once the
    retry budget is spent.
    """
    _check_args(n, p)
    rng = Random(seed)
    for _ in range(_CONNECT_RETRIES):
        g = _sample(n, combinations(range(n), 2), p, rng)
        if len(connected_components(g)) == 1:
            return g
    if p == 0.0:
        raise ValueError(
            f"p=0 on {n} vertices cannot give a connected graph ({_CONNECT_RETRIES} retries spent)")
    edges = g.edge_list()
    earlier, *later = connected_components(g)
    for component in later:
        edges.append((rng.choice(component), rng.choice(earlier)))
        earlier += component
    return Graph(n, edges)


def random_bipartite_graph(a: int, b: int, p: float, seed: int) -> Graph:
    """Bipartite G(a, b, p): sides {0..a-1} and {a..a+b-1}, cross edges only."""
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    _check_args(a + b, p)
    return _sample(a + b, product(range(a), range(a, a + b)), p, Random(seed))


def labeled_graphs(m: int) -> Iterator[Graph]:
    """Every labelled graph on m vertices, in edge-subset order (2^C(m,2) graphs)."""
    if m < 1:
        raise ValueError("need at least one vertex")
    pairs = list(combinations(range(m), 2))
    for subset in range(1 << len(pairs)):
        yield Graph(m, [pairs[i] for i in bit_indices(subset)])


def all_labeled_graphs(max_vertices: int) -> Iterator[Graph]:
    """Every labelled graph on 1..max_vertices vertices."""
    for m in range(1, max_vertices + 1):
        yield from labeled_graphs(m)

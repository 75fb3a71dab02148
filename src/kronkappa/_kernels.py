"""Inner loops for connectivity, on graphs packed as neighbour bitmasks.

Both kernels take ``rows``: the adjacency matrix packed as one Python int per
row, so bit j of rows[i] is set exactly when i and j are adjacent. That is the
representation ``Graph`` already stores, so no other graph form is built.
"""

from __future__ import annotations


def _disjoint_paths(rows, s, t, cutoff):
    """Maximum number of internally vertex-disjoint s-t paths, but no more
    than ``cutoff``; s and t must be distinct and non-adjacent.

    This is unit-capacity max-flow in the split graph (each vertex v an arc
    v_in -> v_out) without building it. Every vertex other than s and t
    carries at most one unit, so the flow is one predecessor/successor pair
    per vertex: prv[v] -> v -> nxt[v]. Residual arcs are then
      v_out -> w_in   for a neighbour w, unless w == nxt[v];
      v_in  -> v_out  when v carries no flow;
      v_out -> v_in   and   v_in -> prv[v]_out   when it does.
    """
    # common neighbours give disjoint two-edge paths outright
    common = rows[s] & rows[t]
    flow = common.bit_count()
    if flow >= cutoff:
        return cutoff
    n = len(rows)
    prv = [-1] * n
    nxt = [-1] * n
    parent = [-1] * n
    used = common  # vertices carrying a unit of flow
    m = common
    while m:
        low = m & -m
        w = low.bit_length() - 1
        m ^= low
        prv[w] = s
        nxt[w] = t
    while flow < cutoff and _augmenting_path(rows, s, t, used, prv, parent):
        # walk the path back from t_in and push one unit along it
        w = t
        while True:
            u = parent[w]
            if u == w:
                # v_out -> v_in: both of w's flow arcs are cancelled, so w is
                # free again; w_out was reached from nxt[w]_in
                used &= ~(1 << w)
                w = nxt[w]
                continue
            prv[w] = u
            if u == s:
                break
            if used >> u & 1:
                # u_out was reached from nxt[u]_in, whose arc from u is cancelled
                w, nxt[u] = nxt[u], w
            else:
                used |= 1 << u
                nxt[u] = w
                w = u
        flow += 1
    return flow


def _augmenting_path(rows, s, t, used, prv, parent):
    """Breadth-first search of the residual graph from s_out to t_in, one
    layer of out-nodes and one of in-nodes at a time. On success parent[w]
    names the out-node that reached in-node w (w itself for w_out -> w_in).

    The only way into v_out of a flow-carrying v is from nxt[v]_in, so only
    in-nodes need a parent slot, and the saturated arc v_out -> nxt[v]_in
    needs no check: its head is already seen when v_out is expanded (t_in is
    never expanded, so no v_out with nxt[v] == t is reached at all). Nor do
    the saturated arcs s_out -> w_in: from such a w_in the only residual arc
    leads back to s_out, so the search dead-ends there either way.
    """
    t_bit = 1 << t
    seen_in = front_out = 1 << s
    while front_out:
        front_in = 0
        while front_out:
            low = front_out & -front_out
            v = low.bit_length() - 1
            front_out ^= low
            cand = rows[v] & ~seen_in
            if used & low and not seen_in & low:
                cand |= low
            if cand & t_bit:
                parent[t] = v
                return True
            seen_in |= cand
            front_in |= cand
            while cand:
                low = cand & -cand
                parent[low.bit_length() - 1] = v
                cand ^= low
        # free in-nodes pass to their own out-node; a flow-carrying one steps
        # back to its predecessor's out-node (s_out is the origin)
        front_out = front_in & ~used
        m = front_in & used
        while m:
            low = m & -m
            p = prv[low.bit_length() - 1]
            m ^= low
            if p != s:
                front_out |= 1 << p
    return False


def kappa_from_matrix(rows, floor=None):
    """Exact vertex connectivity of the graph whose adjacency matrix is
    ``rows``, packed as one int per row (bit j of rows[i] set when i ~ j).

    Esfahanian-Hakimi: flows run only from one fixed minimum-degree vertex to
    its non-neighbours and between non-adjacent pairs of its neighbourhood;
    every minimum cut is seen by one of those pairs. Each flow stops at the
    best value found so far.

    ``floor`` is for callers that know kappa >= floor: the result is then
    min(kappa, floor + 1). Flows stop at floor + 1, and the search ends as
    soon as the minimum degree or one flow reaches floor.
    """
    n = len(rows)
    if n <= 1:
        return 0
    degrees = [r.bit_count() for r in rows]
    delta = min(degrees)
    best = delta if floor is None else min(delta, floor + 1)
    if delta == n - 1 or best == floor:
        return best
    if not _still_connected(rows, (1 << n) - 1):
        return 0
    if best == 1:
        return 1  # connected, so no flow is below 1

    v_min = degrees.index(delta)
    around = rows[v_min]
    for u in range(n):
        if u != v_min and not around >> u & 1:
            best = min(best, _disjoint_paths(rows, v_min, u, best))
            if best == floor:
                return best
    m = around
    while m:
        low = m & -m
        x = low.bit_length() - 1
        m ^= low
        rest = m & ~rows[x]  # neighbours of v_min above x and not adjacent to x
        while rest:
            y_bit = rest & -rest
            rest ^= y_bit
            best = min(best, _disjoint_paths(rows, x, y_bit.bit_length() - 1, best))
            if best == floor:
                return best
    return best


def _reach(rows, start, within):
    """The part of ``within`` reachable from the mask ``start`` (a subset of
    ``within``) along edges that stay inside ``within``."""
    reach = frontier = start
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & within & ~reach
        reach |= frontier
    return reach


def _still_connected(rows, rest):
    if rest & (rest - 1) == 0:
        return False  # one vertex left, counts as trivialised, not connected
    return _reach(rows, rest & -rest, rest) == rest


def _drop(rows, v):
    """``rows`` with vertex v deleted; the labels above v shift down by one."""
    below = (1 << v) - 1
    return [(r & below) | (r >> 1 & ~below) for r in rows[:v] + rows[v + 1:]]


def brute_force_kappa_bits(rows):
    """Least k for which some k-subset removal disconnects or trivialises the
    graph whose adjacency matrix is ``rows``, packed as one int per row.

    k-subsets are walked in lexicographic order with Gosper's trick. Below
    k = n - 1 every residual keeps two or more vertices, so it is
    disconnected exactly when its lowest vertex does not reach all of it.
    """
    n = len(rows)
    full = (1 << n) - 1
    if not _still_connected(rows, full):
        return 0
    for k in range(1, n - 1):
        subset = (1 << k) - 1
        while subset <= full:
            rest = full & ~subset
            if _reach(rows, rest & -rest, rest) != rest:
                return k
            low = subset & -subset
            ripple = subset + low
            subset = (((ripple ^ subset) >> 2) // low) | ripple
    return n - 1

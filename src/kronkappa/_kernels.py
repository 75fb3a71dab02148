"""Inner loops for connectivity, on graphs packed as neighbour bitmasks.

Both kernels take ``rows``: the adjacency matrix packed as one Python int per
row, so bit j of rows[i] is set exactly when i and j are adjacent. That is the
representation ``Graph`` already stores, so no other graph form is built.
"""

from __future__ import annotations

from math import comb


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
    So each in-node other than t_in leaves by one arc, and each out-node
    other than s_out is entered by one: v_out from v_in when v is free, from
    nxt[v]_in when it carries flow.

    Flow grows in Dinic phases (Even & Tarjan, SIAM J. Comput. 4, 1975): one
    levelled search, then every shortest augmenting path pushed, so a flow
    of value k needs O(sqrt(V)) searches rather than k.
    """
    # common neighbours give disjoint two-edge paths outright
    common = rows[s] & rows[t]
    flow = common.bit_count()
    if flow >= cutoff:
        return cutoff
    n = len(rows)
    prv = [-1] * n
    nxt = [-1] * n
    used = common  # vertices carrying a unit of flow
    m = common
    while m:
        low = m & -m
        w = low.bit_length() - 1
        m ^= low
        prv[w] = s
        nxt[w] = t
    while flow < cutoff:
        levels = _augmenting_path(rows, s, t, used, prv)
        if levels is None:
            break
        # Depth first back from t_in, one level down per step. The out-nodes
        # of levels[k] that precede in-node w are its neighbours and, when w
        # carries flow, w itself (the arc w_out -> w_in); a free w_out sits
        # one level above w_in, so its bit is harmless. The one saturated arc
        # into w_in, from prv[w]_out, also starts one level up. The in-node
        # before u_out is u_in or nxt[u]_in, so no parents are stored.
        # blocked: out-nodes on a pushed path (their one entering arc is now
        # saturated) or that reach no s_out; neither can carry more this phase
        blocked = 0
        ins = [t]  # ins[i] is the in-node entered from path[i]
        path = []  # out-nodes, from the last level down
        top = len(levels) - 1
        while True:
            w = ins[-1]
            k = top - len(path)
            cand = levels[k] & (rows[w] | 1 << w) & ~blocked
            if not cand:
                if not path:
                    break  # t_in has no live predecessor: the phase is over
                blocked |= 1 << path.pop()  # a dead end
                ins.pop()
                continue
            u = (cand & -cand).bit_length() - 1
            if k:
                path.append(u)
                ins.append(nxt[u] if used >> u & 1 else u)
                continue
            # u is s: push one unit along s_out -> w_in -> path[-1]_out ... t_in
            prv[w] = s
            for w, u in zip(ins, path):
                blocked |= 1 << u
                if u == w:
                    used ^= 1 << w  # both flow arcs of w are cancelled
                else:
                    prv[w] = u
                    nxt[u] = w
                    used |= 1 << u
            flow += 1
            if flow == cutoff:
                break
            del ins[1:]
            path.clear()
    return flow


def _augmenting_path(rows, s, t, used, prv):
    """Levelled breadth-first search of the residual graph from s_out:
    levels[k] is the mask of out-nodes at distance 2k, and the list ends
    with the level whose out-nodes reach t_in. None when t_in is unreachable.

    Each level's in-nodes are one OR of rows over the level, plus v_in for a
    flow-carrying v (the arc v_out -> v_in). The saturated arc
    v_out -> nxt[v]_in needs no check: v_out is entered only from nxt[v]_in,
    which is therefore already seen (t_in is never expanded, so no v_out with
    nxt[v] == t is reached at all). Nor do the saturated arcs s_out -> w_in:
    from such a w_in the only residual arc leads back to s_out.
    """
    seen_in = front = 1 << s
    levels = []
    while front:
        levels.append(front)
        grown = front & used
        m = front
        while m:
            low = m & -m
            grown |= rows[low.bit_length() - 1]
            m ^= low
        if grown >> t & 1:
            return levels
        grown &= ~seen_in
        seen_in |= grown
        # free in-nodes pass to their own out-node; a flow-carrying one steps
        # back to its predecessor's out-node (s_out is the origin)
        front = grown & ~used
        m = grown & used
        while m:
            low = m & -m
            p = prv[low.bit_length() - 1]
            m ^= low
            if p != s:
                front |= 1 << p
    return None


def kappa_from_matrix(rows):
    """Exact vertex connectivity of the graph whose adjacency matrix is
    ``rows``, packed as one int per row (bit j of rows[i] set when i ~ j).

    Flows run over Esfahanian-Hakimi's pairs (``_eh_pairs``) around the first
    minimum-degree vertex, each stopping at the best value found so far.
    """
    n = len(rows)
    if n <= 1:
        return 0
    degrees = [r.bit_count() for r in rows]
    best = min(degrees)
    if best == n - 1:
        return best
    if not _still_connected(rows, (1 << n) - 1):
        return 0
    if best == 1:
        return 1  # connected, so no flow is below 1
    for s, t in _eh_pairs(rows, degrees.index(best)):
        best = min(best, _disjoint_paths(rows, s, t, best))
    return best


def _eh_pairs(rows, v_min):
    """Esfahanian-Hakimi's flow pairs (Networks 14, 1984) around v_min, the
    first vertex of least degree: v_min with each non-neighbour, then each
    non-adjacent pair of its neighbourhood. Every minimum cut separates one.

    On rows of G x K_c (``_product_columns``) v_min is in column 0, as a
    layer's vertices share one degree, and permuting columns 1..c-1 maps the
    graph onto itself. So one pair per orbit stands for the rest: targets in
    columns 0 and 1, x in column 1 and y above x in column 1 or 2.
    """
    full = (1 << len(rows)) - 1
    around = rows[v_min]
    far = xs = ys = full  # with no symmetry, every pair
    cols = _product_columns(rows)
    if cols:
        base = full // ((1 << cols) - 1)  # bit u * cols for each layer u
        far = base | base << 1
        xs = base << 1
        ys = xs | base << 2
    m = far & ~around & ~(1 << v_min)
    while m:
        low = m & -m
        m ^= low
        yield v_min, low.bit_length() - 1
    m = around & xs
    while m:
        low = m & -m
        x = low.bit_length() - 1
        m ^= low
        rest = around & ~rows[x] & ys & -(low << 1)  # in ys, above x, not adjacent to x
        while rest:
            y_bit = rest & -rest
            rest ^= y_bit
            yield x, y_bit.bit_length() - 1


def _product_columns(rows):
    """The largest c >= 3 for which ``rows`` are G x K_c in row-major labels
    (G on two or more vertices), else 0: row u*c + j must be spread_u times
    all c bits but bit j, where spread_u, read off row u*c, has bits only at
    multiples of c. Each divisor c stops at the first row that does not fit.
    Rows of a G with loops, e.g. (54, 45, 27, 6, 5, 3), fit too: permuting
    columns still maps them onto themselves, so the orbit schedule is exact.
    """
    size = len(rows)
    for cols in range(size // 2, 2, -1):
        if size % cols:
            continue
        ones = (1 << cols) - 1
        base = ((1 << size) - 1) // ones  # bit u * cols for each layer u
        for v, row in enumerate(rows):
            j = v % cols
            if j == 0:
                spread = row >> 1 & base
                block = spread * ones
            if row != block ^ spread << j:
                break
        else:
            return cols
    return 0


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


def _still_connected(rows, rest, halves=None):
    """Whether ``rest`` spans a connected graph on two or more vertices, by
    ``_reach`` or by the lookup tables ``halves`` of ``brute_force_kappa_bits``."""
    if rest & (rest - 1) == 0:
        return False  # one vertex left, counts as trivialised, not connected
    if halves is None:
        return _reach(rows, rest & -rest, rest) == rest
    lo, hi, h, low = halves
    left, front = rest & (rest - 1), rest & -rest
    while front:  # one breadth-first level per pass, by two lookups
        front = (lo[front & low] | hi[front >> h]) & left
        left ^= front
    return not left


def _drop(rows, v):
    """``rows`` with vertex v deleted; the labels above v shift down by one."""
    below = (1 << v) - 1
    return [(r & below) | (r >> 1 & ~below) for r in rows[:v] + rows[v + 1:]]


def brute_force_kappa_bits(rows):
    """Least k for which some k-subset removal disconnects or trivialises the
    graph whose adjacency matrix is ``rows``, packed as one int per row.

    One level of subsets is walked. The first cut is a least-degree vertex's
    neighbourhood, which cuts it off as n >= delta + 2. A cut gives back each
    vertex whose return leaves the residual disconnected, then Gosper's trick
    walks the (k - 1)-subsets in lexicographic order; the first that separates
    is the next cut. If none does, k is exact: a disconnected residual on three
    or more vertices stays so without a non-cut vertex of a largest component
    (any vertex if all are single), so a smaller separator implies a k - 1 one.

    Residuals are tested by ``_still_connected``. From the first level with
    16 * C(n, k - 1) > 2^(h+1), h = ceil(n/2) <= 16, lo[b] (hi[b]) is the OR of
    the rows at the bits of b among the first h (last n - h) vertices, so a
    search level is two lookups (Four Russians: Arlazarov, Dinic, Kronrod &
    Faradzev, 1970) and the tables hold at most 2 x 65,536 entries.
    """
    n = len(rows)
    full = (1 << n) - 1
    if not _still_connected(rows, full):
        return 0
    cut = min(rows, key=int.bit_count)
    if cut.bit_count() == n - 1:
        return n - 1
    halves = None
    h = n + 1 >> 1
    while True:
        for v in range(n):
            if cut >> v & 1 and not _still_connected(rows, full & ~cut | 1 << v, halves):
                cut ^= 1 << v
        level = cut.bit_count() - 1
        if halves is None and h <= 16 and 16 * comb(n, level) > 2 << h:
            lo, hi = [0], [0]
            for j, row in enumerate(rows):
                half = lo if j < h else hi
                half += [u | row for u in half]
            halves = lo, hi, h, (1 << h) - 1
        subset = (1 << level) - 1
        while 0 < subset <= full:  # a one-vertex cut is exact: G is connected
            if not _still_connected(rows, full & ~subset, halves):
                break
            low = subset & -subset
            ripple = subset + low
            subset = (((ripple ^ subset) >> 2) // low) | ripple
        else:
            return cut.bit_count()
        cut = subset

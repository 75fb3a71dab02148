"""Text formats: graph6 records and a small edge-list format.

graph6 packs the upper triangle of the adjacency matrix column by column
(x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, ...) into 6-bit groups, most significant
bit first, each group printed as one byte in 63..126. The edge-list format is
a "p <vertex-count>" header followed by one "u v" pair per line, 0-based, with
'#' comments and blank lines ignored.
"""

from __future__ import annotations

from .graphs import Graph

_OPTIONAL_PREFIX = ">>graph6<<"
_LONG_MARK = 126


class Graph6Error(ValueError):
    """Malformed graph6 record; remembers the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def parse_graph6(record: str | bytes) -> Graph:
    if isinstance(record, bytes):
        try:
            record = record.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6Error("record is not ASCII", exc.start) from None
    record = record.rstrip("\r\n")
    if record.startswith(_OPTIONAL_PREFIX):
        record = record[len(_OPTIONAL_PREFIX):]
    if not record:
        raise Graph6Error("empty record", 0)
    codes = []
    for off, ch in enumerate(record):
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} outside the printable range 63..126", off)
        codes.append(c - 63)

    if codes[0] == _LONG_MARK - 63:
        if len(codes) >= 2 and codes[1] == _LONG_MARK - 63:
            raise Graph6Error("records beyond 258047 vertices are not supported", 1)
        if len(codes) < 4:
            raise Graph6Error("truncated extended vertex count", len(record))
        n = (codes[1] << 12) | (codes[2] << 6) | codes[3]
        if n < 63:
            raise Graph6Error("extended vertex count used for n < 63", 1)
        body, body_at = codes[4:], 4
    else:
        n = codes[0]
        body, body_at = codes[1:], 1

    pair_bits = n * (n - 1) // 2
    need = (pair_bits + 5) // 6
    if len(body) < need:
        raise Graph6Error(
            f"truncated record: {need} data bytes needed for {n} vertices, got {len(body)}",
            body_at + len(body))
    if len(body) > need:
        raise Graph6Error(f"unexpected bytes after {need} data bytes", body_at + need)

    masks = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if (body[pos // 6] >> (5 - pos % 6)) & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            pos += 1
    for pad in range(pair_bits, need * 6):
        if (body[pad // 6] >> (5 - pad % 6)) & 1:
            raise Graph6Error("nonzero padding bit", body_at + pad // 6)
    return Graph.from_adjacency(masks)


def write_graph6(g: Graph) -> str:
    n = g.vertex_count
    if n > 258047:
        raise ValueError("graph6 supports at most 258047 vertices")
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = [chr(_LONG_MARK),
               chr(63 + ((n >> 12) & 63)),
               chr(63 + ((n >> 6) & 63)),
               chr(63 + (n & 63))]
    group = 0
    filled = 0
    for j in range(1, n):
        col = g._adj[j]
        for i in range(j):
            group = (group << 1) | ((col >> i) & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = 0
                filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    vertex_count = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if vertex_count is None:
            if len(parts) != 2 or parts[0] != "p":
                raise ValueError(f"line {lineno}: expected header 'p <vertex-count>'")
            try:
                vertex_count = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: vertex count {parts[1]!r} is not an integer") from None
            if vertex_count < 0:
                raise ValueError(f"line {lineno}: negative vertex count")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected an edge '<u> <v>'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: edge endpoints must be integers") from None
        if u == v:
            raise ValueError(f"line {lineno}: loop edge ({u}, {v}) not allowed")
        if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
            raise ValueError(
                f"line {lineno}: edge ({u}, {v}) out of range for vertex count {vertex_count}")
        pairs.append((u, v))
    if vertex_count is None:
        raise ValueError("missing 'p <vertex-count>' header")
    return Graph(vertex_count, pairs)


def write_edge_list(g: Graph) -> str:
    lines = [f"p {g.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_list())
    return "\n".join(lines) + "\n"

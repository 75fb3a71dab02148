"""Text formats: graph6 records and a small edge-list format.

graph6 packs the upper triangle of the adjacency matrix column by column
(x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, ...) into 6-bit groups, most significant
bit first, each group printed as one byte in 63..126. The edge-list format is
a "p <vertex-count>" header followed by one "u v" pair per line, 0-based, with
'#' comments and blank lines ignored.
"""

from __future__ import annotations

from .graphs import Graph, _require_within_cap, bit_indices

_OPTIONAL_PREFIX = ">>graph6<<"
#: each printable byte 63..126 to its six bits, most significant first
_BITS = {63 + c: f"{c:06b}" for c in range(64)}
_BYTE = {bits: chr(c) for c, bits in _BITS.items()}


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
    for off, ch in enumerate(record):
        if not "?" <= ch <= "~":
            raise Graph6Error(f"byte {ord(ch)} outside the printable range 63..126", off)

    if record[0] == "~":
        if record[1:2] == "~":
            raise Graph6Error("records beyond 258047 vertices are not supported", 1)
        if len(record) < 4:
            raise Graph6Error("truncated extended vertex count", len(record))
        n = int(record[1:4].translate(_BITS), 2)
        if n < 63:
            raise Graph6Error("extended vertex count used for n < 63", 1)
        body_at = 4
    else:
        n = ord(record[0]) - 63
        body_at = 1
    _require_within_cap(n)

    pair_bits = n * (n - 1) // 2
    need = (pair_bits + 5) // 6
    got = len(record) - body_at
    if got < need:
        raise Graph6Error(
            f"truncated record: {need} data bytes needed for {n} vertices, got {got}",
            len(record))
    if got > need:
        raise Graph6Error(f"unexpected bytes after {need} data bytes", body_at + need)
    bits = record[body_at:].translate(_BITS)
    if "1" in bits[pair_bits:]:
        raise Graph6Error("nonzero padding bit", body_at + need - 1)

    # column j, reversed, is row j's bits below j; each also sets bit j of its
    # earlier row
    masks = [0] * n
    for j in range(1, n):
        masks[j] = lower = int(bits[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2)
        for i in bit_indices(lower):
            masks[i] |= 1 << j
    return Graph.from_adjacency(masks)


def write_graph6(g: Graph) -> str:
    n = g.vertex_count
    if n > 258047:
        raise ValueError("graph6 supports at most 258047 vertices")
    # the vertex count is 6 bits, or byte 126 (six one bits) and then 18 bits
    bits = f"{n:06b}" if n <= 62 else f"{63:06b}{n:018b}"
    bits += "".join([f"{row & ((1 << j) - 1):0{j}b}"[::-1] for j, row in enumerate(g._adj) if j])
    bits += "0" * (-len(bits) % 6)
    return "".join([_BYTE[bits[k:k + 6]] for k in range(0, len(bits), 6)])


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

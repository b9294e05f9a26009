"""Graph, two-coloring, and multipartite primitives shared by the rest of the package."""

from __future__ import annotations

import json
import os
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from operator import add, itemgetter, lt, mul
from typing import Iterable, Sequence

from .errors import ParseError

RED = "red"
BLUE = "blue"
COLORS = (RED, BLUE)

EDGELIST = "edgelist"
GRAPH6 = "graph6"
FORMATS = (EDGELIST, GRAPH6)

# Largest order the 4-byte graph6 header holds. Edge lists share the limit,
# so every graph file converts to graph6 and no file can declare an order
# that would exhaust memory before any edge is read.
_MAX_ORDER = 258047


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int(name: str, value):
    """The size argument `name` itself, or a ValueError naming it when it is
    not an int or is a bool."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def _ids(vertices: Iterable) -> list[int]:
    """The vertex ids as a list, or a ValueError naming the first that is
    not an int or is a bool (a set would merge True into 1)."""
    ids = list(vertices)
    for v in ids:
        _int("vertex", v)
    return ids


def _edge_fault(n: int, u, v) -> ValueError:
    """The error for an edge (u, v) that fails the edge rule on n vertices,
    naming the first rule it breaks: both ids ints, both in 0..n-1, u != v.

    Graph() and TwoColoring.from_red_edges test the whole rule inline, as
    ``type(u) is type(v) is int and 0 <= u < n and 0 <= v < n and u != v``,
    and call this only for an edge that fails it. type(), not isinstance:
    a bool is an int to isinstance, and a float would fail in indexing.
    """
    if type(u) is not int or type(v) is not int:
        return ValueError(f"edge ({u!r}, {v!r}) has a vertex id that is not an int")
    if not (0 <= u < n and 0 <= v < n):
        return ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
    return ValueError(f"self-loop at vertex {u}")


def opposite(color: str) -> str:
    """The other color of a 2-coloring."""
    if color == RED:
        return BLUE
    if color == BLUE:
        return RED
    raise ValueError(f"unknown color {color!r}")


class Graph:
    """Simple undirected graph on dense vertex ids 0..n-1.

    Immutable after construction. Neighbor queries return sorted tuples so
    every scan over a graph is deterministic; ``bits`` holds the same rows
    as int masks (bit u of ``bits[v]`` marks the edge uv), built on first
    use, each from its own row. A graph built from masks alone (a
    complement, the red graph of TwoColoring.from_red_edges, or a dense
    hood in fans._blossom_fan) decodes a row when it is asked for, and all
    of them the first time a caller needs them all; max_matching reads its
    masks and decodes only the rows its searches read.
    """

    __slots__ = ("n", "_row_cache", "_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if _int("n", n) < 0:
            raise ValueError("vertex count must be non-negative")
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n and u != v):
                raise _edge_fault(n, u, v)
            rows[u].append(v)
            rows[v].append(u)
        for row in rows:
            row.sort()
        self.n = n
        # an edge given twice, in either orientation, counts once
        self._row_cache: tuple[tuple[int, ...], ...] | None = tuple([
            tuple(row) if len(set(row)) == len(row) else tuple(sorted(set(row))) for row in rows])
        self._bits: tuple[int, ...] | None = None

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...] | None,
                   bits: tuple[int, ...] | None = None) -> "Graph":
        """Graph on rows that are already sorted, symmetric and loop-free, or
        with rows None, on masks alone: its rows are decoded on demand."""
        g = cls.__new__(cls)
        g.n = len(rows if rows is not None else bits)
        g._row_cache = rows
        g._bits = bits
        return g

    @property
    def _sorted(self) -> tuple[tuple[int, ...], ...]:
        if self._row_cache is None:
            self._row_cache = tuple([_members(m) for m in self._bits])
        return self._row_cache

    @property
    def bits(self) -> tuple[int, ...]:
        if self._bits is None:
            self._bits = tuple(map(_mask, self._sorted))
        return self._bits

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for {self.n} vertices")
        if self._row_cache is None:
            return _members(self._bits[v])
        return self._row_cache[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return frozenset(self.neighbors(v))

    def degree(self, v: int) -> int:
        if self._row_cache is None and 0 <= v < self.n:
            return self._bits[v].bit_count()
        return len(self.neighbors(v))

    def degrees(self) -> tuple[int, ...]:
        if self._row_cache is None:
            return tuple(map(int.bit_count, self._bits))
        return tuple(map(len, self._row_cache))

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(self.degrees())

    def has_edge(self, u: int, v: int) -> bool:
        """False for a pair with an id outside 0..n-1, so that a negative id
        cannot index a row from the end."""
        return 0 <= u < self.n and 0 <= v and self.bits[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self._sorted[u] if u < v]

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._sorted == other._sorted

    def __hash__(self) -> int:
        return hash((self.n, self._sorted))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def _rows(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted rows of the graph on 0..n-1 with these edges.

    Each pair (u, v) has u != v, both ends in range, and comes once; the
    two decoders that call this have checked all three.
    """
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        rows[u].append(v)
        rows[v].append(u)
    for row in rows:
        row.sort()
    return tuple(map(tuple, rows))


# bin(mask)[:1:-1] lists bit i at index i as "0" or "1"; as 0/1 bytes it
# selects the vertices of the mask in itertools.compress
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _selector(mask: int) -> bytes:
    """Byte i is bit i of mask, as 0 or 1: a selector for compress."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _mask(row: tuple[int, ...]) -> int:
    """The int mask of an ascending row: bit u set for each id u in it. The
    cost is the row's largest id, not the order of the graph, so a sparse
    graph on many vertices builds no table of n shifted bits."""
    if not row:
        return 0
    # the row as binary digits, lowest id first, then read highest first
    buf = bytearray(b"0") * (row[-1] + 1)
    for u in row:
        buf[u] = 49  # ord("1")
    return int(buf[::-1], 2)


def _members(mask: int) -> tuple[int, ...]:
    """The ids of the set bits of mask, ascending; the cost is the mask's
    bit length, not its popcount."""
    return tuple(compress(count(), _selector(mask)))


def complement(g: Graph) -> Graph:
    """Graph with an edge exactly where g has none. It holds masks alone, so
    a search that reads a few rows of a dense complement builds no others."""
    full = (1 << g.n) - 1
    return Graph._from_rows(None, tuple([(full & ~row) ^ 1 << u for u, row in enumerate(g.bits)]))


def induced(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph relabeled to 0..|S|-1.

    Returns the subgraph together with the relabeling map: entry i is the
    original id of new vertex i. Vertices are taken in ascending order.
    A graph with rows filters them through a dict; a graph on masks alone
    decodes each kept row at the kept ids, at a cost of its bit length.
    """
    keep = sorted(set(_ids(vertices)))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for {g.n} vertices")
    if g._row_cache is None:
        # a row's bits at the kept ids, in order, are its bits in new ids
        kept = _selector(sum(map((1).__lshift__, keep)))
        new_ids = range(len(keep))
        rows = tuple([tuple(compress(new_ids, compress(_selector(g._bits[v]), kept)))
                      for v in keep])
        return Graph._from_rows(rows), tuple(keep)
    index = {v: i for i, v in enumerate(keep)}
    # tuple(list), not tuple(generator): CPython grows a generator's tuple
    # from 10 slots, and the resized tuples pile up in its per-size free
    # lists (+2 MB peak RSS on the decompose benchmark when they did)
    rows = tuple(tuple([index[u] for u in g._row_cache[v] if u in index]) for v in keep)
    return Graph._from_rows(rows), tuple(keep)


@dataclass(frozen=True)
class MultipartiteSpec:
    """Part sizes of a complete multipartite graph, kept sorted ascending."""

    part_sizes: tuple[int, ...]

    def __init__(self, part_sizes: Sequence[int]):
        sizes = tuple(part_sizes)
        if not all(map(_is_int, sizes)):
            raise ValueError(f"part_sizes must hold ints, got {sizes!r}")
        if not sizes:
            raise ValueError("at least one part required")
        if any(s < 1 for s in sizes):
            raise ValueError("all part sizes must be positive")
        object.__setattr__(self, "part_sizes", tuple(sorted(sizes)))

    @property
    def t(self) -> int:
        return len(self.part_sizes)

    @property
    def total(self) -> int:
        return sum(self.part_sizes)

    def part_ranges(self) -> list[range]:
        """Vertex blocks in part order: part i occupies the i-th range."""
        ranges = []
        start = 0
        for s in self.part_sizes:
            ranges.append(range(start, start + s))
            start += s
        return ranges


def build_complete_multipartite(spec: MultipartiteSpec) -> Graph:
    """Complete multipartite graph with vertex blocks laid out in part order."""
    # every vertex of a part has the same row: all ids outside the part
    rows = []
    for part in spec.part_ranges():
        rows += [(*range(part.start), *range(part.stop, spec.total))] * len(part)
    return Graph._from_rows(tuple(rows))


class TwoColoring:
    """Red/blue edge coloring of a complete graph, stored as the red graph.

    The blue graph is the complement view, computed once on demand, so the
    two colors can never disagree. A coloring built by from_red_edges holds
    its red graph as masks alone, as the blue one is held: the fan checks
    read masks, degrees and single rows, so no row of either colour is
    built unless a caller asks for it. The masks cost about n^2/8 bytes,
    which the blue masks of any coloring cost anyway; Graph(n, edges) keeps
    building rows, since a sparse graph's rows cost far less than that.
    """

    __slots__ = ("n", "red", "_blue")

    def __init__(self, n: int, red: Graph):
        if red.n != _int("n", n):
            raise ValueError(f"red graph has {red.n} vertices, expected {n}")
        self.n = n
        self.red = red
        self._blue: Graph | None = None

    @classmethod
    def from_red_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "TwoColoring":
        """The coloring whose red edges these are, checked as Graph(n, edges)
        checks them; the red graph holds masks alone (see the class doc)."""
        if _int("n", n) < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        # a shift per edge would cost about a quarter more; the table holds
        # n^2/16 bytes, half of what the blue masks take
        power = [1 << u for u in range(n)]
        for u, v in edges:
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n and u != v):
                raise _edge_fault(n, u, v)
            # an edge given twice, in either orientation, sets the same bits
            masks[u] |= power[v]
            masks[v] |= power[u]
        return cls(n, Graph._from_rows(None, tuple(masks)))

    @property
    def blue(self) -> Graph:
        if self._blue is None:
            self._blue = complement(self.red)
        return self._blue

    def graph(self, color: str) -> Graph:
        if color == RED:
            return self.red
        if color == BLUE:
            return self.blue
        raise ValueError(f"unknown color {color!r}")

    def color_of(self, u: int, v: int) -> str:
        _ids((u, v))
        if u == v:
            raise ValueError("no color on a vertex pair (u, u)")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair ({u}, {v}) out of range")
        return RED if self.red.has_edge(u, v) else BLUE

    def neighbors(self, v: int, color: str) -> tuple[int, ...]:
        return self.graph(color).neighbors(v)

    def degree(self, v: int, color: str) -> int:
        if color == RED:
            return self.red.degree(v)
        if color == BLUE:
            return self.n - 1 - self.red.degree(v)
        raise ValueError(f"unknown color {color!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoColoring):
            return NotImplemented
        return self.n == other.n and self.red == other.red

    def __hash__(self) -> int:
        return hash((self.n, self.red))

    def __repr__(self) -> str:
        return f"TwoColoring(n={self.n}, red_edges={self.red.edge_count()})"


# ---------------------------------------------------------------------------
# graph6 codec (standard ASCII encoding, one graph per line)
# ---------------------------------------------------------------------------

def graph6_encode(g: Graph) -> str:
    n = g.n
    if n > _MAX_ORDER:
        raise ValueError(f"graph6 supports at most {_MAX_ORDER} vertices")
    header = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    # column v is bit u of row v for each u < v, lowest u first, the layout
    # graph6_decode reads; range(1, n), since format(0, "00b") is "0", not ""
    rows = g.bits
    bits = "".join([format(rows[v] & ~(-1 << v), f"0{v}b")[::-1] for v in range(1, n)])
    bits += "0" * (-len(bits) % 6)
    return header + "".join([chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6)])


# the six bits of each graph6 byte, high bit first, as 0/1 bytes, by byte value
_SIX_BITS = [b""] * 63 + [format(i, "06b").encode().translate(_BIT_BYTES) for i in range(64)]
_NOT_GRAPH6 = re.compile("[^?-~]")


def graph6_decode(text: str) -> Graph:
    text = text.strip()
    bad = _NOT_GRAPH6.search(text)
    if bad:
        raise ParseError(f"invalid graph6 byte at position {bad.start()}")
    if not text:
        raise ParseError("empty graph6 string")
    data = text.encode("ascii")
    if data[0] != 126:
        n, start = data[0] - 63, 1
    else:
        long_form = data[1:2] == b"~"
        start = 8 if long_form else 4
        if len(data) < start:
            raise ParseError("truncated graph6 header")
        n = 0
        for value in data[2 if long_form else 1:start]:
            n = (n << 6) | (value - 63)
        if n > _MAX_ORDER:
            raise ParseError(f"graph6 order {n} exceeds the supported {_MAX_ORDER}")
    body = data[start:]
    need = n * (n - 1) // 2
    size = (need + 5) // 6
    if len(body) != size:
        raise ParseError(f"graph6 body has {len(body)} bytes, n={n} needs {size}")
    pad = 6 * size - need
    if pad and (body[-1] - 63) & ((1 << pad) - 1):
        raise ParseError("graph6 padding bits are not zero")
    bits = b"".join(map(_SIX_BITS.__getitem__, body))
    # column v is the v bits from v(v-1)/2 on, one per pair (u, v) with u < v
    pairs = ((u, v) for v in range(1, n)
             for u in compress(range(v), bits[v * (v - 1) // 2:v * (v + 1) // 2]))
    return Graph._from_rows(_rows(n, pairs))


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def write_graph(g: Graph, path: str | os.PathLike, fmt: str = EDGELIST) -> None:
    """Write a graph file; edge list carries '# n=K' so order round-trips."""
    if fmt == EDGELIST:
        lines = [f"# n={g.n}"]
        names = list(map(str, range(g.n)))
        for u, row in enumerate(g._sorted):
            higher = row[bisect_right(row, u):]
            if higher:
                # one join per row: the separator starts each next line with "u "
                lines.append(f"{u} " + f"\n{u} ".join(map(names.__getitem__, higher)))
        text = "\n".join(lines) + "\n"
    elif fmt == GRAPH6:
        text = graph6_encode(g) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_graph(path: str | os.PathLike, fmt: str = EDGELIST) -> Graph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: non-ASCII byte 0x{data[exc.start]:02x} "
                         f"at byte offset {exc.start}") from None
    if fmt == EDGELIST:
        # text in write_graph's own shape decodes in whole-text passes; any
        # other text, and every fault, goes to the line loop
        g = _parse_written(text)
        return g if g is not None else _parse_edgelist(text, str(path))
    if fmt == GRAPH6:
        # one graph per file: the first non-blank line, and no other
        lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
                 if line.strip()]
        if not lines:
            raise ParseError(f"{path}: empty graph6 file")
        lineno, line = lines[0]
        try:
            g = graph6_decode(line)
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if len(lines) > 1:
            raise ParseError(f"{path}:{lines[1][0]}: extra line after the graph6 string")
        return g
    raise ValueError(f"unknown format {fmt!r}")


def _decimal(token: str) -> bool:
    """ASCII digits with an optional leading '-'; int() alone would also take
    '+2' and '1_0'."""
    digits = token[1:] if token[:1] == "-" else token
    return digits.isascii() and digits.isdigit()


# deletes the digits of an edge list, leaving its separators
_DROP_DIGITS = str.maketrans("", "", "0123456789")
_COMMAS = str.maketrans(" \n", ",,")


def _parse_written(text: str) -> Graph | None:
    """Graph of an edge list in the shape write_graph writes, decoded in
    whole-text passes; None for text of any other shape or with a fault.

    The shape is a '# n=K' line, then one 'u v' line per edge with u < v in
    ascending (u, v) order, every line ending in a newline. The line loop
    reads such text as the same graph, so the shape alone decides the path.
    """
    head, newline, body = text.partition("\n")
    count = head[4:]
    if not (newline and head[:4] == "# n=" and count.isdigit()):
        return None
    # a file in another edge order shows it on its first two lines: test
    # them before the whole-text passes
    try:
        lead = list(map(int, body.split(None, 4)[:4]))
    except ValueError:  # not a decimal, or past int()'s digit limit
        return None
    if len(lead) >= 2 and (lead[0] >= lead[1] or lead[2:] and lead[2:] <= lead[:2]):
        return None
    lines = body.count("\n")
    # only digits, then ' ' and '\n' by turns, so each line is 'u v' unless
    # an id is empty, which leaves an empty slot that json.loads refuses
    if body.translate(_DROP_DIGITS) != " \n" * lines:
        return None
    try:
        n = int(count)
        # with every separator a comma the body is a JSON array of the ids
        ids = json.loads(f"[{body.translate(_COMMAS)[:-1]}]")
    except ValueError:  # a leading zero, or a number past int()'s digit limit
        return None
    us, vs = ids[::2], ids[1::2]
    # digits after the last newline pass the translate test, and [:-1] then
    # drops a digit in place of the final comma: 2 * lines ids rule that out
    if (len(ids) != 2 * lines or n > _MAX_ORDER or max(vs, default=-1) >= n
            or not all(map(lt, us, vs))):
        return None
    # with v < n the key u * n + v orders edges as (u, v) does; strictly
    # ascending keys also rule out a repeated edge
    keys = list(map(add, map(mul, us, repeat(n)), vs))
    if not all(map(lt, keys, islice(keys, 1, None))):
        return None
    # u's higher neighbours are its run of vs; its lower ones come in
    # ascending order from the edges before that run
    lower: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(us, vs):
        lower[v].append(u)
    cuts = list(map(bisect_left, repeat(us, n + 1), range(n + 1)))
    return Graph._from_rows(tuple(map(tuple, map(
        add, lower, map(vs.__getitem__, map(slice, cuts, islice(cuts, 1, None)))))))


def _parse_edgelist(text: str, origin: str) -> Graph:
    """Graph of an ASCII edge list, read line by line; the first fault in
    line order is reported.

    An edge line is tested first, since nearly every line is one; a line
    that fails the test is then classed as blank, comment or fault. A
    number too long for int() is a fault at its line.
    """
    declared_n: int | None = None
    # a dict as an insertion-ordered set: rows then fill in file order, which
    # for a file that write_graph wrote is already sorted
    seen: dict[tuple[int, int], None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) == 2:
            a, b = parts
            # ASCII text, where isdigit means 0-9 only
            if a.isdigit() and b.isdigit():
                try:
                    u = int(a)
                    v = int(b)
                except ValueError:  # past int()'s digit limit
                    raise ParseError(f"{origin}:{lineno}: vertex id of "
                                     f"{max(len(a), len(b))} digits is too long") from None
                if u > v:
                    u, v = v, u
                elif u == v:
                    raise ParseError(f"{origin}:{lineno}: loop {u} {v} rejected")
                size = len(seen)
                seen[u, v] = None
                if len(seen) == size:
                    raise ParseError(f"{origin}:{lineno}: duplicate edge {int(a)} {int(b)}")
                continue
        if not parts:
            continue
        if parts[0][0] == "#":
            comment = raw.strip()[1:].strip()
            if comment.startswith("n="):
                if declared_n is not None:
                    raise ParseError(f"{origin}:{lineno}: second vertex count header")
                count = comment[2:].strip()
                if not count.isdigit():
                    raise ParseError(f"{origin}:{lineno}: bad vertex count {comment!r}")
                try:
                    declared_n = int(count)
                except ValueError:  # past int()'s digit limit
                    raise ParseError(f"{origin}:{lineno}: vertex count of "
                                     f"{len(count)} digits is too long") from None
            continue
        if len(parts) != 2:
            raise ParseError(f"{origin}:{lineno}: expected 'u v', got {raw!r}")
        fault = "negative vertex id" if _decimal(a) and _decimal(b) else "non-integer vertex"
        raise ParseError(f"{origin}:{lineno}: {fault} in {raw!r}")
    max_id = max(map(itemgetter(1), seen), default=-1)
    n = declared_n if declared_n is not None else max_id + 1
    if n > _MAX_ORDER:
        raise ParseError(f"{origin}: order {n} exceeds the supported {_MAX_ORDER}")
    if max_id >= n:
        raise ParseError(f"{origin}: vertex {max_id} exceeds declared n={n}")
    return Graph._from_rows(_rows(n, seen))


def write_coloring(k: TwoColoring, path: str | os.PathLike, fmt: str = EDGELIST) -> None:
    """Store a coloring as its red graph; blue is implied by complement."""
    write_graph(k.red, path, fmt)


def read_coloring(path: str | os.PathLike, fmt: str = EDGELIST) -> TwoColoring:
    red = read_graph(path, fmt)
    return TwoColoring(red.n, red)

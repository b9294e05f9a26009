"""Fan and star detection, multipartite matchings, and constructive fan extension.

A fan F_k is a center joined to every vertex of a k-edge matching, so fan
detection reduces to matching numbers of neighborhoods. find_fan is exact
but certifies most centers cheaply, in three tiers run on the int masks of
Graph.bits, in this order: a per-component bound (the smaller side of a
bipartite component, floor(|C|/2) of any other) witnesses absence; a
greedy matching witnesses presence, or absence when it ends with fewer
than k/2 edges (the ends of a maximal matching meet every edge); the
blossom matcher is the exact fallback. The bound grows each component of
G[N(v)] a whole BFS layer at a time: a layer's rows are read by decoding
its mask, or bit by bit when the layer holds fewer than one vertex per 32
bits of its length. The greedy builds no hood masks of its own. The
blossom matcher matches a hood of at least half the vertices on its masks
cut to N(v), as does high_degree_fan, and decodes only the rows its
augmenting searches read. Only the greedy and the blossom matcher build
witnesses. Within one call, a center whose open or closed neighborhood
equals that of a center already found fan-free is skipped (its absence
certificate: "same (closed) neighborhood as center u"); witnesses are the
same as without the skip.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Sequence

from .errors import FanExtensionError
from .graphs import (
    BLUE,
    COLORS,
    RED,
    Graph,
    MultipartiteSpec,
    TwoColoring,
    _BIT_BYTES,
    _int,
    induced,
    opposite,
)
from .matching import Matching, _sorted_pairs, max_matching


@dataclass(frozen=True)
class FanWitness:
    """A fan certificate: center vertex plus the spoke matching."""

    center: int
    spokes: tuple[tuple[int, int], ...]

    def __init__(self, center: int, spokes: Iterable[tuple[int, int]]):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "spokes", _sorted_pairs(spokes, "fan"))

    @property
    def k(self) -> int:
        return len(self.spokes)

    def to_json_dict(self) -> dict:
        return {"center": self.center, "spokes": [list(e) for e in self.spokes]}


def validate_fan_witness(g: Graph, w: FanWitness, k: int | None = None) -> None:
    """Check vertex ids, distinctness, center adjacency, spoke adjacency, and disjointness."""
    if k is not None and w.k != _int("k", k):
        raise ValueError(f"witness has {w.k} spokes, expected {k}")
    vertices = [w.center]
    for u, v in w.spokes:
        vertices.append(u)
        vertices.append(v)
    for x in vertices:
        # the id rule of Graph.__init__: an int, not a bool, in 0..n-1
        if type(x) is not int or not 0 <= x < g.n:
            raise ValueError(f"fan vertex {x!r} is not a vertex of the graph")
    if len(set(vertices)) != len(vertices):
        raise ValueError("fan vertices are not distinct")
    bits = g.bits
    hood = bits[w.center]
    for u, v in w.spokes:
        if not bits[u] >> v & 1:
            raise ValueError(f"spoke pair ({u}, {v}) not adjacent")
        if not (hood >> u & 1 and hood >> v & 1):
            raise ValueError(f"center {w.center} not adjacent to spoke ({u}, {v})")


# ---------------------------------------------------------------------------
# Fan detection
# ---------------------------------------------------------------------------

def _component_bound(g: Graph, v: int) -> int:
    """Upper bound on the matching number of G[N(v)]: each component holds
    at most its smaller side when bipartite and floor(|C|/2) otherwise
    (Tutte-Berge with U empty).

    Each component grows one BFS layer per step: the next layer is the OR
    of the layer's rows, masked to N(v), and the component is bipartite
    exactly when no layer meets that OR (an edge inside a BFS layer closes
    an odd cycle). A layer's rows are found by decoding its mask, which
    costs the mask's bit length, not its popcount; a sparse layer, one with
    fewer than one vertex per 32 bits of length, is walked bit by bit
    instead. Vertices isolated in N(v) add nothing and start no search,
    and the scan of N(v) ends once every vertex is placed or isolated.
    """
    hood = g.neighbors(v)
    bits = g.bits
    hood_mask = bits[v]
    ids = range(g.n)
    placed = 0
    left = len(hood)
    bound = 0
    for s in hood:
        if placed >> s & 1:
            continue
        frontier = bits[s] & hood_mask
        if not frontier:
            left -= 1
        else:
            # N(v) less this component so far
            unseen = hood_mask ^ 1 << s ^ frontier
            sides = [1, 0]
            parity = 1
            bipartite = True
            while frontier:
                size = frontier.bit_count()
                sides[parity] += size
                if size << 5 < frontier.bit_length():
                    reach = 0
                    rest = frontier
                    while rest:
                        low = rest & -rest
                        reach |= bits[low.bit_length() - 1]
                        rest ^= low
                else:
                    reach = reduce(or_, map(bits.__getitem__, compress(
                        ids, bin(frontier)[:1:-1].encode().translate(_BIT_BYTES))))
                bipartite = bipartite and not reach & frontier
                frontier = reach & unseen
                unseen ^= frontier
                parity ^= 1
            placed |= hood_mask ^ unseen
            order = sides[0] + sides[1]
            left -= order
            bound += min(sides) if bipartite else order // 2
        if not left:
            break
    return bound


def _fan_at(g: Graph, v: int, k: int) -> FanWitness | None:
    """Exact test for a k-edge matching inside N(v), cheap certificates first.

    Vertex sets are int masks over original ids (see Graph.bits). The
    component bound runs before the greedy: it decides most centers, and
    when it is below k no k-edge matching exists, so the greedy could not
    have found one and the witnesses do not depend on the order. The greedy
    reads g's masks cut to N(v) and builds none of its own. Ending with
    fewer than k edges, it is a maximal matching M of G[N(v)], whose 2|M|
    ends meet every edge, so the matching number is at most 2|M|; the
    blossom decides when that is >= k.
    """
    # Absence certificate 1: the component bound.
    if _component_bound(g, v) < k:
        return None
    bits = g.bits
    hood_mask = bits[v]

    # Presence: greedy matching, each u paired with its smallest unused
    # neighbor; an unused neighbor below u would already have taken u.
    used = 0
    greedy: list[tuple[int, int]] = []
    for u in g.neighbors(v):
        free = bits[u] & hood_mask & ~used
        if used >> u & 1 or not free:
            continue
        w = (free & -free).bit_length() - 1
        greedy.append((u, w))
        used |= 1 << u | 1 << w
        if len(greedy) >= k:
            return FanWitness(v, greedy)

    # Absence certificate 2: the maximal greedy's 2|M| ends cover G[N(v)].
    if 2 * len(greedy) < k:
        return None
    return _blossom_fan(g, v, k)


def _blossom_fan(g: Graph, v: int, k: int) -> FanWitness | None:
    """F_k centred at v from a maximum matching of G[N(v)], or None when
    that matching has fewer than k edges.

    When N(v) holds at least half of the vertices, G[N(v)] is matched in
    g's own ids, on masks alone: each vertex of N(v) keeps its mask cut to
    N(v), and every other vertex is isolated. max_matching runs its greedy
    on those masks and decodes only the rows its searches read, and it
    scans ids in ascending order and never starts at an isolated vertex, so
    this is the matching of the relabelled copy that induced makes, in
    original ids. A smaller hood is relabelled by induced, so that a hood
    in a large sparse graph costs its size, not n.
    """
    hood = g.neighbors(v)
    if 2 * len(hood) >= g.n:
        bits = g.bits
        hood_mask = bits[v]
        masks = [0] * g.n
        for u in hood:
            masks[u] = bits[u] & hood_mask
        sub, mapping = Graph._from_rows(None, tuple(masks)), range(g.n)
    else:
        sub, mapping = induced(g, hood)
    mm = max_matching(sub)
    if mm.size < k:
        return None
    # the matching lives in subgraph ids; v is already an original id
    return FanWitness(v, [(mapping[a], mapping[b]) for a, b in mm.edges[:k]])


def find_fan(g: Graph, k: int) -> FanWitness | None:
    """Witness for F_k in g, or None when no vertex neighborhood holds k disjoint edges.

    Vertices are scanned in descending degree order and a center needs
    degree at least 2k, so the scan stops at the first small degree.

    Twin rule: a center whose open neighborhood N(v), or closed one N[v],
    equals that of a center u already found fan-free is skipped, with the
    certificate "same (closed) neighborhood as center u". Open twins have
    the same G[N(v)]; for closed twins, swapping u and v maps G[N(u)] onto
    G[N(v)]. An open mask never equals a closed one (N(v) = N[u] would put
    u in N(v), so v in N(u), within N[u] = N(v): a loop), so one set holds
    both. Only absences are reused and the scan order is unchanged, so the
    first fan found, and every witness, is the same as without the rule.
    """
    if _int("k", k) < 1:
        raise ValueError("fan size must be positive")
    deg = g.degrees()
    # no center can hold F_k: return before g.bits builds the masks
    if max(deg, default=0) < 2 * k:
        return None
    bits = g.bits
    fan_free: set[int] = set()
    # the sort is stable, so equal degrees keep ascending id order
    for v in sorted(range(g.n), key=lambda v: -deg[v]):
        if deg[v] < 2 * k:
            break
        hood = bits[v]
        closed = hood | 1 << v
        if hood in fan_free or closed in fan_free:
            continue
        w = _fan_at(g, v, k)
        if w is not None:
            validate_fan_witness(g, w, k)
            return w
        fan_free.add(hood)
        fan_free.add(closed)
    return None


def find_mono_fan(k: TwoColoring, n: int) -> tuple[str, FanWitness] | None:
    """First monochromatic F_n over both color graphs, red scanned first."""
    if _int("n", n) < 1:
        raise ValueError("fan size must be positive")
    w = find_fan(k.red, n)
    if w is not None:
        return RED, w
    w = find_fan(k.blue, n)
    if w is not None:
        return BLUE, w
    return None


def max_blue_star(k: TwoColoring) -> tuple[int, int]:
    """The vertex of most blue degree (the first of least red) and that degree."""
    red = k.red.degrees()
    if not red:
        return 0, 0
    v = red.index(min(red))
    return v, k.n - 1 - red[v]


# ---------------------------------------------------------------------------
# Matchings in complete multipartite graphs
# ---------------------------------------------------------------------------

def _multipartite_nu(sizes: Sequence[int]) -> int:
    """Matching number of the complete multipartite graph with these part
    sizes: every vertex pairs up unless one part outweighs all the others."""
    total = sum(sizes)
    return min(total // 2, total - max(sizes, default=0))


def multipartite_matching_bound(spec: MultipartiteSpec) -> int:
    """Vertices covered by a maximum matching of the complete multipartite graph."""
    if spec.t < 2:
        raise ValueError("need at least two parts")
    return 2 * _multipartite_nu(spec.part_sizes)


def multipartite_matching(parts: Sequence[Iterable[int]]) -> list[tuple[int, int]]:
    """Maximum matching between given parts, pairing the two largest each round."""
    pools = [deque(sorted(p)) for p in parts]
    expect = _multipartite_nu([len(p) for p in pools])
    edges: list[tuple[int, int]] = []
    while True:
        order = sorted(range(len(pools)), key=lambda i: (-len(pools[i]), i))
        if len(order) < 2 or not pools[order[1]]:
            break
        u = pools[order[0]].popleft()
        w = pools[order[1]].popleft()
        edges.append((min(u, w), max(u, w)))
    if len(edges) != expect:
        raise AssertionError("multipartite pairing fell short of the matching number")
    return edges


# ---------------------------------------------------------------------------
# Fan extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FanExtensionInstance:
    """Host graph with blocks X_1..X_p, Y, Z; X u Y induces a complete multipartite graph.

    q = 2n - (|X| + |Y|) measures how many spokes must come from Z.
    """

    host: Graph
    x_parts: tuple[frozenset[int], ...]
    y: frozenset[int]
    z: frozenset[int]
    lam: float
    n: int

    def __init__(self, host: Graph, x_parts: Sequence[Iterable[int]],
                 y: Iterable[int], z: Iterable[int], lam: float, n: int):
        _int("n", n)
        x_parts = tuple(frozenset(p) for p in x_parts)
        y = frozenset(y)
        z = frozenset(z)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "x_parts", x_parts)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "lam", float(lam))
        object.__setattr__(self, "n", n)
        self._validate()

    def _validate(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.lam < 1:
            raise ValueError("lambda must be at least 1")
        if not self.x_parts or any(not p for p in self.x_parts):
            raise ValueError("every X part must be non-empty")
        blocks = list(self.x_parts) + [self.y, self.z]
        union: set[int] = set()
        total = 0
        for b in blocks:
            union |= b
            total += len(b)
        if total != len(union) or union != set(range(self.host.n)):
            raise ValueError("blocks must be disjoint and cover the vertex set")
        for p in self.x_parts:
            if len(p) > self.lam:
                raise ValueError(f"part of size {len(p)} exceeds lambda={self.lam}")
        if len(self.x) + len(self.y) <= self.n:
            raise ValueError("|X| + |Y| must exceed n")
        parts = list(self.x_parts) + ([self.y] if self.y else [])
        member = {}
        for idx, p in enumerate(parts):
            for u in p:
                member[u] = idx
        order = sorted(member)
        for i, u in enumerate(order):
            for w in order[i + 1:]:
                if self.host.has_edge(u, w) != (member[u] != member[w]):
                    raise ValueError(
                        f"X u Y not complete multipartite at pair ({u}, {w})")

    @property
    def x(self) -> frozenset[int]:
        out: set[int] = set()
        for p in self.x_parts:
            out |= p
        return frozenset(out)

    @property
    def q(self) -> int:
        return 2 * self.n - (len(self.x) + len(self.y))


def _coverage(m: Matching, block: frozenset[int]) -> int:
    return sum(1 for e in m.edges for u in e if u in block)


def _allowed_edges(inst: FanExtensionInstance, case: str,
                   v: int) -> tuple[frozenset[int], frozenset[int]]:
    """The case's edge rule, as (N(v) cap Z, cross block): an allowed edge has
    one end in N(v) cap Z and the other there too or in the cross block,
    which is X u Y in case (i) and Y in cases (ii) and (iii)."""
    if case not in ("i", "ii", "iii"):
        raise ValueError(f"case must be 'i', 'ii', or 'iii', got {case!r}")
    cross_block = (inst.x | inst.y) if case == "i" else inst.y
    return inst.host.neighbor_set(v) & inst.z, cross_block


def _audit_extension(inst: FanExtensionInstance, case: str, v: int, m: Matching) -> int:
    """Check every case hypothesis, collecting one message per failure."""
    failures = []
    part_index = next((i for i, p in enumerate(inst.x_parts) if v in p), None)
    if part_index is None:
        failures.append(f"v={v} does not lie in X")
        raise FanExtensionError(failures)
    try:
        m.validate(inst.host)
    except ValueError as exc:
        failures.append(f"matching invalid: {exc}")
    nv_z, cross_block = _allowed_edges(inst, case, v)
    for u, w in m.edges:
        if u in nv_z and w in nv_z:
            continue
        if (u in nv_z and w in cross_block) or (w in nv_z and u in cross_block):
            continue
        failures.append(f"edge ({u}, {w}) outside G[N(v) cap Z, "
                        f"{'X u Y' if case == 'i' else 'Y'}] u G[N(v) cap Z]")
    q = inst.q
    lam = inst.lam
    x_size = len(inst.x)
    y_size = len(inst.y)
    if case == "i":
        if not x_size > inst.n + lam:
            failures.append(f"case (i) needs |X| > n + lambda: {x_size} <= {inst.n + lam}")
        zc = _coverage(m, inst.z)
        if not zc > q + 2 * lam:
            failures.append(f"case (i) needs Z coverage > q + 2*lambda: {zc} <= {q + 2 * lam}")
    elif case == "ii":
        if not y_size <= inst.n:
            failures.append(f"case (ii) needs |Y| <= n: {y_size} > {inst.n}")
        yzc = _coverage(m, inst.y | inst.z)
        if not yzc > 2 * (q + lam):
            failures.append(f"case (ii) needs Y u Z coverage > 2(q + lambda): "
                            f"{yzc} <= {2 * (q + lam)}")
    else:  # case (iii): _allowed_edges has rejected every other name
        if not y_size >= inst.n:
            failures.append(f"case (iii) needs |Y| >= n: {y_size} < {inst.n}")
        yzc = _coverage(m, inst.y | inst.z)
        if not yzc >= 2 * (inst.n - x_size + lam):
            failures.append(f"case (iii) needs Y u Z coverage >= 2(n - |X| + lambda): "
                            f"{yzc} < {2 * (inst.n - x_size + lam)}")
    if failures:
        raise FanExtensionError(failures)
    return part_index


def _fan_within_multipartite(inst: FanExtensionInstance) -> FanWitness | None:
    """Fan inside the complete multipartite graph on X u Y, if one fits."""
    parts = [sorted(p) for p in inst.x_parts]
    if inst.y:
        parts.append(sorted(inst.y))
    for idx, part in enumerate(parts):
        others = parts[:idx] + parts[idx + 1:]
        if _multipartite_nu([len(p) for p in others]) >= inst.n:
            return FanWitness(part[0], multipartite_matching(others)[:inst.n])
    return None


def _z_first(edges: Sequence[tuple[int, int]], z: frozenset[int]) -> list[tuple[int, int]]:
    """The edges inside Z in sorted order, then the others in sorted order.

    After _audit_extension every matching edge has an end in N(v) cap Z, so
    the others are exactly the edges with one end in Z.
    """
    return sorted(edges, key=lambda e: (not (e[0] in z and e[1] in z), e))


def _take_by_z_coverage(edges: Sequence[tuple[int, int]], z: frozenset[int],
                        target: int) -> list[tuple[int, int]]:
    """Internal-first prefix reaching the requested Z coverage."""
    taken = []
    covered = 0
    for e in _z_first(edges, z):
        if covered >= target:
            break
        taken.append(e)
        covered += (e[0] in z) + (e[1] in z)
    return taken


def _take_count(edges: Sequence[tuple[int, int]], z: frozenset[int],
                count: int) -> list[tuple[int, int]]:
    picked = _z_first(edges, z)[:count]
    if len(picked) < count:
        raise AssertionError(f"matching too small: need {count} edges, have {len(edges)}")
    return picked


def fan_extend(inst: FanExtensionInstance, case: str, v: int, m: Matching) -> FanWitness:
    """Assemble an F_n witness from a qualifying matching, following the proof.

    The matching is trimmed to the case's prescribed size, v's own part is
    removed, and the spokes are completed by a matching in the residual
    complete multipartite graph. The result is validated structurally.
    """
    part_index = _audit_extension(inst, case, v, m)
    xi = inst.x_parts[part_index]
    q = inst.q
    n = inst.n

    if case == "i":
        usable = [e for e in m.edges if e[0] not in xi and e[1] not in xi]
        if q < 0:
            w = _fan_within_multipartite(inst)
            if w is not None:
                validate_fan_witness(inst.host, w, n)
                return w
        taken = _take_by_z_coverage(usable, inst.z, max(0, q + len(xi) + 1))
    else:
        usable = m.edges
        count = q + len(xi) + 1 if case == "ii" else n - len(inst.x) + len(xi)
        taken = _take_count(usable, inst.z, max(0, count))
    taken_set = set(taken)
    leftovers = [e for e in usable if e not in taken_set]

    used = {v} | {x for e in taken for x in e}
    residual_parts = [sorted(p - used) for i, p in enumerate(inst.x_parts) if i != part_index]
    residual_parts.append(sorted(inst.y - used))
    spokes = list(taken)
    spokes.extend(multipartite_matching(residual_parts))
    used.update(x for e in spokes for x in e)
    for e in leftovers:
        if len(spokes) >= n:
            break
        if e[0] not in used and e[1] not in used:
            spokes.append(e)
            used.add(e[0])
            used.add(e[1])
    if len(spokes) < n:
        raise FanExtensionError(
            [f"assembled only {len(spokes)} of {n} spokes; hypotheses too tight"])
    w = FanWitness(v, spokes[:n])
    validate_fan_witness(inst.host, w, n)
    return w


def find_extension_matching(inst: FanExtensionInstance, case: str, v: int) -> Matching:
    """Convenience search for a candidate M: maximum matching of the allowed edges."""
    nv_z, cross_block = _allowed_edges(inst, case, v)
    edges = []
    for u in sorted(nv_z):
        for w in inst.host.neighbors(u):
            if w in nv_z and w > u:
                edges.append((u, w))
            elif w in cross_block:
                edges.append((u, w))
    allowed = Graph(inst.host.n, edges)
    return max_matching(allowed)


# ---------------------------------------------------------------------------
# High-degree fans
# ---------------------------------------------------------------------------

def high_degree_fan(k: TwoColoring, n: int) -> tuple[str, FanWitness] | None:
    """Monochromatic F_n at the first vertex v of monochromatic degree >= 3n.

    v and its color c are the first pair, by ascending id with red before
    blue, of degree >= 3n; None when none qualifies. The fan is centred at v
    when the c-graph H on N(v) holds n disjoint edges, and otherwise lies in
    N(v) in the other color: if nu(H) = m < n, a maximum matching of H
    leaves |S| >= 3n - 2m >= n + 2 vertices exposed, a clique S in the other
    color. Each matching edge has an end with at most one H-neighbour in S
    (else s1 a b s2 augments), so some x in S misses all m such ends in H.
    Pairing them with S - x, and the rest of S - x among themselves, gives
    m + floor((3n - 3m - 1)/2) >= n disjoint other-color edges among x's
    other-color neighbours. No fan there means the lemma failed: RuntimeError.
    """
    if _int("n", n) < 1:
        raise ValueError("fan size must be positive")
    first = next(((v, color) for v in range(k.n) for color in COLORS
                  if k.degree(v, color) >= 3 * n), None)
    if first is None:
        return None
    v, color = first
    w = _blossom_fan(k.graph(color), v, n)
    if w is not None:
        validate_fan_witness(k.graph(color), w, n)
        return color, w
    other = opposite(color)
    osub, omapping = induced(k.graph(other), k.neighbors(v, color))
    w = find_fan(osub, n)
    if w is None:
        raise RuntimeError(f"degree-3n lemma failed at vertex {v}: no {other} "
                           f"F_{n} inside its {color} neighbourhood")
    mapped = FanWitness(omapping[w.center],
                        [(omapping[a], omapping[b]) for a, b in w.spokes])
    validate_fan_witness(k.graph(other), mapped, n)
    return other, mapped

"""Exhaustive reference routines the tests compare the library against.

Each one is small, slow and obviously correct, and the exhaustive ones
refuse instances past their vertex guard. The library never calls them.
"""

from bisect import bisect_left
from collections.abc import Iterator
from functools import lru_cache

from fanramsey import (
    ConstructionParams,
    DegreePairSpec,
    FanWitness,
    Graph,
    IntervalRealizationParams,
    Matching,
    MultipartiteSpec,
    SizeGuardError,
    induced,
    max_matching,
    opposite,
    realize_interval,
    validate_fan_witness,
)
from fanramsey import fans
from fanramsey.ramsey import _fan_through, _nu_at_least

BRUTE_VERTEX_GUARD = 24
CYCLE_VERTEX_GUARD = 12
SEARCH_VERTEX_GUARD = 11


def validate_graph(g: Graph) -> None:
    """Assert adjacency symmetry, loop-freeness, and id range."""
    for v in range(g.n):
        for u in g.neighbors(v):
            if not 0 <= u < g.n:
                raise AssertionError(f"neighbor {u} of {v} out of range")
            if u == v:
                raise AssertionError(f"self-loop at {v}")
            if v not in g.neighbor_set(u):
                raise AssertionError(f"asymmetric edge ({v}, {u})")


def _isolate(g: Graph, v: int) -> Graph:
    """g with the edges at v removed: the same ids, v isolated. Its cold
    matching, max_matching(_isolate(g, v)), is the reference for the
    G - v that edmonds_gallai matches from M.

    Only v's row and its neighbours' rows are copied; the rest are shared.
    A graph on masks alone gains its rows.
    """
    rows = list(g._sorted)
    for u in rows[v]:
        row = rows[u]
        i = bisect_left(row, v)
        rows[u] = row[:i] + row[i + 1:]
    rows[v] = ()
    return Graph._from_rows(tuple(rows))


def brute_matching(g: Graph) -> Matching:
    """Maximum matching by bitmask DP; guard keeps the state space honest."""
    if g.n > BRUTE_VERTEX_GUARD:
        raise SizeGuardError(f"brute_matching limited to {BRUTE_VERTEX_GUARD} vertices, got {g.n}")
    adj = g.bits

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        result = best(mask & ~(1 << v))
        avail = adj[v] & mask
        while avail:
            u = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            result = max(result, 1 + best(mask & ~(1 << v) & ~(1 << u)))
        return result

    edges: list[tuple[int, int]] = []
    mask = (1 << g.n) - 1
    while mask:
        v = (mask & -mask).bit_length() - 1
        target = best(mask)
        if best(mask & ~(1 << v)) == target:
            mask &= ~(1 << v)
            continue
        avail = adj[v] & mask
        while avail:
            u = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            if 1 + best(mask & ~(1 << v) & ~(1 << u)) == target:
                edges.append((v, u))
                mask &= ~(1 << v) & ~(1 << u)
                break
    best.cache_clear()
    return Matching(edges)


def enumerate_maximum_matchings(g: Graph) -> list[Matching]:
    """All maximum matchings, by branching on the lowest undecided vertex."""
    if g.n > 16:
        raise SizeGuardError(f"enumeration limited to 16 vertices, got {g.n}")
    target = brute_matching(g).size
    adj = g.bits
    out: list[Matching] = []

    def rec(mask: int, acc: list[tuple[int, int]]) -> None:
        if len(acc) + bin(mask).count("1") // 2 < target:
            return
        if mask == 0:
            if len(acc) == target:
                out.append(Matching(acc))
            return
        v = (mask & -mask).bit_length() - 1
        rec(mask & ~(1 << v), acc)
        avail = adj[v] & mask
        while avail:
            u = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            acc.append((v, u))
            rec(mask & ~(1 << v) & ~(1 << u), acc)
            acc.pop()

    rec((1 << g.n) - 1, [])
    return sorted(out, key=lambda m: m.edges)


def konig_cover_from(g: Graph, left: frozenset[int], m: Matching) -> frozenset[int]:
    """Vertex cover of bipartite g read off the given maximum matching m.

    Alternating reachability from the left vertices m leaves unmatched: the
    cover is (L minus reached) union (R intersect reached).
    """
    mate = {}
    for u, v in m.edges:
        mate[u] = v
        mate[v] = u
    reached = {v for v in left if v not in mate}
    stack = list(reached)
    while stack:
        v = stack.pop()
        if v in left:
            step = [u for u in g.neighbors(v) if mate.get(v) != u]
        else:
            step = [mate[v]] if v in mate else []
        for u in step:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    right = frozenset(range(g.n)) - left
    return frozenset((left - reached) | (right & reached))


def cycle_oracle(g: Graph, length: int) -> bool:
    """Exhaustive test for a cycle of the given length."""
    if g.n > CYCLE_VERTEX_GUARD:
        raise SizeGuardError(f"cycle oracle limited to {CYCLE_VERTEX_GUARD} vertices, got {g.n}")
    if length < 3 or length > g.n:
        return False

    def dfs(start: int, v: int, depth: int, visited: set[int]) -> bool:
        if depth == length:
            return g.has_edge(v, start)
        for u in g.neighbors(v):
            if u > start and u not in visited:
                visited.add(u)
                if dfs(start, u, depth + 1, visited):
                    return True
                visited.remove(u)
        return False

    for start in range(g.n):
        if dfs(start, start, 1, {start}):
            return True
    return False


def violates(adj: list[int], i: int, j: int, target: tuple[str, int]) -> bool:
    """Whether a target goes through the edge (i, j) of the adjacency masks,
    from the matching numbers of the whole neighbourhoods of i, j and their
    common neighbours."""
    kind, size = target
    if kind == "star":
        return adj[i].bit_count() >= size or adj[j].bit_count() >= size
    if _nu_at_least(adj[i], adj, size) or _nu_at_least(adj[j], adj, size):
        return True
    common = adj[i] & adj[j]
    while common:
        c = (common & -common).bit_length() - 1
        if _nu_at_least(adj[c], adj, size):
            return True
        common &= common - 1
    return False


def vertex_zero_search(blue_t: tuple[str, int], red_t: tuple[str, int], n: int,
                       ticks: Iterator) -> bool:
    """ramsey._search before the lex-leader row rule: the same edge order,
    branch order and target tests, with the vertex-0 rule as the only
    symmetry break (edge (i, 0), i > 1, is blue only if (i - 1, 0) is).
    True iff some 2-coloring of K_n avoids both targets; each node takes
    one item of ticks."""
    if n > SEARCH_VERTEX_GUARD:
        raise SizeGuardError(f"vertex_zero_search limited to {SEARCH_VERTEX_GUARD} vertices, got {n}")
    order = [(i, j) for i in range(1, n) for j in range(i)]
    blue, red, end = [0] * n, [0] * n, len(order)
    tick = ticks.__next__

    def limits(kind: str, size: int) -> tuple[int, int]:
        # (degree limit, fan size): see ramsey._search
        if kind == "star":
            return size - 1, 0
        return n, size if n > 2 * size else 0

    blue_limit, blue_fan = limits(*blue_t)
    red_limit, red_fan = limits(*red_t)

    def place(adj: list[int], limit: int, fan: int, i: int, j: int, idx: int) -> bool:
        if not fan and (adj[i].bit_count() >= limit or adj[j].bit_count() >= limit):
            return False
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        if not (fan and _fan_through(adj, i, j, fan)) and extend(idx + 1):
            return True
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
        return False

    def extend(idx: int) -> bool:
        tick()
        if idx == end:
            return True
        i, j = order[idx]
        if (j > 0 or i == 1 or blue[i - 1] & 1) and place(blue, blue_limit, blue_fan, i, j, idx):
            return True
        return place(red, red_limit, red_fan, i, j, idx)

    return extend(0)


def find_fan_every_center(g: Graph, k: int) -> FanWitness | None:
    """find_fan without the twin rule: _fan_at at every center of degree
    >= 2k, in descending degree order with ascending ids on ties; the first
    witness, validated, or None."""
    deg = g.degrees()
    for v in sorted(range(g.n), key=lambda v: -deg[v]):
        if deg[v] < 2 * k:
            break
        w = fans._fan_at(g, v, k)
        if w is not None:
            validate_fan_witness(g, w, k)
            return w
    return None


def blossom_fan_by_relabelling(g: Graph, v: int, k: int) -> FanWitness | None:
    """fans._blossom_fan on the relabelled copy of G[N(v)] at every hood
    size: induced, max_matching, and the first k edges mapped back."""
    sub, mapping = induced(g, g.neighbors(v))
    mm = max_matching(sub)
    if mm.size < k:
        return None
    return FanWitness(v, [(mapping[a], mapping[b]) for a, b in mm.edges[:k]])


def component_bound_by_vertex(g: Graph, v: int) -> int:
    """fans._component_bound grown one vertex at a time: each BFS layer is
    walked vertex by vertex on the rows of G[N(v)], and the component is
    not bipartite once some vertex has a neighbour in its own layer."""
    hood = g.neighbors(v)
    hood_mask = g.bits[v]
    local = {u: g.bits[u] & hood_mask for u in hood}
    seen = 0
    bound = 0
    for s in hood:
        if seen >> s & 1 or not local[s]:
            continue
        comp = frontier = 1 << s
        counts = [0, 0]
        parity = 0
        bipartite = True
        while frontier:
            counts[parity] += frontier.bit_count()
            reach = 0
            rest = frontier
            while rest:
                low = rest & -rest
                nb = local[low.bit_length() - 1]
                bipartite = bipartite and not nb & frontier
                reach |= nb
                rest ^= low
            frontier = reach & ~comp
            comp |= frontier
            parity ^= 1
        seen |= comp
        bound += min(counts) if bipartite else (counts[0] + counts[1]) // 2
    return bound


def greedy_degree_cover(g: Graph, v: int, k: int) -> list[int]:
    """The vertex cover that fans._fan_at once tried before its blossom
    step: vertices of G[N(v)] of most remaining degree (the smallest id on
    ties) until no edge is left or k are picked. A result of fewer than k
    vertices covers every edge of G[N(v)], so G[N(v)] holds no k-edge
    matching."""
    hood_mask = g.bits[v]
    local = {u: g.bits[u] & hood_mask for u in g.neighbors(v)}
    deg = {u: nb.bit_count() for u, nb in local.items() if nb}
    alive = hood_mask
    cover = []
    while deg and len(cover) < k:
        u = max(deg, key=deg.__getitem__)
        del deg[u]
        alive ^= 1 << u
        rest = local[u] & alive
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            deg[y] -= 1
            if not deg[y]:
                del deg[y]
            rest ^= low
        cover.append(u)
    return cover


# The builders below list every edge pair by pair, as the library did
# before it built rows from blocks; Graph(n, edges) of their output must
# equal the library's graph.

def cross_color_by_pairs(k, partition, color: str) -> bool:
    """eg_neighborhood_structure's cross-colour flag, one color_of per pair:
    every pair of vertices in different D_i / C blocks has the other colour."""
    other = opposite(color)
    blocks = [*partition.D, partition.C]
    return all(k.color_of(x, y) == other
               for i, di in enumerate(partition.D) for block in blocks[i + 1:]
               for x in di for y in block)


def star_fan_red_edges(m: int, n: int, window: int | None = None) -> tuple[int, list]:
    """Order and red edges of the 4-block star-fan coloring: X1-X2, X1-Y2
    and X2-Y1 complete, and each partial edge (i, a + j) as X1[i]-Y1[j]
    and X2[i]-Y2[j]."""
    params = ConstructionParams(m, n)
    a, b = params.a, params.b
    partial = realize_interval(IntervalRealizationParams(
        a, b, n - 1 - b, n - 1, params.sigma if window is None else window))
    x1, x2, y1, y2 = params.x1, params.x2, params.y1, params.y2
    edges = [(u, w) for u in x1 for w in x2]
    edges += [(u, w) for u in x1 for w in y2]
    edges += [(u, w) for u in x2 for w in y1]
    for u, w in partial.edges():
        i, j = (u, w - a) if u < a else (w, u - a)
        edges.append((x1[i], y1[j]))
        edges.append((x2[i], y2[j]))
    return params.N, edges


def turan_bipartite_edges(n: int, k: int) -> list[tuple[int, int]]:
    """Edges of turan_lower(n, k) for 4k <= n: K_{n//2, n - n//2} with a
    (k-1)-clique on 0..k-2 and one on k-1..2k-3."""
    half = n // 2
    edges = [(u, w) for u in range(half) for w in range(half, n)]
    for base in (0, k - 1):
        edges += [(u, w) for w in range(base + 1, base + k - 1) for u in range(base, w)]
    return edges


def multipartite_edges(spec: MultipartiteSpec) -> list[tuple[int, int]]:
    """Edges of the complete multipartite graph, parts in spec order."""
    ranges = spec.part_ranges()
    edges = []
    for i, ri in enumerate(ranges):
        for rj in ranges[i + 1:]:
            edges.extend((u, v) for u in ri for v in rj)
    return edges


def bigraphic_edges(spec: DegreePairSpec) -> list[tuple[int, int]]:
    """realize_bigraphic's greedy with partners ordered by the tuple key
    (-need_y[j], j); the spec must be bigraphic."""
    a, b = spec.a, spec.b
    need_y = list(spec.ys)
    edges = []
    for u, want in sorted(enumerate(spec.xs), key=lambda e: (-e[1], e[0])):
        if want == 0:
            break
        for j in sorted(range(b), key=lambda j: (-need_y[j], j))[:want]:
            need_y[j] -= 1
            edges.append((u, a + j))
    return edges

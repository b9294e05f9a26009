"""Output checks that do not trust the library under test.

Every check here works from the raw inputs the benchmark generated (edge
lists, graph6 text it encoded itself) or from files the library wrote, and
re-derives the claim with its own code. A check raises CheckFailed with a
reason; returning means the output holds.
"""

from __future__ import annotations

from math import isqrt


class CheckFailed(Exception):
    """An output failed the benchmark's independent check."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def parse_edgelist(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Read the '# n=K' edge-list format the library writes."""
    n = None
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n=") and n is None:
                n = int(body[2:])
            continue
        u, v = line.split()
        edges.append((int(u), int(v)))
    require(n is not None, "edge list has no '# n=' header")
    return n, edges


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def block_sizes(m: int, n: int) -> tuple[int, int]:
    """Block sizes a, b of the star-fan coloring from their isqrt closed form."""
    disc = m * m + 8 * n * n
    s = isqrt(disc)
    a = (m - 2 * n + s) // 2 - 1
    exact = 0 if s * s == disc else 1
    b = (4 * n + m - s - exact) // 4 - 1
    return a, b


def star_fan_order(m: int, n: int) -> int:
    """N = 2a + 2b."""
    a, b = block_sizes(m, n)
    return 2 * a + 2 * b


def check_star_fan_file(text: str, m: int, n: int) -> None:
    """No blue K_{1,m}, red minimum degree N - m, and the closed-form N."""
    order, edges = parse_edgelist(text)
    require(order == star_fan_order(m, n),
            f"N = {order}, closed form gives {star_fan_order(m, n)}")
    red = [0] * order
    seen = set()
    for u, v in edges:
        require(0 <= u < order and 0 <= v < order and u != v, f"bad edge ({u}, {v})")
        key = (min(u, v), max(u, v))
        require(key not in seen, f"duplicate edge {key}")
        seen.add(key)
        red[u] += 1
        red[v] += 1
    max_blue = max(order - 1 - d for d in red)
    require(max_blue <= m - 1, f"blue degree {max_blue} > m - 1 = {m - 1}")
    require(min(red) >= order - m, f"red degree {min(red)} < N - m = {order - m}")


def check_fan(adj: list[set[int]], center: int, spokes, k: int) -> None:
    """A fan F_k: k disjoint adjacent pairs, all joined to the center."""
    spokes = [tuple(e) for e in spokes]
    require(len(spokes) == k, f"{len(spokes)} spokes, expected {k}")
    vertices = [center] + [x for e in spokes for x in e]
    require(len(set(vertices)) == len(vertices), "fan vertices repeat")
    require(all(0 <= x < len(adj) for x in vertices), "fan vertex out of range")
    for u, v in spokes:
        require(v in adj[u], f"spoke ({u}, {v}) is not an edge")
        require(u in adj[center] and v in adj[center],
                f"center {center} misses spoke ({u}, {v})")


def fan_free_bound(adj: list[set[int]], k: int) -> None:
    """Certify that no vertex neighbourhood holds k disjoint edges.

    Per component of each neighbourhood, the matching number is at most
    half its order and at most the size of any vertex cover; a greedy cover
    supplies the latter. Vertex sets are int bitmasks.
    """
    masks = [sum(1 << u for u in nb) for nb in adj]
    for v, hood in enumerate(masks):
        if hood.bit_count() < 2 * k:
            continue
        local = {u: masks[u] & hood for u in _bits(hood)}
        comps = []
        pool = hood
        while pool:
            comp = frontier = pool & -pool
            while frontier:
                reach = 0
                for u in _bits(frontier):
                    reach |= local[u]
                frontier = reach & ~comp
                comp |= frontier
            pool &= ~comp
            comps.append((comp.bit_count() // 2, comp))
        bound = sum(half for half, _ in comps)
        for half, comp in sorted(comps, reverse=True):
            if bound < k:
                break
            bound -= half - _cover_size(local, comp, half)
        require(bound < k, f"no certificate that N({v}) lacks {k} disjoint edges")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cover_size(local: dict[int, int], comp: int, cap: int) -> int:
    """Size of a vertex cover of comp taken greedily by degree, at most cap.

    A vertex joins the cover when it still has a neighbour outside it, so
    every edge ends up with an endpoint inside.
    """
    cover = 0
    size = 0
    for u in sorted(_bits(comp), key=lambda x: -local[x].bit_count()):
        if local[u] & ~cover:
            cover |= 1 << u
            size += 1
            if size >= cap:
                return cap
    return size


def check_turan(n: int, k: int, edges) -> None:
    """The F_k-free graph of the 4k <= n regime: K_{n/2,n/2} plus two K_{k-1}."""
    half = n // 2
    expect = half * (n - half) + (k - 1) * (k - 2)
    require(len(edges) == expect, f"{len(edges)} edges, expected {expect}")
    fan_free_bound(adjacency(n, edges), k)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def check_matching(adj: list[set[int]], pairs) -> None:
    seen: set[int] = set()
    for u, v in pairs:
        require(v in adj[u], f"matching pair ({u}, {v}) is not an edge")
        require(u not in seen and v not in seen, f"matching pair ({u}, {v}) shares a vertex")
        seen.update((u, v))


def check_partition(vertices, a, c, ds, deficiency: int, nu: int) -> None:
    """Gallai-Edmonds sets partition V, odd D_i, deficiency = p - |A|."""
    vertices = set(vertices)
    blocks = [set(a), set(c)] + [set(d) for d in ds]
    union: set[int] = set()
    for block in blocks:
        require(not (union & block), "Gallai-Edmonds sets overlap")
        union |= block
    require(union == vertices, "Gallai-Edmonds sets do not cover V")
    require(all(len(d) % 2 == 1 for d in ds), "a D_i has even order")
    require(deficiency == len(ds) - len(a),
            f"deficiency {deficiency} != p - |A| = {len(ds) - len(a)}")
    require(len(vertices) - 2 * nu == deficiency,
            f"deficiency {deficiency} != |V| - 2 nu = {len(vertices) - 2 * nu}")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def expected_ramsey(blue, red, cap: int, table: dict[str, int | None]) -> int | None:
    """Value a search capped at `cap` must return; None means '>= cap + 1'.

    Star-star pairs follow Burr-Roberts, star-fan pairs the closed form
    where it is exact, and the rest the recorded table.
    """
    (bk, bs), (rk, rs) = blue, red
    if bk == rk == "star":
        value = bs + rs - (1 if bs % 2 == 0 and rs % 2 == 0 else 0)
    elif {bk, rk} == {"star", "fan"}:
        m, n = (bs, rs) if bk == "star" else (rs, bs)
        if m <= n:
            value = m + 2 * n - (1 if m % 2 == 0 else 0)
        elif m >= n * (n - 1):
            value = 2 * m + 1
        else:
            return table[f"{bk}{bs}-{rk}{rs}"]
    else:
        return table[f"{bk}{bs}-{rk}{rs}"]
    return value if value <= cap else None

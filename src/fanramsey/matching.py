"""Maximum matchings, deficiency, Konig covers, and Edmonds-Gallai structure.

Every algorithm scans vertices and neighbors in ascending id order so that
returned witnesses are reproducible. The tests check the fast paths against
exhaustive oracles kept in tests/oracles.py.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Sequence

from .graphs import BLUE, Graph, TwoColoring, _ids, _int, _members, induced


def _sorted_pairs(pairs: Iterable[tuple[int, int]],
                  what: str) -> tuple[tuple[int, int], ...]:
    """Each pair as (min, max), in sorted order; a ValueError names the first
    id that is not an int (a bool included), where the sort would raise a
    TypeError or order True as 1."""
    pairs = [(u, v) for u, v in pairs]
    for x in chain.from_iterable(pairs):
        if type(x) is not int:
            raise ValueError(f"{what} vertex {x!r} is not an int")
    return tuple(sorted((min(u, v), max(u, v)) for u, v in pairs))


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, normalized and sorted."""

    edges: tuple[tuple[int, int], ...]

    def __init__(self, edges: Iterable[tuple[int, int]]):
        object.__setattr__(self, "edges", _sorted_pairs(edges, "matching"))

    @classmethod
    def _from_mates(cls, match: Sequence[int]) -> "Matching":
        """Matching of a mate list: match[v] is v's mate, or -1. Its pairs
        (v, u) with v < u, in ascending v, are normalized and sorted already."""
        m = cls.__new__(cls)
        object.__setattr__(m, "edges", tuple([(v, u) for v, u in enumerate(match) if u > v]))
        return m

    def _less(self, u: int, v: int) -> "Matching":
        """This matching without its edge uv: the edge is found by bisection
        in the sorted edges and sliced out, so the pairs stay sorted."""
        i = bisect_left(self.edges, (u, v) if u < v else (v, u))
        m = Matching.__new__(Matching)
        object.__setattr__(m, "edges", self.edges[:i] + self.edges[i + 1:])
        return m

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def validate(self, g: Graph) -> None:
        seen: set[int] = set()
        for u, v in self.edges:
            if not g.has_edge(u, v):
                raise ValueError(f"matching edge ({u}, {v}) not in graph")
            if u in seen or v in seen:
                raise ValueError(f"matching edge ({u}, {v}) shares a vertex")
            seen.add(u)
            seen.add(v)


@dataclass(frozen=True)
class VertexCover:
    """Vertex set covering every edge of a host bipartite graph."""

    vertices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class EGPartition:
    """Edmonds-Gallai sets: A (cut), C (even side), D_1..D_p (odd components)."""

    A: frozenset[int]
    C: frozenset[int]
    D: tuple[frozenset[int], ...]
    p: int
    deficiency: int
    nu: int

    def to_json_dict(self) -> dict:
        return {
            "A": sorted(self.A),
            "C": sorted(self.C),
            "D": [sorted(d) for d in self.D],
            "p": self.p,
            "deficiency": self.deficiency,
            "nu": self.nu,
        }


# ---------------------------------------------------------------------------
# Maximum matching (blossom contraction)
# ---------------------------------------------------------------------------

def _find_augmenting_path(rows: Sequence[tuple[int, ...]], match: list[int],
                          parent: list[int], root: int, dead: list[bool],
                          used: list[bool], base: list[int], queue: list[int],
                          odd: list[int]) -> int:
    """BFS for an augmenting path from root, contracting blossoms via base[].

    ``members`` maps a blossom's base to the int mask of the vertices with
    that base; a base missing from it is a single vertex. A contraction
    walks the mask of the vertices that join the blossom, in the ascending
    order a scan over all n would visit them, and touches no others.
    Returns the free endpoint of the path, or -1 when none exists.

    The caller owns ``used``, ``parent`` and ``base`` and hands them over
    clear (False, -1 and the identity), with ``queue`` and ``odd`` empty.
    The search appends to ``queue`` every vertex it marks used, and to
    ``odd`` every vertex it gives a parent outside a contraction; it
    changes the three lists only at those vertices, so the caller clears
    them again in time proportional to the tree, not to n.

    The search skips every neighbour marked in ``dead``. When it fails, it
    marks its whole tree dead: every vertex it enqueued, and their mates.
    Such a Hungarian tree lies on no augmenting path for as long as the
    matching outside it changes only by augmentation (Edmonds 1965): the
    even vertices of the dead trees have no neighbour outside them, so a
    later search could enter them only through an odd vertex and would
    never leave them again. Exploring them would label no live vertex and
    change no live base, so skipping them returns the same path.
    """
    members: dict[int, int] = {}
    used[root] = True
    # a list, not a deque, so the tree is still there when the search fails;
    # iterating a list while appending to it visits the appended items too
    queue.append(root)

    def lca(a: int, b: int) -> int:
        on_path = set()
        x = a
        while True:
            x = base[x]
            on_path.add(x)
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if y in on_path:
                return y
            y = parent[match[y]]

    def mark_path(v: int, b: int, child: int) -> int:
        """Set parents along the path from v up to base b; return the mask
        of every vertex whose blossom the path passes through."""
        mask = 0
        while base[v] != b:
            mv = match[v]
            mask |= members.pop(base[v], 1 << base[v]) | members.pop(base[mv], 1 << base[mv])
            parent[v] = child
            child = mv
            v = parent[mv]
        return mask

    for v in queue:
        mv = match[v]
        bv = base[v]
        for to in rows[v]:
            if dead[to] or bv == base[to] or mv == to:
                continue
            mt = match[to]
            if to == root or (mt != -1 and parent[mt] != -1):
                curbase = lca(v, to)
                # curbase's own members already carry that base and are used,
                # so only the vertices of the other blossoms need a visit
                old = members.pop(curbase, 1 << curbase)
                mask = (mark_path(v, curbase, to) | mark_path(to, curbase, v)) & ~old
                members[curbase] = old | mask
                while mask:
                    low = mask & -mask
                    mask ^= low
                    i = low.bit_length() - 1
                    base[i] = curbase
                    if not used[i]:
                        used[i] = True
                        queue.append(i)
                bv = curbase
            elif parent[to] == -1:
                parent[to] = v
                odd.append(to)
                if mt == -1:
                    return to
                used[mt] = True
                queue.append(mt)
    dead[root] = True
    for v in queue[1:]:  # every enqueued vertex but the root is matched
        dead[v] = True
        dead[match[v]] = True
    return -1


class _DecodedRows(dict):
    """The rows of a graph held as masks alone, each decoded from its mask
    the first time a search reads it."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Sequence[int]):
        super().__init__()
        self._bits = bits

    def __missing__(self, v: int) -> tuple[int, ...]:
        row = self[v] = _members(self._bits[v])
        return row


def max_matching(g: Graph, *,
                 _without: tuple[Matching, list[int], set[int], int] | None = None
                 ) -> Matching:
    """Maximum matching in a general graph, deterministic ascending-id scans.

    A greedy pass matches each vertex to its first free neighbour; then an
    augmenting path is searched from each exposed vertex that has a
    neighbour, in ascending order. The searches stop once no such vertex is
    left after the current root: a path from v must end at a later exposed
    vertex, because an earlier one whose search failed keeps having no
    augmenting path after later augmentations (Edmonds 1965). The skipped
    searches would all have failed, so the edges do not depend on the stop.
    Each failed search leaves its Hungarian tree dead for the rest of the
    call, and later searches skip it: no augmenting path passes through it,
    and exploring it changes no live label (Edmonds 1965), so the searches
    return the same paths and the edges do not depend on the pruning. With
    fewer than two exposed vertices that have a neighbour no search can
    succeed, and the call returns without one.

    A graph held as masks alone (a complement, or a dense hood from
    fans._blossom_fan) is matched on its masks and keeps no rows: the
    greedy pairs v with the lowest set bit of its mask and the free
    vertices, which is the first free id of its ascending row, and the
    searches decode a row the first time they read it. The edges are those
    of the same graph with rows.

    ``_without``, internal to edmonds_gallai and unchecked, is (M, mates,
    hubs, v): a maximum matching M of g, its mate list (mates[x] is x's
    mate or -1), hubs, the set of the neighbours of the vertices M misses,
    and a vertex v; the call leaves mates and hubs unchanged. It returns a
    maximum matching of G - v, the same ids with v's edges removed. If M
    misses v, M is a matching of G - v and nu(G - v) <= nu(G), so M itself
    is returned. If M matches v to u, an augmenting path for M - uv in
    G - v ends at u, since one that avoided u and v would augment M in G
    (Edmonds 1965; Lovasz and Plummer, Matching Theory, 1986), and at its
    other end is a vertex M misses, with a neighbour besides v. So no
    search runs when hubs holds no vertex but v, and otherwise one search
    from u on g's rows, with v dead so that it is skipped as if it had no
    edges, decides nu(G - v). With no search, or a failed one, the result
    is M less uv, sliced out of M's sorted edges; only a successful search
    builds its result from a copy of the mate list. The slice is still a
    C-level copy of M's edge tuple, and a search still allocates the
    n-entry search lists, so each matched v costs O(n) below the Python
    level, and O(n) Python work when its search runs.
    """
    if _without is not None:
        m, mates, hubs, v = _without
        u = mates[v]
        if u == -1:
            return m
        if len(hubs) == (v in hubs):  # no vertex M misses has a neighbour but v
            return m._less(u, v)
    n = g.n
    masks = g._row_cache is None
    rows = _DecodedRows(g._bits) if masks else g._row_cache
    if _without is not None:
        match = mates.copy()
        match[u] = match[v] = -1
        dead = [False] * n  # the Hungarian trees of the failed searches so far
        dead[v] = True  # and v, which the searches skip as if it had no edges
        # every augmenting path ends at u, so one search from u decides;
        # the count is u and the vertex M misses at the path's other end
        roots, left = [u], 2
    else:
        match = [-1] * n
        dead = [False] * n
        if masks:
            bits = g._bits
            free = (1 << n) - 1
            for v in range(n):
                if match[v] == -1:
                    cand = bits[v] & free
                    if cand:
                        u = (cand & -cand).bit_length() - 1
                        match[v] = u
                        match[u] = v
                        free ^= 1 << v | 1 << u
        else:
            for v in range(n):
                if match[v] == -1:
                    for u in rows[v]:
                        if match[u] == -1:
                            match[v] = u
                            match[u] = v
                            break
        # a mask is nonzero exactly when the row is non-empty
        adjacent = g._bits if masks else rows
        roots = [v for v in range(n) if match[v] == -1 and adjacent[v]]
        left = len(roots)  # exposed vertices with a neighbour, from the root on
    if left < 2:  # the loop below would break at once
        return Matching._from_mates(match)
    # search state, allocated once and cleared after each search at the
    # vertices the search touched
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    queue: list[int] = []
    odd: list[int] = []
    for root in roots:
        if match[root] != -1:
            continue
        left -= 1
        if left == 0:
            break
        end = _find_augmenting_path(rows, match, parent, root, dead, used, base, queue, odd)
        if end != -1:
            left -= 1
        while end != -1:
            prev = parent[end]
            after = match[prev]
            match[end] = prev
            match[prev] = end
            end = after
        for x in queue:
            used[x] = False
            base[x] = x
            parent[x] = -1
        for x in odd:
            parent[x] = -1
        queue.clear()
        odd.clear()
    if _without is not None and match[u] == -1:  # the search from u failed
        return m._less(u, v)
    return Matching._from_mates(match)


def matching_number(g: Graph) -> int:
    return max_matching(g).size


# ---------------------------------------------------------------------------
# Edmonds-Gallai decomposition
# ---------------------------------------------------------------------------

def _components(g: Graph, vertices: Iterable[int]) -> list[frozenset[int]]:
    """Components of G[vertices], in ascending order of their least vertex:
    each BFS starts at the least vertex not yet placed."""
    pool = set(vertices)
    comps = []
    for start in sorted(pool):
        if start not in pool:
            continue
        comp = {start}
        queue = deque([start])
        pool.remove(start)
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if u in pool:
                    pool.remove(u)
                    comp.add(u)
                    queue.append(u)
        comps.append(frozenset(comp))
    return comps


def edmonds_gallai(g: Graph) -> EGPartition:
    """Decompose via the essential-vertex characterization.

    D is the set of vertices some maximum matching misses, detected as
    nu(G - v) = nu(G); A = N(D) - D; C is the rest. The odd components
    D_1..D_p are the components of G[D]: every neighbour of a D vertex lies
    in D or A, so they are also the components of G - A that meet D.

    Each G - v is matched from the first maximum matching M, through
    max_matching's private ``_without``. If M misses v, M is maximum in
    G - v, and v is in D. If M matches v to u, an augmenting path for
    M - uv in G - v ends at u, since one that avoided u and v would augment
    M in G (Edmonds 1965; Lovasz and Plummer, Matching Theory, 1986), so
    one search from u decides nu(G - v). Its other end is a vertex M
    misses, so hubs, the neighbours of those vertices, is built once here:
    no search runs for a v when hubs holds no vertex but v, and such a
    G - v, or one whose search fails, gets M less uv as a slice of M's
    edges. Only sizes are read, and a maximum matching's size does not
    depend on where the search starts, so neither do D, A and C.
    """
    m = max_matching(g)
    nu = m.size
    mates = [-1] * g.n
    for u, w in m.edges:
        mates[u], mates[w] = w, u
    hubs = {y for x, w in enumerate(mates) if w == -1 for y in g.neighbors(x)}
    d_set = {v for v in range(g.n)
             if max_matching(g, _without=(m, mates, hubs, v)).size == nu}
    a_set = frozenset(u for v in d_set for u in g.neighbors(v)) - d_set
    d_comps = tuple(_components(g, d_set))
    return EGPartition(
        A=a_set,
        C=frozenset(range(g.n)) - d_set - a_set,
        D=d_comps,
        p=len(d_comps),
        deficiency=g.n - 2 * nu,
        nu=nu,
    )


# ---------------------------------------------------------------------------
# Konig cover
# ---------------------------------------------------------------------------

def konig_cover(g: Graph, sides: tuple[Iterable[int], Iterable[int]]) -> VertexCover:
    """Minimum vertex cover of a bipartite graph, from a maximum matching.

    Alternating reachability from the unmatched left vertices: the cover is
    (L minus reached) union (R intersect reached), and it meets every
    matching edge exactly once. The reached set is the same for every
    maximum matching (Dulmage-Mendelsohn), so the cover does not depend on
    which one max_matching returns.
    """
    left = frozenset(_ids(sides[0]))
    right = frozenset(_ids(sides[1]))
    if left & right or left | right != frozenset(range(g.n)):
        raise ValueError("sides must partition the vertex set")
    for u, v in g.edges():
        if (u in left) == (v in left):
            raise ValueError(f"edge ({u}, {v}) does not cross the bipartition")
    m = max_matching(g)
    mate = {}
    for u, v in m.edges:
        mate[u] = v
        mate[v] = u
    reached = {v for v in sorted(left) if v not in mate}
    queue = deque(sorted(reached))
    while queue:
        v = queue.popleft()
        if v in left:
            for u in g.neighbors(v):
                if u not in reached and mate.get(v) != u:
                    reached.add(u)
                    queue.append(u)
        else:
            u = mate.get(v)
            if u is not None and u not in reached:
                reached.add(u)
                queue.append(u)
    cover = frozenset((left - reached) | (right & reached))

    if len(cover) != m.size:
        raise AssertionError("cover size differs from matching size")
    for u, v in g.edges():
        if u not in cover and v not in cover:
            raise AssertionError(f"edge ({u}, {v}) uncovered")
    for u, v in m.edges:
        if (u in cover) + (v in cover) != 1:
            raise AssertionError(f"matching edge ({u}, {v}) not covered exactly once")
    return VertexCover(cover)


# ---------------------------------------------------------------------------
# Neighborhood structure in a coloring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EGNeighborhoodReport:
    """Edmonds-Gallai view of one color class inside a colored neighborhood.

    ``applicable`` is False when the matching inside the neighborhood is
    already large enough to finish a fan, in which case only ``nu`` is
    meaningful. The partition sets carry original vertex ids.
    """

    vertex: int
    color: str
    n: int
    neighborhood: tuple[int, ...]
    nu: int
    applicable: bool
    window_ok: bool
    partition: EGPartition | None = None
    identity_ok: bool | None = None
    component_bound_ok: bool | None = None
    cross_color_ok: bool | None = None

    def to_json_dict(self) -> dict:
        data = {
            "vertex": self.vertex,
            "color": self.color,
            "n": self.n,
            "neighborhood_size": len(self.neighborhood),
            "nu": self.nu,
            "applicable": self.applicable,
            "window_ok": self.window_ok,
        }
        if self.partition is not None:
            data["partition"] = self.partition.to_json_dict()
            data["identity_ok"] = self.identity_ok
            data["component_bound_ok"] = self.component_bound_ok
            data["cross_color_ok"] = self.cross_color_ok
        return data


def eg_neighborhood_structure(k: TwoColoring, v: int, color: str, n: int) -> EGNeighborhoodReport:
    """Decompose G_color restricted to N_color(v) and check the structure facts.

    The hard gate is nu <= n-1; a larger matching makes the report
    inapplicable (that is data, not an error). The order window
    2n <= |N_color(v)| < 3n of the neighborhood the theorem is applied to
    is reported informationally as window_ok.
    """
    if _int("n", n) < 1:
        raise ValueError("n must be positive")
    hood = k.neighbors(v, color)
    window_ok = 2 * n <= len(hood) < 3 * n
    sub, mapping = induced(k.graph(color), hood)
    nu = max_matching(sub).size
    if nu > n - 1:
        return EGNeighborhoodReport(
            vertex=v, color=color, n=n, neighborhood=hood, nu=nu,
            applicable=False, window_ok=window_ok,
        )
    local = edmonds_gallai(sub)
    # mapping is increasing, so the D_i keep their order by least vertex
    relabel = lambda s: frozenset(mapping[i] for i in s)
    partition = replace(local, A=relabel(local.A), C=relabel(local.C),
                        D=tuple(map(relabel, local.D)))
    half = sum(len(d) - 1 for d in partition.D) + len(partition.C)
    identity_ok = 2 * len(partition.A) + half == 2 * nu
    component_bound_ok = partition.p >= len(partition.A) + len(hood) - (2 * n - 2)
    # every pair across blocks has the other colour: x's red row holds all
    # of each later block when the hood is blue and none of it when red
    red = k.red.bits
    masks = [sum(map((1).__lshift__, block)) for block in (*partition.D, partition.C)]
    full = color == BLUE
    cross_color_ok = all(red[x] & mask == (mask if full else 0)
                         for i, di in enumerate(partition.D)
                         for mask in masks[i + 1:] for x in di)
    return EGNeighborhoodReport(
        vertex=v, color=color, n=n, neighborhood=hood, nu=nu,
        applicable=True, window_ok=window_ok, partition=partition,
        identity_ok=identity_ok, component_bound_ok=component_bound_ok,
        cross_color_ok=cross_color_ok,
    )

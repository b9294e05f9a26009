"""Bigraphic testing and degree-constrained bipartite realization.

is_bigraphic implements the classical two-sided degree sequence test;
realize_bigraphic builds a witness greedily; realize_interval produces the
near-regular bipartite graphs whose A-side degrees sit in [c-sigma, c] and
B-side degrees in [d-sigma, d], following the two proof cases of the
quotient/remainder split ac - bd = qa + r (or bd - ac = qb + r).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, _int, _is_int


@dataclass(frozen=True)
class DegreePairSpec:
    """Requested degrees for the two sides of a bipartite graph."""

    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def __init__(self, xs: Sequence[int], ys: Sequence[int]):
        xs, ys = tuple(xs), tuple(ys)
        for name, side in (("xs", xs), ("ys", ys)):
            if not all(map(_is_int, side)):
                raise ValueError(f"{name} must hold ints, got {side!r}")
        if any(x < 0 for x in xs) or any(y < 0 for y in ys):
            raise ValueError("degrees must be non-negative")
        if not xs or not ys:
            raise ValueError("both sides need at least one vertex")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def a(self) -> int:
        return len(self.xs)

    @property
    def b(self) -> int:
        return len(self.ys)


@dataclass(frozen=True)
class BigraphicCheck:
    """Outcome of the bigraphic test with a certificate on failure.

    failing_k is the smallest violated prefix length (xs sorted descending);
    a sum mismatch is reported through the two totals instead.
    """

    ok: bool
    x_total: int
    y_total: int
    failing_k: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    @property
    def reason(self) -> str | None:
        if self.ok:
            return None
        if self.x_total != self.y_total:
            return f"sum mismatch: {self.x_total} != {self.y_total}"
        return f"prefix k={self.failing_k} violates the dominance condition"


@dataclass(frozen=True)
class IntervalRealizationParams:
    """Parameters (a, b, c, d, sigma) of the interval realization.

    The window -sigma*b <= ac - bd <= sigma*a is required up front; the
    per-case feasibility condition (d <= a when ac >= bd, c <= b otherwise)
    is checked by realize_interval because only the active proof case
    needs it.
    """

    a: int
    b: int
    c: int
    d: int
    sigma: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "sigma"):
            _int(name, getattr(self, name))
        if self.a < 1 or self.b < 1:
            raise ValueError("part sizes a, b must be positive")
        if self.c < 0 or self.d < 0 or self.sigma < 0:
            raise ValueError("c, d, sigma must be non-negative")
        gap = self.a * self.c - self.b * self.d
        if not -self.sigma * self.b <= gap <= self.sigma * self.a:
            raise ValueError(
                f"ac - bd = {gap} outside [-sigma*b, sigma*a] = "
                f"[{-self.sigma * self.b}, {self.sigma * self.a}]"
            )


def is_bigraphic(spec: DegreePairSpec) -> BigraphicCheck:
    """Test whether the pair of sequences has a bipartite realization.

    True iff the totals agree and, with xs sorted descending, every prefix
    satisfies sum_{i<=k} x_i <= sum_j min(y_j, k).
    """
    x_total = sum(spec.xs)
    y_total = sum(spec.ys)
    if x_total != y_total:
        return BigraphicCheck(False, x_total, y_total)
    xs = sorted(spec.xs, reverse=True)
    prefix = 0
    for k in range(1, spec.a + 1):
        prefix += xs[k - 1]
        capped = sum(min(y, k) for y in spec.ys)
        if prefix > capped:
            return BigraphicCheck(False, x_total, y_total, failing_k=k)
    return BigraphicCheck(True, x_total, y_total)


def realize_bigraphic(spec: DegreePairSpec) -> tuple[Graph, tuple[frozenset[int], frozenset[int]]]:
    """Build a bipartite graph with the requested degrees on both sides.

    X occupies ids 0..a-1 and Y occupies a..a+b-1. Greedy Havel-Hakimi
    order: the largest remaining x-degree is satisfied against the largest
    remaining y-degrees, ties broken by lowest vertex id.
    """
    check = is_bigraphic(spec)
    if not check.ok:
        raise ValueError(f"not bigraphic: {check.reason}")
    a, b = spec.a, spec.b
    need_y = list(spec.ys)
    edges = []
    # an x-degree changes only when its vertex is processed: one sort orders X
    for u, want in sorted(enumerate(spec.xs), key=lambda e: (-e[1], e[0])):
        if want == 0:
            break
        # a stable sort: equal needs stay in ascending j
        partners = sorted(range(b), key=[-y for y in need_y].__getitem__)[:want]
        if need_y[partners[-1]] <= 0:
            raise AssertionError("greedy realization ran out of capacity")
        for j in partners:
            need_y[j] -= 1
            edges.append((u, a + j))
    if any(need_y):
        raise AssertionError("greedy realization left unmet y-degrees")
    g = Graph(a + b, edges)
    for i in range(a):
        if g.degree(i) != spec.xs[i]:
            raise AssertionError(f"x-vertex {i} degree {g.degree(i)} != {spec.xs[i]}")
    for j in range(b):
        if g.degree(a + j) != spec.ys[j]:
            raise AssertionError(f"y-vertex {j} degree {g.degree(a + j)} != {spec.ys[j]}")
    return g, (frozenset(range(a)), frozenset(range(a, a + b)))


def realize_interval(p: IntervalRealizationParams) -> Graph:
    """Bipartite graph with A-degrees in [c-sigma, c] and B-degrees in [d-sigma, d].

    When ac - bd >= 0, write ac - bd = qa + r with 0 <= r < a and realize
    a-r vertices of degree c-q and r of degree c-q-1 against uniform degree
    d on the B side; the mirrored split applies when ac - bd < 0. A occupies
    ids 0..a-1, B occupies a..a+b-1.
    """
    a, b, c, d, sigma = p.a, p.b, p.c, p.d, p.sigma
    gap = a * c - b * d
    if gap >= 0:
        if d > a:
            raise ValueError(f"need d <= a to realize (d={d}, a={a})")
        q, r = divmod(gap, a)
        if q > sigma or (q == sigma and r != 0):
            raise AssertionError("quotient exceeds sigma; window check should prevent this")
        xs = [c - q] * (a - r) + [c - q - 1] * r
        ys = [d] * b
    else:
        if c > b:
            raise ValueError(f"need c <= b to realize (c={c}, b={b})")
        q, r = divmod(-gap, b)
        if q > sigma or (q == sigma and r != 0):
            raise AssertionError("quotient exceeds sigma; window check should prevent this")
        xs = [c] * a
        ys = [d - q] * (b - r) + [d - q - 1] * r
    g, _ = realize_bigraphic(DegreePairSpec(xs, ys))
    for i in range(a):
        if not max(0, c - sigma) <= g.degree(i) <= c:
            raise AssertionError(f"A-vertex {i} degree {g.degree(i)} outside [{c - sigma}, {c}]")
    for j in range(b):
        if not max(0, d - sigma) <= g.degree(a + j) <= d:
            raise AssertionError(f"B-vertex {j} degree {g.degree(a + j)} outside [{d - sigma}, {d}]")
    return g

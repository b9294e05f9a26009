"""Builders for the extremal colorings and fan-free graphs behind the lower bounds.

Every builder verifies its own output before returning: degree audits are
recomputed from the finished graph and fan-freeness is established by the
exact search in the fans module, never assumed from the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import isqrt, sqrt

from .bigraphic import IntervalRealizationParams, realize_interval
from .errors import UnsupportedRangeError
from .fans import find_fan
from .graphs import Graph, MultipartiteSpec, TwoColoring, _int, build_complete_multipartite


def _block_sizes(m: int, n: int) -> tuple[int, int]:
    """Integer-exact evaluation of the two floor expressions in a, b.

    With s = isqrt(D): floor((x + sqrt(D))/t) = (x + s)//t, and
    floor((x - sqrt(D))/t) = (x - s)//t when D is a perfect square,
    (x - s - 1)//t otherwise.
    """
    d_val = m * m + 8 * n * n
    s = isqrt(d_val)
    a = (m - 2 * n + s) // 2 - 1
    if s * s == d_val:
        b = (4 * n + m - s) // 4 - 1
    else:
        b = (4 * n + m - s - 1) // 4 - 1
    return a, b


@dataclass(frozen=True)
class ConstructionParams:
    """Block layout (a, b, sigma, N, X1..Y2) of the star-fan lower-bound
    coloring, derived from (m, n) alone; UnsupportedRangeError unless
    m > n >= 2 and both blocks are non-empty."""

    m: int
    n: int
    a: int = field(init=False)
    b: int = field(init=False)
    sigma: int = field(init=False)
    N: int = field(init=False)
    x1: range = field(init=False)
    x2: range = field(init=False)
    y1: range = field(init=False)
    y2: range = field(init=False)

    def __post_init__(self):
        m, n = self.m, self.n
        if not _int("m", m) > _int("n", n) >= 2:
            raise UnsupportedRangeError(f"need m > n >= 2, got m={m}, n={n}")
        a, b = _block_sizes(m, n)
        if a < 1 or b < 1:
            raise UnsupportedRangeError(
                f"degenerate block sizes a={a}, b={b} for m={m}, n={n}")
        sigma = m + n - 1 - a - 2 * b
        if not 2 <= sigma <= 4:
            raise RuntimeError(f"sigma={sigma} outside [2, 4]; derivation bug")
        big_n = 2 * a + 2 * b
        layout = {"a": a, "b": b, "sigma": sigma, "N": big_n,
                  "x1": range(0, a), "x2": range(a, 2 * a),
                  "y1": range(2 * a, 2 * a + b), "y2": range(2 * a + b, big_n)}
        for name, value in layout.items():
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m, "n": self.n, "a": self.a, "b": self.b,
            "sigma": self.sigma, "N": self.N,
            "X1": [self.x1.start, self.x1.stop],
            "X2": [self.x2.start, self.x2.stop],
            "Y1": [self.y1.start, self.y1.stop],
            "Y2": [self.y2.start, self.y2.stop],
        }


def _assemble_star_fan(m: int, n: int,
                       window: int | None = None) -> tuple[TwoColoring, ConstructionParams]:
    """The 4-block coloring for (m, n); the X_i-Y_i degree window is sigma
    unless a fixed window is given."""
    params = ConstructionParams(m, n)
    a, b, big_n = params.a, params.b, params.N
    try:
        partial = realize_interval(IntervalRealizationParams(
            a, b, n - 1 - b, n - 1, params.sigma if window is None else window))
    except ValueError as exc:
        raise RuntimeError(f"interval realization infeasible: {exc}") from exc

    # red rows from their blocks: X1-X2, X1-Y2 and X2-Y1 are complete;
    # partial row i < a (ids a..a+b-1) gives X1[i]-Y1 and X2[i]-Y2, and
    # partial row a + j (ids 0..a-1) gives Y1[j]-X1 and Y2[j]-X2
    x1, x2, y1, y2 = params.x1, params.x2, params.y1, params.y2
    rows = partial._sorted
    red = Graph._from_rows(tuple(
        [(*x2, *map(a.__add__, rows[i]), *y2) for i in x1]
        + [(*x1, *y1, *map((a + b).__add__, rows[i])) for i in x1]
        + [(*rows[j], *x2) for j in range(a, a + b)]
        + [(*x1, *map(a.__add__, rows[j])) for j in range(a, a + b)]))
    coloring = TwoColoring(big_n, red)

    if red.min_degree() < big_n - m:
        raise RuntimeError(f"red minimum degree {red.min_degree()} "
                           f"below required {big_n - m}")
    witness = find_fan(red, n)
    if witness is not None:
        raise RuntimeError(f"red fan at center {witness.center}; construction bug")
    return coloring, params


def star_fan_lower(m: int, n: int) -> tuple[TwoColoring, ConstructionParams]:
    """Coloring of K_N with no blue K_{1,m} and no red F_n, N = 2a + 2b.

    Red is complete between X1-X2, X1-Y2, X2-Y1; the partial X_i-Y_i red
    bipartite graphs come from the interval realization with window sigma.
    The range m > n >= 2 is enforced by ConstructionParams.
    """
    return _assemble_star_fan(m, n)


def star_fan_lower_special(n: int) -> tuple[TwoColoring, ConstructionParams]:
    """The m = 2n instance with the fixed degree window of width 3.

    Block sizes reduce to a = floor(sqrt(3)*n) - 1 and
    b = floor((3 - sqrt(3))*n/2) - 1; X_i-Y_i degrees land in
    [n-4-b, n-1-b] and the Y side in [n-4, n-1].
    """
    if _int("n", n) < 2:
        raise UnsupportedRangeError(f"need n >= 2, got n={n}")
    return _assemble_star_fan(2 * n, n, window=3)


def conditioned_coloring(rng: random.Random, n: int) -> TwoColoring:
    """Random coloring of K_{3n+1} forced to have a monochromatic degree >= 3n.

    Vertex 0 takes one colour to all others, so it has that degree by
    construction; every other pair is a fair coin. It feeds high_degree_fan.
    """
    big_n = 3 * n + 1
    hub_red = rng.random() < 0.5
    red_edges = []
    for u in range(big_n):
        for w in range(u + 1, big_n):
            if u == 0:
                if hub_red:
                    red_edges.append((u, w))
            elif rng.random() < 0.5:
                red_edges.append((u, w))
    return TwoColoring.from_red_edges(big_n, red_edges)


def chromatic_lower(n: int) -> TwoColoring:
    """Two disjoint red 2n-cliques with all blue edges between: no mono F_n on 4n."""
    if _int("n", n) < 1:
        raise ValueError(f"need n >= 1, got {n}")
    big_n = 4 * n
    edges = [(u, w) for base in (0, 2 * n)
             for w in range(base + 1, base + 2 * n) for u in range(base, w)]
    red = Graph(big_n, edges)
    for v in range(big_n):
        block = 0 if v < 2 * n else 1
        if red.degree(v) != 2 * n - 1:
            raise RuntimeError("red component not a 2n-clique")
        if any((u < 2 * n) != (block == 0) for u in red.neighbors(v)):
            raise RuntimeError("red edge crosses the bipartition")
    return TwoColoring(big_n, red)


def turan_lower(n: int, k: int) -> Graph:
    """Dense F_k-free graph on n vertices; the shape depends on alpha = k/n."""
    if not (1 <= _int("k", k) and 2 * k < _int("n", n)):
        raise UnsupportedRangeError(f"need 1 <= k < n/2, got k={k}, n={n}")
    if 4 * k <= n:
        # K_{half, n-half} with a (k-1)-clique on 0..k-2 and one on k-1..2k-3
        half = n // 2
        low, high = tuple(range(half)), tuple(range(half, n))
        g = Graph._from_rows(tuple(
            [(*range(base, v), *range(v + 1, base + k - 1), *high)
             for base in (0, k - 1) for v in range(base, base + k - 1)]
            + [high] * (half - 2 * k + 2) + [low] * (n - half)))
    elif 3 * k <= n:
        sizes = [s for s in (k - 1, k - 1, n - 2 * k + 2) if s > 0]
        g = build_complete_multipartite(MultipartiteSpec(sizes))
    else:
        edges = []
        for off in range(1, k):
            edges += [tuple(sorted((i, (i + off) % n))) for i in range(n)]
        edges += [(i, i + n // 2) for i in range(n // 2)]
        g = Graph(n, edges)
    if find_fan(g, k) is not None:
        raise RuntimeError("fan found in a construction that must avoid it")
    return g


def fan_turan_number(n: int, k: int) -> int:
    """Extremal edge count for F_k-free graphs: floor(n^2/4) + k^2 - k for odd k,
    floor(n^2/4) + k^2 - 3k/2 for even k (asymptotic formula, no threshold gate)."""
    if _int("n", n) < 1 or _int("k", k) < 1:
        raise ValueError("n and k must be positive")
    base = (n * n) // 4
    if k % 2 == 1:
        return base + k * k - k
    return base + k * k - (3 * k) // 2


@dataclass(frozen=True)
class DiracThreshold:
    """Evaluated minimum-degree threshold forcing F_k, with its case label."""

    case: int
    label: str
    threshold: float
    theta_unresolved: bool

    def to_json_dict(self) -> dict:
        return {"case": self.case, "label": self.label,
                "threshold": self.threshold,
                "theta_unresolved": self.theta_unresolved}


def dirac_threshold(n: int, k: int) -> DiracThreshold:
    """Three-regime degree threshold; the middle case carries an unresolved
    additive constant and is flagged as such. Raises UnsupportedRangeError
    when the threshold exceeds the float range."""
    if _int("k", k) < 1 or 2 * k + 1 > _int("n", n):
        raise UnsupportedRangeError(f"need 1 <= k and 2k+1 <= n, got k={k}, n={n}")
    try:
        if k * k < n:
            return DiracThreshold(1, "k < sqrt(n)", (n + 1) / 2, False)
        if 3 * k < n:
            alpha = k / n
            value = (1 + sqrt(1 + 16 * alpha * alpha)) / 4 * n
            return DiracThreshold(2, "sqrt(n) <= k < n/3", value, True)
        return DiracThreshold(3, "n/3 <= k < n/2", float(2 * k), False)
    except OverflowError:
        raise UnsupportedRangeError(
            "n, k too large: the threshold exceeds the float range") from None

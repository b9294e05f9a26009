"""Ramsey bound evaluators, witness verification, and an exhaustive small-case oracle.

Witness verification never trusts the construction that produced a coloring:
star absence is read off the maximum blue degree and fan absence comes from
the exact fan search. The brute-force oracle decides tiny Ramsey numbers by
backtracking over lex-leader edge colorings with incremental target checks:
one search of K_cap finds the largest N whose K_N some coloring keeps free
of both targets, and keeps that coloring as a lower-bound witness.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat
from math import inf, isfinite, sqrt

from .errors import SizeGuardError, UnsupportedRangeError
from .fans import find_fan, max_blue_star
from .graphs import Graph, TwoColoring, _int, _is_int

Target = tuple[str, int]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    prop: str
    holds: bool
    certificate: dict | None = None

    def to_json_dict(self) -> dict:
        return {"property": self.prop, "holds": self.holds,
                "certificate": self.certificate}


@dataclass(frozen=True)
class WitnessReport:
    """Verification outcome for a candidate lower-bound coloring."""

    n: int
    kind: str
    claims: tuple[Claim, ...]
    bound_implied: str | None

    def __post_init__(self):
        if self.bound_implied is not None and not self.all_hold:
            raise ValueError("bound_implied requires every claim to hold")

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.claims)

    def to_json_dict(self) -> dict:
        return {"N": self.n, "kind": self.kind,
                "claims": [c.to_json_dict() for c in self.claims],
                "bound_implied": self.bound_implied}


def _no_fan_claim(color: str, g: Graph, n: int) -> Claim:
    """The claim "no <color> F_n", decided by the exact fan search; a fan
    found is its certificate."""
    w = find_fan(g, n)
    return Claim(f"no {color} F_{n}", w is None, None if w is None else w.to_json_dict())


def verify_star_fan_witness(k: TwoColoring, m: int, n: int) -> WitnessReport:
    """Check a coloring against blue K_{1,m} and red F_n; certify R >= N+1."""
    if k.n < 1:
        raise ValueError("empty coloring")
    if _int("m", m) < 1 or _int("n", n) < 1:
        raise ValueError("m and n must be positive")
    claims = []
    v, d = max_blue_star(k)
    claims.append(Claim(f"no blue K_{{1,{m}}}", d <= m - 1,
                        {"vertex": v, "blue_degree": d}))
    # the vertex of most blue degree is the one of least red degree
    required = k.n - m
    min_red = k.n - 1 - d
    claims.append(Claim(f"red min degree >= {required}", min_red >= required,
                        {"vertex": v, "red_degree": min_red,
                         "required": required}))
    claims.append(_no_fan_claim("red", k.red, n))
    bound = None
    if all(c.holds for c in claims):
        bound = f"R(K_{{1,{m}}}, F_{n}) >= {k.n + 1}"
    return WitnessReport(k.n, "star-fan", tuple(claims), bound)


def verify_fan_fan_witness(k: TwoColoring, n: int) -> WitnessReport:
    """Check a coloring for monochromatic F_n in both colors; certify R(F_n) >= N+1."""
    if k.n < 1:
        raise ValueError("empty coloring")
    if _int("n", n) < 1:
        raise ValueError("n must be positive")
    claims = (_no_fan_claim("red", k.red, n), _no_fan_claim("blue", k.blue, n))
    bound = f"R(F_{n}) >= {k.n + 1}" if all(c.holds for c in claims) else None
    return WitnessReport(k.n, "fan-fan", claims, bound)


# ---------------------------------------------------------------------------
# Formula evaluators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormulaResult:
    """Regime-labelled bound pair; exact means lower == upper is the value."""

    regime: str
    lower: float
    upper: float
    exact: bool
    upper_valid: bool = True
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    def to_json_dict(self) -> dict:
        return {"regime": self.regime, "lower": self.lower,
                "upper": self.upper, "exact": self.exact,
                "upper_valid": self.upper_valid, "notes": list(self.notes)}


def star_fan_formula(m: int, n: int) -> FormulaResult:
    """R(K_{1,m}, F_n) by regime: exact for m <= n and m >= n(n-1), a bound
    pair with additive slack (-8, +1) around (3m + sqrt(m^2+8n^2))/2 between.
    Raises UnsupportedRangeError when a value exceeds the float range."""
    if _int("m", m) < 1 or _int("n", n) < 1:
        raise ValueError("m and n must be positive")
    try:
        if m <= n:
            value = float(m + 2 * n - (1 + (-1) ** m) // 2)
            return FormulaResult("m <= n", value, value, True)
        if m >= n * (n - 1):
            value = float(2 * m + 1)
            return FormulaResult("m >= n(n-1)", value, value, True)
        base = (3 * m + sqrt(m * m + 8.0 * n * n)) / 2
        if isfinite(base):
            return FormulaResult("n < m < n(n-1)", base - 8, base + 1, False)
    except OverflowError:
        pass
    raise UnsupportedRangeError("m, n too large: the bounds exceed the float range")


def fan_ramsey_bounds(n: int, epsilon: float) -> FormulaResult:
    """Bounds for R(F_n): lower (3+sqrt(3))n - 8 always, upper (5+eps)n only
    once n >= 384/eps^2; the gate is reported on the result, never dropped.
    Raises UnsupportedRangeError when a bound exceeds the float range."""
    if _int("n", n) < 1:
        raise ValueError("n must be positive")
    if not (isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    try:
        lower = (3 + sqrt(3)) * n - 8
        upper = (5 + epsilon) * n
    except OverflowError:
        lower = upper = inf
    if not isfinite(upper):
        raise UnsupportedRangeError("n, epsilon too large: the bounds exceed the float range")
    eps2 = epsilon * epsilon
    # an eps^2 that underflows to 0 puts the gate past every n
    gate = 384 / eps2 if eps2 else inf
    ok = n >= gate
    note = (f"upper bound requires n >= 384/epsilon^2 = {gate:g}: "
            f"{'satisfied' if ok else 'NOT satisfied'}")
    return FormulaResult("fan-fan", lower, upper, False,
                         upper_valid=ok, notes=(note,))


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _check_target(t: Target, name: str) -> Target:
    try:
        kind, size = t
    except (TypeError, ValueError):  # not a pair
        kind = size = None
    if kind not in ("star", "fan") or not _is_int(size) or size < 1:
        raise ValueError(f"{name} must be ('star'|'fan', positive int), got {t!r}")
    return kind, size


def target_name(t: Target) -> str:
    kind, size = t
    return f"K_{{1,{size}}}" if kind == "star" else f"F_{size}"


@dataclass(frozen=True)
class RamseySearchResult:
    blue_target: Target
    red_target: Target
    n_cap: int
    value: int | None
    # blue edges of a coloring of K_{lower - 1} with neither target
    witness: tuple[tuple[int, int], ...] | None = None

    @property
    def exact(self) -> bool:
        return self.value is not None

    @property
    def lower(self) -> int:
        return self.value if self.value is not None else self.n_cap + 1

    def describe(self) -> str:
        name = f"R({target_name(self.blue_target)}, {target_name(self.red_target)})"
        if self.exact:
            return f"{name} = {self.value}"
        return f"{name} >= {self.n_cap + 1}"

    def to_json_dict(self) -> dict:
        return {"blue_target": list(self.blue_target),
                "red_target": list(self.red_target),
                "cap": self.n_cap, "value": self.value,
                "lower": self.lower, "exact": self.exact,
                "statement": self.describe(),
                "witness": None if self.witness is None else [list(e) for e in self.witness]}


def _nu_at_least(mask: int, adj: list[int], k: int) -> bool:
    """Matching of size >= k inside the vertex-set bitmask, exact backtracking."""
    while True:
        if k <= 0:
            return True
        if mask.bit_count() < 2 * k:
            return False
        v = (mask & -mask).bit_length() - 1
        if adj[v] & mask:
            break
        mask &= mask - 1
    rest = mask & (mask - 1)
    nbrs = adj[v] & mask
    while nbrs:
        u_bit = nbrs & -nbrs
        if _nu_at_least(rest & ~u_bit, adj, k - 1):
            return True
        nbrs &= nbrs - 1
    return _nu_at_least(rest, adj, k)


def _fan_through(adj: list[int], i: int, j: int, k: int) -> bool:
    """Whether the graph holds an F_k through its edge (i, j), given that it
    held none before that edge was added.

    Such an F_k is centred at i with j a spoke vertex, paired with some y in
    N(i) & N(j) while N(i) - j - y holds k - 1 disjoint edges; or centred at
    j the same way; or centred at some c in N(i) & N(j), with (i, j) a spoke
    pair and k - 1 disjoint edges in N(c) - i - j. All three need a common
    neighbour, and no other neighbourhood gains an edge.
    """
    common = adj[i] & adj[j]
    if not common:
        return False
    # a centre has degree >= 2k; k is now the number of edges left to find
    need, k = 2 * k, k - 1
    rest_i = adj[i] & ~(1 << j) if adj[i].bit_count() >= need else 0
    rest_j = adj[j] & ~(1 << i) if adj[j].bit_count() >= need else 0
    ij = (1 << i) | (1 << j)
    while common:
        y_bit = common & -common
        common ^= y_bit
        hood = adj[y_bit.bit_length() - 1]
        if (rest_i and _nu_at_least(rest_i & ~y_bit, adj, k)
                or rest_j and _nu_at_least(rest_j & ~y_bit, adj, k)
                or hood.bit_count() >= need and _nu_at_least(hood & ~ij, adj, k)):
            return True
    return False


def _edge_table(n: int) -> list[tuple[int, int, int, int, int, int]]:
    """The edges of K_n in search order, row by row: (i, j, 1 << i, 1 << j,
    pair a, pair b) for i = 1..n-1, j < i.

    Pair p, given as the bit 1 << p (0 where none), is rows p and p + 1.
    Coloring (i, j) completes pair a = i - 1 at column j when j < i - 1,
    and pair b = j - 1 at column i when j >= 1. Their row-p entries,
    (i - 1, j) and (i, j - 1), are colored before (i, j), and each pair
    meets its columns in ascending order. No field depends on n, so the
    table of K_n is a prefix of the table of K_{n+1}.
    """
    return [(i, j, 1 << i, 1 << j, 1 << i - 1 if j < i - 1 else 0,
             1 << j - 1 if j else 0)
            for i in range(1, n) for j in range(i)]


# the largest cap brute_force_ramsey allows; the table of each query's
# K_n_cap is a prefix of _CAP_EDGES
_MAX_CAP = 9
_CAP_EDGES = _edge_table(_MAX_CAP)


def _search(blue_t: Target, red_t: Target, n: int,
            edges: list[tuple[int, int, int, int, int, int]], ticks: Iterator,
            witness: list[int] | None = None) -> int:
    """The largest r <= n such that some 2-coloring of K_r avoids a blue
    blue_t and a red red_t; witness, when given, receives the blue rows
    (adjacency masks) of the coloring of K_r that the search found.

    Edges are colored in the order of edges, an _edge_table of n or more
    vertices, blue before red. The one symmetry rule is the lex-leader row
    order: row p of the blue adjacency matrix is >= row p + 1, blue above
    red, over the columns in ascending order without p and p + 1. Codish,
    Miller, Prosser and Stuckey ("Breaking symmetries in graph
    representation", IJCAI 2013) show that every graph has a relabelling
    with row i <= row j so for all i < j, hence for adjacent rows; applied
    to the red graph, whose complement is blue, the <= becomes >=.
    Avoidance survives relabelling, so the rule loses no answer. Its
    column-0 case makes edge (i, 0), i > 1, blue only if (i - 1, 0) is.

    One depth-first search over K_n answers every r <= n. The table of K_r
    is a prefix of the table of K_n, and the rule's comparisons among rows
    0..r-1 read only columns below r, which are colored first; so the
    search of K_r is this search cut off at depth r(r-1)/2, the index of
    edge (r, 0). A node at that depth has colored K_r without a target,
    and none at that depth means no coloring of K_r avoids both. The
    search records r and the blue rows each time it reaches such a node
    with r above the largest so far, and stops at the first complete
    coloring of K_n.

    Each node takes one item of ticks: a finite ticks is a node budget,
    and StopIteration means it ran out.

    The partial coloring never holds a target, so each node tests only
    the edge just colored: a star K_{1,s} before the edge is placed (both
    ends must have fewer than s - 1 edges of that color), a fan F_k after,
    by _fan_through.
    """
    blue, red, end = [0] * n, [0] * n, n * (n - 1) // 2
    tick = ticks.__next__
    # degree limit and fan size per color. A fan color has limit n, which no
    # degree reaches, so it skips the degree test while its fan size is set;
    # an F_k needs 2k + 1 vertices, so on n <= 2k its fan size is 0 and it
    # is never tested
    (blue_kind, blue_size), (red_kind, red_size) = blue_t, red_t
    blue_limit = blue_size - 1 if blue_kind == "star" else n
    red_limit = red_size - 1 if red_kind == "star" else n
    blue_fan = blue_size if blue_kind == "fan" and n > 2 * blue_size else 0
    red_fan = red_size if red_kind == "fan" and n > 2 * red_size else 0
    # the blue rows of the largest K_r colored so far, r = len(best); K_1
    # has no edge to color
    best = blue[:1]

    def extend(idx: int, ties: int) -> bool:
        # ties: a bit per pair of rows that is equal on the columns so far
        nonlocal best
        tick()
        if idx == end:
            best = blue[:]
            return True
        i, j, bit_i, bit_j, pair_a, pair_b = edges[idx]
        if not j and i > len(best):
            best = blue[:i]
        # the compared pairs whose row-p entry is blue: blue keeps them tied
        # and red unties them; blue under a tied red row-p entry is barred
        above = ((pair_a if blue[i - 1] & bit_j else 0)
                 | (pair_b if blue[i] & bit_j >> 1 else 0))
        blue_ok = not ties & (pair_a | pair_b) & ~above
        red_ties = ties & ~above
        if (blue_ok and (blue_fan or blue[i].bit_count() < blue_limit
                         and blue[j].bit_count() < blue_limit)):
            blue[i] |= bit_j
            blue[j] |= bit_i
            if not (blue_fan and _fan_through(blue, i, j, blue_fan)) and extend(idx + 1, ties):
                return True
            blue[i] ^= bit_j
            blue[j] ^= bit_i
        if red_fan or red[i].bit_count() < red_limit and red[j].bit_count() < red_limit:
            red[i] |= bit_j
            red[j] |= bit_i
            if not (red_fan and _fan_through(red, i, j, red_fan)) and extend(idx + 1, red_ties):
                return True
            red[i] ^= bit_j
            red[j] ^= bit_i
        return False

    extend(0, (1 << n) - 1)
    if witness is not None:
        witness[:] = best
    return len(best)


def brute_force_ramsey(blue_target: Target, red_target: Target, n_cap: int,
                       workers: int = 1) -> RamseySearchResult:
    """Least N forcing the blue target or the red target in every 2-coloring
    of K_N, or a first-class ">= n_cap + 1" when the cap is reached.

    One _search over K_n_cap under the lex-leader row rule, in this
    process: the value is the first N it cannot reach. The result's
    witness is the blue edge list, in search order, of the avoiding
    coloring of K_{value-1}, or of K_n_cap when the cap is reached.
    workers must be a positive int and has no effect: the search starts
    no process, and the argument is kept for callers that pass it.
    """
    blue_t = _check_target(blue_target, "blue_target")
    red_t = _check_target(red_target, "red_target")
    limit = 8 if blue_t[0] == "fan" and red_t[0] == "fan" else _MAX_CAP
    if not 1 <= _int("n_cap", n_cap) <= limit:
        raise SizeGuardError(
            f"cap {n_cap} outside 1..{limit} for {blue_t[0]}-{red_t[0]} search")
    if _int("workers", workers) < 1:
        raise ValueError(f"workers must be a positive int, got {workers!r}")
    rows: list[int] = []
    reached = _search(blue_t, red_t, n_cap, _CAP_EDGES, repeat(None), rows)
    witness = tuple([(j, i) for i, j, _, bit_j, _, _ in _CAP_EDGES[:reached * (reached - 1) // 2]
                     if rows[i] & bit_j])
    return RamseySearchResult(blue_t, red_t, n_cap,
                              None if reached == n_cap else reached + 1, witness)

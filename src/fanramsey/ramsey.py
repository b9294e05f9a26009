"""Ramsey bound evaluators, witness verification, and an exhaustive small-case oracle.

Witness verification never trusts the construction that produced a coloring:
star absence is read off the maximum blue degree and fan absence comes from
the exact fan search. The brute-force oracle decides tiny Ramsey numbers by
backtracking over edge colorings with incremental forbidden-subgraph checks.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterator
from itertools import repeat
from dataclasses import dataclass, field
from math import inf, isfinite, sqrt
from multiprocessing.connection import wait

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
                "statement": self.describe()}


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


def _edge_order(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(i)]


# Node budget of the serial attempt at each N when workers > 1; only a search
# past it forks workers. Measured on 2 vCPUs (Python 3.11.7, medians of 5
# runs): the search visits about 1,720,000 nodes/s on star-star pairs and
# 600,000 with a fan, and forking and joining two workers takes 4.5 ms (median
# of 40 per run), about 7,800 star nodes. Of the benchmark's pairs only
# R(K_{1,6}, K_{1,4}) passes 18,437 nodes at an N: with N = 9 (305,471 nodes)
# two workers take the call at cap 9 from 167 to 122 ms (medians of 12 per run).
_POOL_NODE_BUDGET = 20_000
# Each split gets at least this many prefixes per worker: at 32 per worker,
# R(K_{1,6}, K_{1,4}) at N = 9 splits into 124 subtrees, the largest holding
# 6% of the nodes (at 3 per worker: 6 subtrees, the largest 52%).
_PREFIXES_PER_WORKER = 32
_FOUND = 3  # exit code of a worker that finds an avoiding coloring


def _search(blue_t: Target, red_t: Target, order: list[tuple[int, int]],
            idx: int, blue: list[int], red: list[int], ticks: Iterator,
            leaf: Callable[[list[int]], object] | None = None) -> bool:
    """True iff some completion of the partial coloring avoids both targets.

    Blue is tried before red; edges to vertex 0 are forced non-increasing
    (blue block first) since permuting vertices 1..n-1 preserves avoidance.
    Each node takes one item of ticks, so a finite ticks is a node budget
    and StopIteration from it means the budget ran out. A completion is
    accepted when leaf(blue) is truthy, or always when leaf is None.

    The partial coloring must hold neither target, so that a new target
    has to use the edge just colored and each node tests only that edge.
    The search keeps this from an empty coloring, and _search_prefixes
    keeps it because it replays prefixes that _prefixes produced. A star
    K_{1,s} is tested before its edge is placed: both ends must have fewer
    than s - 1 edges of that color, so a rejected star edge is never
    written. A fan F_k is tested after: the edge is placed, and
    _fan_through looks for an F_k through it.
    """
    n, end = len(blue), len(order)
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
    # the last field marks an edge (i, 0), i > 1, that is blue only if
    # (i - 1, 0) is: the vertex-0 rule
    edges = [(i, j, 1 << i, 1 << j, j == 0 and i > 1) for i, j in order]

    def extend(idx: int) -> bool:
        tick()
        if idx == end:
            return leaf is None or bool(leaf(blue))
        i, j, bit_i, bit_j, to_zero = edges[idx]
        if ((not to_zero or blue[i - 1] & 1)
                and (blue_fan or blue[i].bit_count() < blue_limit
                     and blue[j].bit_count() < blue_limit)):
            blue[i] |= bit_j
            blue[j] |= bit_i
            if not (blue_fan and _fan_through(blue, i, j, blue_fan)) and extend(idx + 1):
                return True
            blue[i] ^= bit_j
            blue[j] ^= bit_i
        if red_fan or red[i].bit_count() < red_limit and red[j].bit_count() < red_limit:
            red[i] |= bit_j
            red[j] |= bit_i
            if not (red_fan and _fan_through(red, i, j, red_fan)) and extend(idx + 1):
                return True
            red[i] ^= bit_j
            red[j] ^= bit_i
        return False

    return extend(idx)


def _prefixes(n: int, blue_t: Target, red_t: Target,
              order: list[tuple[int, int]], parts: int) -> list[tuple[int, ...]]:
    """The colorings of the first edges that _search would extend, at the
    least depth that gives at least `parts` of them, or at full depth."""
    depth, out = 0, [()]
    while out and len(out) < parts and depth < len(order):
        depth += 1
        head, out = order[:depth], []
        # the leaf records each coloring of head and rejects it, so the
        # search goes on to the next one
        _search(blue_t, red_t, head, 0, [0] * n, [0] * n, repeat(None),
                lambda blue: out.append(tuple(blue[i] >> j & 1 for i, j in head)))
    return out


def _search_prefixes(n: int, blue_t: Target, red_t: Target,
                     prefixes: list[tuple[int, ...]]) -> None:
    """Worker: exit with _FOUND once a prefix extends to an avoiding coloring."""
    order = _edge_order(n)
    for prefix in prefixes:
        blue, red = [0] * n, [0] * n
        for (i, j), is_blue in zip(order, prefix):
            adj = blue if is_blue else red
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        if _search(blue_t, red_t, order, len(prefix), blue, red, repeat(None)):
            raise SystemExit(_FOUND)


def brute_force_ramsey(blue_target: Target, red_target: Target, n_cap: int,
                       workers: int = 1) -> RamseySearchResult:
    """Least N forcing the blue target or the red target in every 2-coloring
    of K_N, or a first-class ">= n_cap + 1" when the cap is reached.

    With workers > 1, each N first runs serially under a node budget of a
    few times the cost of forking workers; only a search past it is split
    into prefixes for min(workers, CPU count) processes forked for that N.
    The first avoiding coloring settles the N and kills the other workers;
    RuntimeError reports a worker that failed. The answer equals the serial one.
    """
    blue_t = _check_target(blue_target, "blue_target")
    red_t = _check_target(red_target, "red_target")
    limit = 8 if blue_t[0] == "fan" and red_t[0] == "fan" else 9
    if not 1 <= _int("n_cap", n_cap) <= limit:
        raise SizeGuardError(
            f"cap {n_cap} outside 1..{limit} for {blue_t[0]}-{red_t[0]} search")
    if _int("workers", workers) < 1:
        raise ValueError(f"workers must be a positive int, got {workers!r}")
    for n in range(1, n_cap + 1):
        order = _edge_order(n)
        try:
            ticks = repeat(None, _POOL_NODE_BUDGET) if workers > 1 else repeat(None)
            found = _search(blue_t, red_t, order, 0, [0] * n, [0] * n, ticks)
        except StopIteration:
            # more processes than CPUs cannot run at once; workers > 1 alone
            # still leads here, so a one-CPU host forks one worker
            size = min(workers, os.cpu_count() or 1)
            prefixes = _prefixes(n, blue_t, red_t, order, _PREFIXES_PER_WORKER * size)
            found, running = False, {}
            try:
                for w in range(size):
                    worker = multiprocessing.get_context("fork").Process(
                        target=_search_prefixes, args=(n, blue_t, red_t, prefixes[w::size]))
                    worker.start()
                    running[worker.sentinel] = worker
                while running and not found:
                    for sentinel in wait(list(running)):
                        running[sentinel].join()
                        code = running.pop(sentinel).exitcode
                        if code not in (0, _FOUND):
                            raise RuntimeError(f"search worker exited with code {code}")
                        found = found or code == _FOUND
            finally:
                for worker in running.values():
                    worker.kill()
                    worker.join()
        if not found:
            return RamseySearchResult(blue_t, red_t, n_cap, n)
    return RamseySearchResult(blue_t, red_t, n_cap, None)

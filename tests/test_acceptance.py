"""Acceptance gate: one test per shipped criterion, one printed verdict line each.

Run with -s (or read the captured stdout section) to see the verdict lines;
each test also enforces its stated runtime budget.
"""

import itertools
import math
import random
import time
from math import isqrt, sqrt

from oracles import cycle_oracle
from test_bigraphic import non_increasing, realizable_pairs
from test_matching import all_graphs, check_eg, random_graph

from fanramsey import (
    DegreePairSpec,
    FanExtensionInstance,
    Graph,
    IntervalRealizationParams,
    Matching,
    MultipartiteSpec,
    TwoColoring,
    UnsupportedRangeError,
    brute_force_ramsey,
    build_complete_multipartite,
    chromatic_lower,
    fan_extend,
    high_degree_fan,
    is_bigraphic,
    matching_number,
    multipartite_matching_bound,
    realize_interval,
    star_fan_lower,
    star_fan_lower_special,
    validate_fan_witness,
    verify_fan_fan_witness,
    verify_star_fan_witness,
)
from fanramsey import ramsey
from fanramsey.constructions import conditioned_coloring


def verdict(name, failures, started, budget):
    elapsed = time.monotonic() - started
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"{name}: {status} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert not failures, failures[:10]
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_construction_sweep(capsys):
    started = time.monotonic()
    failures = []
    checked = 0
    for n in range(2, 26):
        for m in range(n + 1, 2 * n + 6):
            if m >= n * (n - 1):
                continue
            try:
                k, params = star_fan_lower(m, n)
            except UnsupportedRangeError:
                continue
            checked += 1
            report = verify_star_fan_witness(k, m, n)
            if not report.all_hold:
                failures.append((m, n, [c.prop for c in report.claims
                                        if not c.holds]))
            if not params.N + 1 > (3 * m + sqrt(m * m + 8 * n * n)) / 2 - 8:
                failures.append((m, n, "bound below formula lower bound"))
    if checked < 400:
        failures.append(f"sweep too small: only {checked} pairs")
    with capsys.disabled():
        verdict(f"criterion 1 (construction sweep, {checked} pairs)",
                failures, started, 120)


def test_criterion_2_special_sweep(capsys):
    started = time.monotonic()
    failures = []
    unsupported = []
    for n in range(2, 61):
        try:
            k, params = star_fan_lower_special(n)
        except UnsupportedRangeError:
            unsupported.append(n)
            continue
        s = isqrt(3 * n * n)
        expect = 2 * s + 2 * ((3 * n - s - 1) // 2) - 4
        if params.N != expect:
            failures.append((n, params.N, expect))
        report = verify_star_fan_witness(k, 2 * n, n)
        if not report.all_hold:
            failures.append((n, "verification failed"))
    if unsupported != [2, 3]:
        failures.append(f"unexpected unsupported set {unsupported}")
    with capsys.disabled():
        verdict("criterion 2 (special sweep, n = 4..60)", failures, started, 60)


def test_criterion_3_small_ramsey_numbers(capsys):
    started = time.monotonic()
    failures = []
    for blue, red, cap, expect in (
            (("star", 2), ("fan", 2), 9, 5),
            (("star", 1), ("fan", 2), 9, 5),
            (("fan", 1), ("fan", 1), 8, 6)):
        got = brute_force_ramsey(blue, red, cap).value
        if got != expect:
            failures.append((blue, red, got, expect))
    witness = chromatic_lower(2)
    report = verify_fan_fan_witness(witness, 2)
    if not (report.all_hold and report.n == 8):
        failures.append("chromatic witness on 8 vertices rejected")
    if brute_force_ramsey(("fan", 2), ("fan", 2), 8).lower != 9:
        failures.append("exhaustive search disagrees with R(F_2) >= 9")
    # the upper side, past the public cap of 8: one search of K_9 colors
    # K_8 and no K_9, so R(F_2) = 9
    if ramsey._search(("fan", 2), ("fan", 2), 9, ramsey._edge_table(9),
                      itertools.repeat(None)) != 8:
        failures.append("exhaustive search disagrees with R(F_2) = 9")
    with capsys.disabled():
        verdict("criterion 3 (exact small Ramsey numbers)",
                failures, started, 300)


def test_criterion_4_gale_ryser_and_intervals(capsys):
    started = time.monotonic()
    failures = []
    specs = 0
    for a in range(1, 5):
        for b in range(1, 5):
            truth = realizable_pairs(a, b)
            for xs in non_increasing(a, 4):
                for ys in non_increasing(b, 4):
                    specs += 1
                    got = bool(is_bigraphic(DegreePairSpec(xs, ys)))
                    want = (tuple(sorted(xs, reverse=True)),
                            tuple(sorted(ys, reverse=True))) in truth
                    if got != want:
                        failures.append((xs, ys, got))
    rng = random.Random(2024)
    tuples = 0
    while tuples < 10000:
        a = rng.randint(1, 12)
        b = rng.randint(1, 12)
        c = rng.randint(0, b)
        d = rng.randint(0, a)
        sigma = rng.randint(0, 4)
        if not -sigma * b <= a * c - b * d <= sigma * a:
            continue
        g = realize_interval(IntervalRealizationParams(a, b, c, d, sigma))
        for i in range(a):
            if not max(0, c - sigma) <= g.degree(i) <= c:
                failures.append(("A degree", a, b, c, d, sigma, i))
        for j in range(b):
            if not max(0, d - sigma) <= g.degree(a + j) <= d:
                failures.append(("B degree", a, b, c, d, sigma, j))
        tuples += 1
    with capsys.disabled():
        verdict(f"criterion 4 (degree realization, {specs} specs + "
                f"{tuples} interval tuples)", failures, started, 120)


def test_criterion_5_matching_structure(capsys):
    started = time.monotonic()
    failures = []
    graphs = 0
    for n in range(7):
        for g in all_graphs(n):
            graphs += 1
            try:
                check_eg(g)
            except AssertionError as exc:
                failures.append((n, g.edges(), str(exc)))
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(7, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.25, 0.4, 0.6]))
        graphs += 1
        try:
            check_eg(g)
        except AssertionError as exc:
            failures.append((n, g.edges(), str(exc)))
    with capsys.disabled():
        verdict(f"criterion 5 (matching decomposition on {graphs} graphs)",
                failures, started, 300)


def _partitions(total, smallest=1):
    if total == 0:
        yield ()
        return
    for first in range(smallest, total + 1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_criterion_6_multipartite_claims(capsys):
    started = time.monotonic()
    failures = []
    partitions = 0
    for total in range(2, 11):
        for sizes in _partitions(total):
            if len(sizes) < 2:
                continue
            partitions += 1
            spec = MultipartiteSpec(sizes)
            g = build_complete_multipartite(spec)
            if multipartite_matching_bound(spec) != 2 * matching_number(g):
                failures.append(("bound", sizes))
            if spec.t < 3:
                continue
            top = spec.part_sizes[-1]
            cap = total if 2 * top <= total else 2 * (total - top)
            for length in range(3, total + 1):
                if cycle_oracle(g, length) != (length <= cap):
                    failures.append(("cycle", sizes, length))
    with capsys.disabled():
        verdict(f"criterion 6 (complete multipartite claims, "
                f"{partitions} partitions)", failures, started, 120)


def _multipartite_edges(parts):
    edges = []
    for i, p in enumerate(parts):
        for pp in parts[i + 1:]:
            edges += [(u, w) for u in p for w in pp]
    return edges


def _random_instance(rng, case):
    """Instance plus matching satisfying the chosen case's hypotheses."""
    n = rng.randint(3, 15)
    lam = rng.randint(1, 4)
    x_parts = []
    x_total = 0
    if case == "i":
        while x_total <= n + lam:
            size = rng.randint(1, lam)
            x_parts.append(size)
            x_total += size
        y_size = rng.randint(0, n + 3)
    else:
        while x_total + len(x_parts) < 2 or x_total < rng.randint(1, n):
            size = rng.randint(1, lam)
            x_parts.append(size)
            x_total += size
        y_size = rng.randint(0, n) if case == "ii" else n + rng.randint(0, 4)
        while x_total + y_size <= n:
            size = rng.randint(1, lam)
            x_parts.append(size)
            x_total += size
    q = 2 * n - (x_total + y_size)

    if case == "i":
        need = max(0, q + 2 * lam) + rng.randint(1, 3)
    elif case == "ii":
        need = max(0, 2 * (q + lam)) + rng.randint(1, 3)
    else:
        need = max(0, 2 * (n - x_total + lam)) + rng.randint(0, 2)

    ids = iter(range(1000))
    parts = [[next(ids) for _ in range(s)] for s in x_parts]
    y = [next(ids) for _ in range(y_size)]
    cross_pool = ([v for p in parts for v in p] + y) if case == "i" else list(y)
    rng.shuffle(cross_pool)
    m_edges = []
    z = []
    covered = 0
    while covered < need:
        z_new = next(ids)
        z.append(z_new)
        if cross_pool and rng.random() < 0.4:
            mate = cross_pool.pop()
            m_edges.append((mate, z_new))
            covered += 1 if case == "i" else 2
        else:
            z_other = next(ids)
            z.append(z_other)
            m_edges.append((z_new, z_other))
            covered += 2
    for _ in range(rng.randint(0, 2)):
        z.append(next(ids))

    total = x_total + y_size + len(z)
    relabel = {old: new for new, old in enumerate(
        [v for p in parts for v in p] + y + z)}
    parts = [[relabel[v] for v in p] for p in parts]
    y = [relabel[v] for v in y]
    z = [relabel[v] for v in z]
    m_edges = [(relabel[u], relabel[w]) for u, w in m_edges]

    edges = set(_multipartite_edges(parts + ([y] if y else [])))
    edges.update((min(e), max(e)) for e in m_edges)
    v = rng.choice([u for p in parts for u in p])
    z_set = set(z)
    for u, w in m_edges:
        for end in (u, w):
            if end in z_set:
                edges.add((min(v, end), max(v, end)))
    for _ in range(rng.randint(0, total)):
        u, w = rng.sample(range(total), 2)
        if (u in z_set) or (w in z_set):
            edges.add((min(u, w), max(u, w)))

    host = Graph(total, sorted(edges))
    inst = FanExtensionInstance(host, parts, y, z, lam=lam, n=n)
    return inst, v, Matching(m_edges)


def test_criterion_7_fan_extension(capsys):
    started = time.monotonic()
    failures = []
    rng = random.Random(2024)
    for case in ("i", "ii", "iii"):
        produced = 0
        while produced < 200:
            inst, v, m = _random_instance(rng, case)
            try:
                w = fan_extend(inst, case, v, m)
            except Exception as exc:
                failures.append((case, inst.n, repr(exc)))
                produced += 1
                continue
            try:
                validate_fan_witness(inst.host, w, inst.n)
            except ValueError as exc:
                failures.append((case, inst.n, f"invalid witness: {exc}"))
            produced += 1
    with capsys.disabled():
        verdict("criterion 7 (fan extension, 200 instances per case)",
                failures, started, 120)


def test_criterion_8_high_degree_fans(capsys):
    started = time.monotonic()
    failures = []
    rng = random.Random(2024)
    for trial in range(500):
        n = rng.randint(1, 5)
        coloring = conditioned_coloring(rng, n)
        try:
            result = high_degree_fan(coloring, n)
        except RuntimeError as exc:
            failures.append((trial, n, str(exc)))
            continue
        if result is None:
            failures.append((trial, n, "precondition lost"))
            continue
        color, w = result
        try:
            validate_fan_witness(coloring.graph(color), w, n)
        except ValueError as exc:
            failures.append((trial, n, f"invalid witness: {exc}"))
    with capsys.disabled():
        verdict("criterion 8 (high-degree fans, 500 conditioned colorings)",
                failures, started, 120)

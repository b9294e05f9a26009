import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanramsey import (
    DegreePairSpec,
    Graph,
    IntervalRealizationParams,
    is_bigraphic,
    realize_bigraphic,
    realize_interval,
)
from oracles import bigraphic_edges


def realizable_pairs(a, b):
    """Canonical (xs desc, ys desc) degree pairs of all bipartite graphs on a+b."""
    pairs = set()
    cells = [(i, j) for i in range(a) for j in range(b)]
    for mask in range(1 << (a * b)):
        xs = [0] * a
        ys = [0] * b
        for idx, (i, j) in enumerate(cells):
            if mask >> idx & 1:
                xs[i] += 1
                ys[j] += 1
        pairs.add((tuple(sorted(xs, reverse=True)), tuple(sorted(ys, reverse=True))))
    return pairs


def non_increasing(length, cap):
    for tup in itertools.product(range(cap, -1, -1), repeat=length):
        if all(tup[i] >= tup[i + 1] for i in range(length - 1)):
            yield tup


class TestDegreePairSpec:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DegreePairSpec([1, -1], [0])

    @pytest.mark.parametrize("xs, ys, message", [
        ([2.7, 1], [1, 2], r"xs must hold ints, got \(2.7, 1\)"),
        ([2, "1"], [1, 2], r"xs must hold ints, got \(2, '1'\)"),
        ([2, 1], [True, 2], r"ys must hold ints, got \(True, 2\)"),
        ([2, 1], [1, 2.2], r"ys must hold ints, got \(1, 2.2\)"),
    ], ids=["x-float", "x-str", "y-bool", "y-float"])
    def test_rejects_non_int_degree(self, xs, ys, message):
        # int() would truncate 2.7 and parse '1', and bool is an int subclass
        with pytest.raises(ValueError, match=message):
            DegreePairSpec(xs, ys)

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError):
            DegreePairSpec([], [1])

    def test_sides(self):
        spec = DegreePairSpec([2, 1], [1, 1, 1])
        assert spec.a == 2 and spec.b == 3


class TestIsBigraphic:
    def test_exhaustive_against_enumeration(self):
        for a in range(1, 5):
            for b in range(1, 5):
                truth = realizable_pairs(a, b)
                for xs in non_increasing(a, b):
                    for ys in non_increasing(b, a):
                        verdict = bool(is_bigraphic(DegreePairSpec(xs, ys)))
                        assert verdict == ((xs, ys) in truth), (xs, ys)

    def test_order_invariant(self):
        rng = random.Random(3)
        for _ in range(500):
            a = rng.randint(1, 6)
            b = rng.randint(1, 6)
            xs = [rng.randint(0, b) for _ in range(a)]
            ys = [rng.randint(0, a) for _ in range(b)]
            base = bool(is_bigraphic(DegreePairSpec(xs, ys)))
            rng.shuffle(xs)
            rng.shuffle(ys)
            assert bool(is_bigraphic(DegreePairSpec(xs, ys))) == base

    def test_sum_mismatch_reason(self):
        check = is_bigraphic(DegreePairSpec([2], [1, 0]))
        assert not check.ok
        assert check.failing_k is None
        assert "sum mismatch" in check.reason

    def test_prefix_violation_reason(self):
        # two x-vertices of degree 2 cannot both attach to a single y of degree 4
        check = is_bigraphic(DegreePairSpec([2, 2], [4]))
        assert not check.ok
        assert check.failing_k == 1
        assert "k=1" in check.reason

    def test_ok_has_no_reason(self):
        check = is_bigraphic(DegreePairSpec([1, 1], [2]))
        assert check.ok and check.reason is None


class TestRealizeBigraphic:
    def test_exact_degrees_and_sides(self):
        rng = random.Random(11)
        built = 0
        while built < 400:
            a = rng.randint(1, 7)
            b = rng.randint(1, 7)
            xs = [rng.randint(0, b) for _ in range(a)]
            ys = [rng.randint(0, a) for _ in range(b)]
            spec = DegreePairSpec(xs, ys)
            if not is_bigraphic(spec):
                continue
            g, (left, right) = realize_bigraphic(spec)
            assert left == frozenset(range(a))
            assert right == frozenset(range(a, a + b))
            for i in range(a):
                assert g.degree(i) == xs[i]
            for j in range(b):
                assert g.degree(a + j) == ys[j]
            for u, v in g.edges():
                assert (u in left) != (v in left)
            built += 1

    def test_order_of_the_greedy(self):
        # the largest x-degree goes first, the lowest id among equal ones,
        # and takes the largest remaining y-degrees, lowest ids first
        g, _ = realize_bigraphic(DegreePairSpec([1, 2, 1], [2, 1, 1]))
        assert g.edges() == [(0, 3), (1, 3), (1, 4), (2, 5)]

    @given(st.integers(1, 12), st.integers(1, 12), st.randoms(use_true_random=False),
           st.sampled_from([0.1, 0.5, 0.9]))
    @settings(max_examples=300, deadline=None)
    def test_same_edges_as_the_tuple_key(self, a, b, rng, p):
        # the degrees of a random bipartite graph form a bigraphic pair
        xs, ys = [0] * a, [0] * b
        for i in range(a):
            for j in range(b):
                if rng.random() < p:
                    xs[i] += 1
                    ys[j] += 1
        spec = DegreePairSpec(xs, ys)
        g, _ = realize_bigraphic(spec)
        assert g == Graph(a + b, bigraphic_edges(spec))

    def test_unrealizable_raises(self):
        with pytest.raises(ValueError):
            realize_bigraphic(DegreePairSpec([2, 2], [4]))
        with pytest.raises(ValueError):
            realize_bigraphic(DegreePairSpec([1], [2]))

    def test_exhaustive_small_feasible(self):
        for a in range(1, 4):
            for b in range(1, 4):
                for xs in non_increasing(a, b):
                    for ys in non_increasing(b, a):
                        spec = DegreePairSpec(xs, ys)
                        if is_bigraphic(spec):
                            realize_bigraphic(spec)


class TestIntervalParams:
    def test_window_enforced(self):
        # ac - bd = -8 but -sigma*b = -4
        with pytest.raises(ValueError):
            IntervalRealizationParams(2, 2, 0, 4, 2)

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            IntervalRealizationParams(0, 1, 0, 0, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IntervalRealizationParams(2, 2, -1, 0, 2)

    @pytest.mark.parametrize("field, value", [
        ("a", 3.0), ("b", True), ("c", 1.5), ("d", 2.0), ("sigma", 2.5),
    ])
    def test_rejects_non_int_field(self, field, value):
        # (3, 3, 2, 2, 2) is valid; one non-int field must name itself
        fields = {"a": 3, "b": 3, "c": 2, "d": 2, "sigma": 2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an int, got {value!r}"):
            IntervalRealizationParams(**fields)


class TestRealizeInterval:
    def test_construction_slice(self):
        # the block pair used by the (m, n) = (10, 5) lower-bound coloring
        g = realize_interval(IntervalRealizationParams(7, 2, 2, 4, 3))
        assert sorted(g.degree(i) for i in range(7)) == [1, 1, 1, 1, 1, 1, 2]
        assert [g.degree(7 + j) for j in range(2)] == [4, 4]

    def test_balanced_exact(self):
        g = realize_interval(IntervalRealizationParams(3, 3, 2, 2, 2))
        assert all(g.degree(v) == 2 for v in range(6))

    def test_negative_gap_side(self):
        # ac - bd = -6: the deficit lands on the B side
        g = realize_interval(IntervalRealizationParams(2, 3, 3, 4, 2))
        assert [g.degree(i) for i in range(2)] == [3, 3]
        assert sorted(g.degree(2 + j) for j in range(3)) == [2, 2, 2]

    def test_case_feasibility_errors(self):
        with pytest.raises(ValueError, match="d <= a"):
            realize_interval(IntervalRealizationParams(2, 1, 3, 3, 2))
        with pytest.raises(ValueError, match="c <= b"):
            realize_interval(IntervalRealizationParams(1, 2, 3, 2, 2))

    def test_random_feasible_tuples(self):
        rng = random.Random(2024)
        verified = 0
        while verified < 10000:
            a = rng.randint(1, 12)
            b = rng.randint(1, 12)
            c = rng.randint(0, b)
            d = rng.randint(0, a)
            sigma = rng.randint(0, 4)
            gap = a * c - b * d
            if not -sigma * b <= gap <= sigma * a:
                continue
            g = realize_interval(IntervalRealizationParams(a, b, c, d, sigma))
            assert g.n == a + b
            for i in range(a):
                assert max(0, c - sigma) <= g.degree(i) <= c
            for j in range(b):
                assert max(0, d - sigma) <= g.degree(a + j) <= d
            for u, v in g.edges():
                assert (u < a) != (v < a)
            verified += 1

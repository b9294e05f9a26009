import math
import multiprocessing
import os
import random
from itertools import count, repeat

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import brute_matching, vertex_zero_search, violates

from fanramsey import (
    Claim,
    FormulaResult,
    Graph,
    RamseySearchResult,
    SizeGuardError,
    TwoColoring,
    WitnessReport,
    brute_force_ramsey,
    chromatic_lower,
    fan_ramsey_bounds,
    read_coloring,
    star_fan_formula,
    star_fan_lower,
    star_fan_lower_special,
    target_name,
    verify_fan_fan_witness,
    verify_star_fan_witness,
    write_coloring,
)
from fanramsey import ramsey
from fanramsey.fans import find_fan
from fanramsey.graphs import complement, induced


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestWitnessReport:
    def test_bound_requires_all_hold(self):
        with pytest.raises(ValueError):
            WitnessReport(3, "star-fan",
                          (Claim("x", False),), "R >= 4")

    def test_all_hold(self):
        rep = WitnessReport(3, "star-fan",
                            (Claim("x", True), Claim("y", False)), None)
        assert not rep.all_hold


@pytest.mark.parametrize("call, message", [
    (lambda: verify_star_fan_witness(TwoColoring(0, Graph(0)), 1, 1), "empty coloring"),
    (lambda: verify_fan_fan_witness(TwoColoring(0, Graph(0)), 1), "empty coloring"),
    (lambda: verify_fan_fan_witness(TwoColoring(3, Graph(3)), 0), "n must be positive"),
    (lambda: FormulaResult("r", 2.0, 1.0, False), "lower 2.0 exceeds upper 1.0"),
], ids=["star-fan-empty", "fan-fan-empty", "fan-fan-n", "formula-order"])
def test_rejects_bad_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestVerifyStarFan:
    def test_construction_certified(self):
        k, params = star_fan_lower(10, 5)
        rep = verify_star_fan_witness(k, 10, 5)
        assert rep.all_hold
        assert rep.bound_implied == "R(K_{1,10}, F_5) >= 19"
        assert rep.n == 18
        props = [c.prop for c in rep.claims]
        assert props == ["no blue K_{1,10}", "red min degree >= 8", "no red F_5"]

    def test_special_construction_certified(self):
        k, params = star_fan_lower_special(5)
        rep = verify_star_fan_witness(k, 10, 5)
        assert rep.all_hold
        assert rep.bound_implied == "R(K_{1,10}, F_5) >= 19"

    def test_blue_star_failure_certificate(self):
        # empty red graph: every edge blue, K_{1,2} at any vertex
        k = TwoColoring(5, Graph(5, []))
        rep = verify_star_fan_witness(k, 2, 2)
        assert not rep.all_hold
        assert rep.bound_implied is None
        blue_claim = rep.claims[0]
        assert not blue_claim.holds
        assert blue_claim.certificate["blue_degree"] == 4

    def test_red_fan_failure_certificate(self):
        k = TwoColoring(5, complete(5))
        rep = verify_star_fan_witness(k, 2, 2)
        fan_claim = rep.claims[2]
        assert not fan_claim.holds
        cert = fan_claim.certificate
        assert len(cert["spokes"]) == 2

    def test_min_degree_failure(self):
        # one red edge missing from K_4 drops two vertices below N - 1
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        rep = verify_star_fan_witness(TwoColoring(4, g), 1, 3)
        deg_claim = rep.claims[1]
        assert not deg_claim.holds
        assert deg_claim.certificate == {"vertex": 2, "red_degree": 2,
                                         "required": 3}

    def test_round_trip_determinism(self, tmp_path):
        k, _ = star_fan_lower(7, 3)
        before = verify_star_fan_witness(k, 7, 3).to_json_dict()
        path = tmp_path / "w.el"
        write_coloring(k, path)
        again = verify_star_fan_witness(read_coloring(path), 7, 3).to_json_dict()
        assert before == again

    def test_rejects_bad_args(self):
        k = TwoColoring(3, Graph(3, []))
        with pytest.raises(ValueError):
            verify_star_fan_witness(k, 0, 2)


class TestVerifyFanFan:
    def test_chromatic_certified(self):
        k = chromatic_lower(2)
        rep = verify_fan_fan_witness(k, 2)
        assert rep.all_hold
        assert rep.bound_implied == "R(F_2) >= 9"
        assert rep.kind == "fan-fan"

    def test_red_failure(self):
        rep = verify_fan_fan_witness(TwoColoring(5, complete(5)), 2)
        assert not rep.claims[0].holds
        assert rep.claims[1].holds

    def test_triangle_failure(self):
        rep = verify_fan_fan_witness(TwoColoring(3, complete(3)), 1)
        assert not rep.all_hold
        assert rep.claims[0].certificate["center"] in (0, 1, 2)


class TestStarFanFormula:
    def test_small_star_exact(self):
        res = star_fan_formula(1, 2)
        assert res.exact and res.lower == res.upper == 5
        assert res.regime == "m <= n"
        assert star_fan_formula(2, 2).lower == 5
        assert star_fan_formula(2, 3).lower == 7
        assert star_fan_formula(1, 1).lower == 3

    def test_parity_shift(self):
        # even m loses one relative to odd m at the same n
        assert star_fan_formula(3, 3).lower == 9
        assert star_fan_formula(4, 4).lower == 11
        assert star_fan_formula(4, 5).lower == 13

    def test_large_star_exact(self):
        res = star_fan_formula(20, 4)
        assert res.regime == "m >= n(n-1)"
        assert res.exact and res.lower == 41
        assert star_fan_formula(6, 3).lower == 13

    def test_middle_bounds(self):
        res = star_fan_formula(10, 5)
        base = (30 + math.sqrt(300)) / 2
        assert not res.exact
        assert res.lower == pytest.approx(base - 8)
        assert res.upper == pytest.approx(base + 1)
        assert res.lower == pytest.approx(15.66025, abs=1e-4)
        assert res.upper == pytest.approx(24.66025, abs=1e-4)

    def test_regime_boundaries(self):
        assert star_fan_formula(5, 5).regime == "m <= n"
        assert star_fan_formula(6, 5).regime == "n < m < n(n-1)"
        assert star_fan_formula(19, 5).regime == "n < m < n(n-1)"
        assert star_fan_formula(20, 5).regime == "m >= n(n-1)"

    def test_construction_consistent_with_formula(self):
        # the coloring never beats the upper bound, and in the middle
        # regime it is exactly what the lower bound counts
        for m, n in ((10, 5), (7, 3), (12, 4), (9, 5)):
            _, params = star_fan_lower(m, n)
            res = star_fan_formula(m, n)
            assert params.N + 1 <= res.upper + 1e-9
            if res.regime == "n < m < n(n-1)":
                assert params.N + 1 >= res.lower - 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            star_fan_formula(0, 3)


class TestFanRamseyBounds:
    def test_gate_not_met(self):
        res = fan_ramsey_bounds(10, 1.0)
        assert not res.upper_valid
        assert "384" in res.notes[0] and "NOT satisfied" in res.notes[0]

    def test_gate_met(self):
        res = fan_ramsey_bounds(400, 1.0)
        assert res.upper_valid
        assert "satisfied" in res.notes[0]
        assert res.upper == pytest.approx(2400.0)

    def test_lower_value(self):
        res = fan_ramsey_bounds(100, 0.5)
        assert res.lower == pytest.approx((3 + math.sqrt(3)) * 100 - 8)

    def test_lower_matches_doubled_star_formula(self):
        # the best known lower bound comes from the m = 2n star instance
        for n in (4, 10, 25, 57):
            assert fan_ramsey_bounds(n, 1.0).lower == \
                pytest.approx(star_fan_formula(2 * n, n).lower)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fan_ramsey_bounds(0, 1.0)
        with pytest.raises(ValueError):
            fan_ramsey_bounds(5, 0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="finite"):
            fan_ramsey_bounds(10, epsilon)


def test_target_name():
    assert target_name(("star", 4)) == "K_{1,4}"
    assert target_name(("fan", 2)) == "F_2"


class TestBruteForce:
    def test_known_values(self):
        assert brute_force_ramsey(("star", 1), ("fan", 1), 9).value == 3
        assert brute_force_ramsey(("star", 1), ("fan", 2), 9).value == 5
        assert brute_force_ramsey(("star", 2), ("fan", 2), 9).value == 5
        assert brute_force_ramsey(("star", 2), ("fan", 3), 9).value == 7
        assert brute_force_ramsey(("fan", 1), ("fan", 1), 8).value == 6

    def test_matches_exact_formula(self):
        for m, n in ((1, 1), (1, 2), (2, 2), (2, 3)):
            res = star_fan_formula(m, n)
            assert res.exact
            got = brute_force_ramsey(("star", m), ("fan", n), 9)
            assert got.value == int(res.lower)

    def test_cap_reached(self):
        res = brute_force_ramsey(("fan", 2), ("fan", 2), 8)
        assert res.value is None
        assert not res.exact
        assert res.lower == 9
        assert res.describe() == "R(F_2, F_2) >= 9"

    def test_consistent_with_witness(self):
        # an 8-vertex coloring with no monochromatic F_2 exists, so the
        # exhaustive search must run out of room at its cap of 8
        rep = verify_fan_fan_witness(chromatic_lower(2), 2)
        assert rep.all_hold and rep.n == 8
        res = brute_force_ramsey(("fan", 2), ("fan", 2), 8)
        assert res.lower == rep.n + 1

    def test_star_star_is_classic(self):
        # R(K_{1,2}, K_{1,2}) = 3: one vertex of K_3 has two same-colored edges
        assert brute_force_ramsey(("star", 2), ("star", 2), 9).value == 3
        assert brute_force_ramsey(("star", 3), ("star", 3), 9).value == 6

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            brute_force_ramsey(("fan", 2), ("fan", 2), 9)
        with pytest.raises(SizeGuardError):
            brute_force_ramsey(("star", 3), ("fan", 3), 10)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            brute_force_ramsey(("path", 2), ("fan", 2), 5)
        with pytest.raises(ValueError):
            brute_force_ramsey(("star", 0), ("fan", 2), 5)

    def test_worker_determinism(self):
        for blue, red, cap in ((("star", 2), ("fan", 2), 9),
                               (("fan", 1), ("fan", 1), 8)):
            single = brute_force_ramsey(blue, red, cap, workers=1)
            for workers in (2, 4):
                multi = brute_force_ramsey(blue, red, cap, workers=workers)
                assert multi.to_json_dict() == single.to_json_dict()

    def test_workers_start_no_process(self, monkeypatch):
        # workers is checked and has no effect; star6-star4 at N = 9 is the
        # largest search the caps allow (7,105 nodes)
        def refuse(*args, **kwargs):
            raise AssertionError("the search started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        assert brute_force_ramsey(("star", 6), ("star", 4), 9, workers=2).value == 9

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_worker_count_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            brute_force_ramsey(("star", 1), ("fan", 2), 9, workers=workers)

    @pytest.mark.parametrize("blue, red, cap, workers, name", [
        (("star", 2.5), ("fan", 2), 9, 1, "blue_target"),
        (("star", 2), ("fan", True), 9, 1, "red_target"),
        (("fan", "3"), ("star", 2), 9, 1, "blue_target"),
        (("star", 2), ("fan", 2), True, 1, "n_cap"),
        (("star", 2), ("fan", 2), 3.5, 1, "n_cap"),
        (("star", 2), ("fan", 2), 9, 2.5, "workers"),
        (5, ("fan", 2), 9, 1, "blue_target"),
        (("star", 2), ("fan",), 9, 1, "red_target"),
    ])
    def test_rejects_malformed_argument(self, blue, red, cap, workers, name):
        with pytest.raises(ValueError, match=name):
            brute_force_ramsey(blue, red, cap, workers=workers)

    def test_result_json(self):
        res = brute_force_ramsey(("star", 1), ("fan", 1), 9)
        data = res.to_json_dict()
        assert data["value"] == 3 and data["exact"] is True
        assert data["statement"] == "R(K_{1,1}, F_1) = 3"
        # K_2 with its one edge red: no blue K_{1,1}, and no red F_1 on 2 vertices
        assert data["witness"] == []
        res2 = RamseySearchResult(("fan", 2), ("fan", 2), 8, None)
        assert res2.to_json_dict()["lower"] == 9


class TestMonotonicity:
    def test_value_grows_with_targets(self):
        rng = random.Random(3)
        values = {}
        for m in (1, 2, 3):
            for n in (1, 2):
                values[m, n] = brute_force_ramsey(("star", m), ("fan", n), 9).value
        del rng
        assert values[1, 1] <= values[2, 1] <= values[3, 1]
        assert values[1, 1] <= values[1, 2]
        assert values[2, 1] <= values[2, 2]


@st.composite
def fan_free_graph_and_new_edge(draw):
    """An F_k-free graph on up to 10 vertices as adjacency masks, an edge
    absent from it and k. Each pair, in a random order, is drawn with a
    random probability and kept when the oracle finds it completes no F_k,
    so dense draws give graphs where most absent edges would complete one."""
    n = draw(st.integers(min_value=2, max_value=10))
    k = draw(st.integers(min_value=1, max_value=4))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    p = draw(st.floats(min_value=0.3, max_value=1))
    pairs = [(i, j) for i in range(1, n) for j in range(i)]
    adj = [0] * n
    for i, j in rng.sample(pairs, len(pairs)):
        if rng.random() < p:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            if violates(adj, i, j, ("fan", k)):
                adj[i] &= ~(1 << j)
                adj[j] &= ~(1 << i)
    absent = [(i, j) for i, j in pairs if not adj[i] >> j & 1]
    assume(absent)
    return adj, draw(st.sampled_from(absent)), k


@given(fan_free_graph_and_new_edge())
@settings(max_examples=400, deadline=None)
def test_fan_through_agrees_with_whole_neighbourhood_oracle(case):
    adj, (i, j), k = case
    assert not any(violates(adj, u, v, ("fan", k))
                   for u in range(len(adj)) for v in range(u) if adj[u] >> v & 1)
    adj[i] |= 1 << j
    adj[j] |= 1 << i
    assert ramsey._fan_through(adj, i, j, k) == violates(adj, i, j, ("fan", k))


@given(st.integers(min_value=1, max_value=10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
    st.integers(0, 2 ** n - 1), st.integers(0, 5))))
@settings(max_examples=300, deadline=None)
def test_nu_at_least_agrees_with_brute_matching(case):
    n, pairs, mask, k = case
    g = Graph(n, {(min(e), max(e)) for e in pairs if e[0] != e[1]})
    sub, _ = induced(g, [v for v in range(n) if mask >> v & 1])
    assert ramsey._nu_at_least(mask, list(g.bits), k) == (brute_matching(sub).size >= k)


# every target class whose search fits in the caps: no 2-coloring of K_9
# holds a K_{1,9} or an F_5 (11 vertices), so larger sizes search alike
_TARGETS = [("star", s) for s in range(1, 10)] + [("fan", s) for s in range(1, 6)]


class TestLexRule:
    """The lex-leader row rule finds an avoiding coloring exactly where the
    vertex-0 rule it replaced does."""

    @pytest.mark.parametrize("blue", _TARGETS, ids=lambda t: f"{t[0]}{t[1]}")
    def test_same_answers_as_vertex_zero_kernel(self, blue):
        # one search of K_cap answers every N: K_N can be colored iff N <= reached
        for red in _TARGETS:
            cap = 8 if blue[0] == red[0] == "fan" else 9
            reached = ramsey._search(blue, red, cap, ramsey._edge_table(cap), repeat(None))
            for n in range(1, cap + 1):
                found = vertex_zero_search(blue, red, n, repeat(None))
                assert (n <= reached) == found, (blue, red, n)

    # the last field is the reference kernel's node count, as the golden
    # table recorded it before the lex rule
    @pytest.mark.parametrize("blue, red, n, found, nodes", [
        (("star", 4), ("fan", 3), 10, True, 261),       # R(K_{1,4}, F_3) = 11
        (("star", 4), ("fan", 3), 11, False, 435_296),
        (("fan", 2), ("fan", 2), 9, False, 249_775),    # R(F_2, F_2) = 9, past the cap
    ], ids=["star4-fan3-N10", "star4-fan3-N11", "fan2-fan2-N9"])
    def test_searches_past_the_caps(self, blue, red, n, found, nodes):
        reached = ramsey._search(blue, red, n, ramsey._edge_table(n), repeat(None))
        assert (reached == n) is found
        ticks = count()
        assert vertex_zero_search(blue, red, n, ticks) is found
        assert next(ticks) == nodes

    @pytest.mark.parametrize("blue", _TARGETS, ids=lambda t: f"{t[0]}{t[1]}")
    def test_witness_avoids_both_targets(self, blue):
        # the lower bound's coloring, checked without the search's own tests:
        # a star by the maximum degree, a fan by find_fan
        for red in _TARGETS:
            cap = 8 if blue[0] == red[0] == "fan" else 9
            res = brute_force_ramsey(blue, red, cap)
            blue_g = Graph(res.lower - 1, res.witness)
            for (kind, size), g in ((blue, blue_g), (red, complement(blue_g))):
                if kind == "star":
                    assert max(g.degrees()) < size, (blue, red)
                else:
                    assert find_fan(g, size) is None, (blue, red)

    def test_edge_table_of_k_n_is_a_prefix_of_k_n_plus_1(self):
        for n in range(1, 12):
            assert ramsey._edge_table(n + 1)[:n * (n - 1) // 2] == ramsey._edge_table(n)

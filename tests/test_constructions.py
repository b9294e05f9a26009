import hashlib
import json

import pytest

from fanramsey import (
    RED,
    ConstructionParams,
    Graph,
    UnsupportedRangeError,
    chromatic_lower,
    dirac_threshold,
    fan_turan_number,
    find_fan,
    find_mono_fan,
    star_fan_lower,
    star_fan_lower_special,
    turan_lower,
)
from fanramsey import constructions
from oracles import star_fan_red_edges, turan_bipartite_edges


class TestStarFanLower:
    def test_values_ten_five(self):
        k, params = star_fan_lower(10, 5)
        assert (params.a, params.b, params.sigma, params.N) == (7, 2, 3, 18)
        assert k.n == 18

    def test_values_seven_three(self):
        _, params = star_fan_lower(7, 3)
        assert (params.a, params.b, params.sigma, params.N) == (5, 1, 2, 12)

    def test_block_structure(self):
        k, p = star_fan_lower(10, 5)
        red = k.red
        for u in p.x1:
            for w in p.x2:
                assert red.has_edge(u, w)
            for w in p.y2:
                assert red.has_edge(u, w)
        for u in p.x2:
            for w in p.y1:
                assert red.has_edge(u, w)
        for u in p.y1:
            for w in p.y2:
                assert not red.has_edge(u, w)
        for block in (p.x1, p.x2, p.y1, p.y2):
            for u in block:
                for w in block:
                    if u < w:
                        assert not red.has_edge(u, w)

    def test_partial_degree_windows(self):
        k, p = star_fan_lower(10, 5)
        red = k.red
        c = p.n - 1 - p.b
        d = p.n - 1
        for xs, ys in ((p.x1, p.y1), (p.x2, p.y2)):
            for u in xs:
                deg = sum(1 for w in ys if red.has_edge(u, w))
                assert max(0, c - p.sigma) <= deg <= c
            for w in ys:
                deg = sum(1 for u in xs if red.has_edge(u, w))
                assert max(0, d - p.sigma) <= deg <= d

    def test_sigma_range_sweep(self):
        seen = set()
        for n in range(2, 11):
            for m in range(n + 1, 2 * n + 8):
                try:
                    _, params = star_fan_lower(m, n)
                except UnsupportedRangeError:
                    continue
                assert 2 <= params.sigma <= 4
                seen.add(params.sigma)
                assert params.N == 2 * params.a + 2 * params.b
        assert seen == {2, 3, 4}

    def test_degenerate_blocks_rejected(self):
        with pytest.raises(UnsupportedRangeError):
            star_fan_lower(4, 3)

    def test_range_gate(self):
        with pytest.raises(UnsupportedRangeError):
            star_fan_lower(3, 3)
        with pytest.raises(UnsupportedRangeError):
            star_fan_lower(5, 1)


class TestStarFanSpecial:
    def test_values_five(self):
        k, params = star_fan_lower_special(5)
        assert (params.m, params.a, params.b, params.N) == (10, 7, 2, 18)
        assert k.n == 18

    def test_fixed_window_of_three(self, monkeypatch):
        # at n = 4 sigma is 4: the special builder still realizes window 3,
        # the general one window sigma (both colorings happen to coincide)
        windows = []
        realize = constructions.realize_interval

        def recording(params):
            windows.append(params.sigma)
            return realize(params)

        monkeypatch.setattr(constructions, "realize_interval", recording)
        assert star_fan_lower_special(4)[1].sigma == 4
        assert star_fan_lower(8, 4)[1].sigma == 4
        assert windows == [3, 4]

    def test_matches_general_builder(self):
        for n in (*range(4, 25), 31, 45, 60):
            _, special = star_fan_lower_special(n)
            _, general = star_fan_lower(2 * n, n)
            assert (special.a, special.b, special.N) == \
                (general.a, general.b, general.N)
            assert special.sigma in (3, 4)

    def test_window_width_three(self):
        # the realized X-Y degrees stay in a width-3 window even when
        # the stored sigma is 4
        for n in (4, 7, 11, 19):
            k, p = star_fan_lower_special(n)
            red = k.red
            c = p.n - 1 - p.b
            for u in p.x1:
                deg = sum(1 for w in p.y1 if red.has_edge(u, w))
                assert max(0, c - 3) <= deg <= c

    def test_small_n_rejected(self):
        with pytest.raises(UnsupportedRangeError):
            star_fan_lower_special(1)
        with pytest.raises(UnsupportedRangeError):
            star_fan_lower_special(3)


class TestRowsMatchTheEdgeListAssembly:
    """The builders hand Graph their rows; Graph(N, edges) of the edges
    listed pair by pair must give the same rows."""

    @pytest.mark.parametrize("n", range(2, 31))
    def test_star_fan(self, n):
        built = 0
        for m in range(n + 1, 2 * n + 6):
            try:
                coloring, _ = star_fan_lower(m, n)
            except UnsupportedRangeError:
                continue
            assert coloring.red._sorted == Graph(*star_fan_red_edges(m, n))._sorted
            built += 1
        assert built or n < 4

    @pytest.mark.parametrize("n", range(4, 61))
    def test_special(self, n):
        coloring, _ = star_fan_lower_special(n)
        assert coloring.red._sorted == Graph(*star_fan_red_edges(2 * n, n, window=3))._sorted

    @pytest.mark.parametrize("n", range(4, 81))
    def test_turan_bipartite_regime(self, n):
        for k in range(1, n // 4 + 1):
            assert turan_lower(n, k)._sorted == Graph(n, turan_bipartite_edges(n, k))._sorted


class TestConstructionParams:
    # sha256 of the compact sorted-key JSON list of to_json_dict() over the
    # 700 supported pairs 2 <= n < m <= 40 (m, then n, ascending), recorded
    # through star_fan_lower before ConstructionParams derived the layout
    LAYOUT_SHA256 = "b3670faa3a51e8a6435fa4cba77485c7e0bf38f77d497e093f44ce9a0d192430"
    UNSUPPORTED = {(m, 2) for m in range(3, 41)} | {(4, 3), (5, 3), (6, 3)}

    def test_layout_golden_table(self):
        table, unsupported = [], set()
        for m in range(3, 41):
            for n in range(2, m):
                try:
                    built = star_fan_lower(m, n)[1].to_json_dict()
                except UnsupportedRangeError:
                    unsupported.add((m, n))
                    continue
                assert ConstructionParams(m, n).to_json_dict() == built
                table.append(built)
        assert unsupported == self.UNSUPPORTED
        text = json.dumps(table, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == self.LAYOUT_SHA256

    @pytest.mark.parametrize("m, n", [(4, 3), (5, 3), (3, 5), (1, 6)],
                             ids=["m4-b0", "m5-b0", "m3-n5", "m1-n6"])
    def test_rejects_unsupported_pairs(self, m, n):
        # (4, 3) and (5, 3) give b = 0; (3, 5) and (1, 6) give non-empty
        # blocks and sigma in [2, 4], so only the m > n gate rejects them
        with pytest.raises(UnsupportedRangeError):
            ConstructionParams(m, n)

    def test_json_dict(self):
        _, p = star_fan_lower(10, 5)
        data = p.to_json_dict()
        assert data["X1"] == [0, 7] and data["Y2"] == [16, 18]
        assert data["sigma"] == 3


class TestChromaticLower:
    def test_no_mono_fan(self):
        for n in (1, 2, 3, 4):
            k = chromatic_lower(n)
            assert k.n == 4 * n
            assert find_mono_fan(k, n) is None

    def test_red_degrees(self):
        k = chromatic_lower(2)
        assert all(k.degree(v, RED) == 3 for v in range(8))

    def test_cliques_do_not_cross(self):
        k = chromatic_lower(3)
        for u in range(6):
            for w in range(6, 12):
                assert not k.red.has_edge(u, w)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            chromatic_lower(0)


class TestTuranLower:
    def test_bipartite_plus_cliques_regime(self):
        g = turan_lower(20, 3)
        assert g.edge_count() == 102
        assert sorted(set(g.degrees())) == [10, 11]
        assert find_fan(g, 3) is None

    def test_tripartite_regime(self):
        g = turan_lower(10, 3)
        assert g.edge_count() == 28
        assert sorted(set(g.degrees())) == [4, 8]
        assert find_fan(g, 3) is None

    def test_circulant_regime_even(self):
        g = turan_lower(10, 4)
        assert g.edge_count() == 35
        assert set(g.degrees()) == {7}
        assert find_fan(g, 4) is None

    def test_circulant_regime_odd(self):
        g = turan_lower(7, 3)
        assert g.edge_count() == 17
        assert sorted(g.degrees()) == [4, 5, 5, 5, 5, 5, 5]
        assert find_fan(g, 3) is None

    def test_edges_below_extremal_formula(self):
        for n, k in ((20, 3), (10, 3), (10, 4), (7, 3), (12, 5), (8, 2)):
            assert turan_lower(n, k).edge_count() <= fan_turan_number(n, k)

    def test_range_gate(self):
        with pytest.raises(UnsupportedRangeError):
            turan_lower(6, 3)
        with pytest.raises(UnsupportedRangeError):
            turan_lower(10, 0)


class TestFanTuranNumber:
    def test_odd_k(self):
        assert fan_turan_number(20, 3) == 106
        assert fan_turan_number(9, 1) == 20

    def test_even_k(self):
        assert fan_turan_number(10, 4) == 25 + 16 - 6
        assert fan_turan_number(12, 2) == 36 + 4 - 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fan_turan_number(0, 3)


class TestDiracThreshold:
    def test_small_k(self):
        t = dirac_threshold(100, 5)
        assert (t.case, t.threshold, t.theta_unresolved) == (1, 50.5, False)

    def test_large_k(self):
        t = dirac_threshold(99, 33)
        assert (t.case, t.threshold, t.theta_unresolved) == (3, 66.0, False)

    def test_middle_k_flagged(self):
        t = dirac_threshold(100, 20)
        assert t.case == 2
        assert t.threshold == pytest.approx(57.01562118716424)
        assert t.theta_unresolved

    def test_json_dict(self):
        data = dirac_threshold(100, 5).to_json_dict()
        assert data == {"case": 1, "label": "k < sqrt(n)", "threshold": 50.5,
                        "theta_unresolved": False}

    def test_range_gate(self):
        with pytest.raises(UnsupportedRangeError):
            dirac_threshold(10, 5)
        with pytest.raises(UnsupportedRangeError):
            dirac_threshold(10, 0)

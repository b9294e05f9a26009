import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanramsey import (
    BLUE,
    RED,
    FanExtensionError,
    FanExtensionInstance,
    FanWitness,
    Graph,
    Matching,
    MultipartiteSpec,
    SizeGuardError,
    TwoColoring,
    UnsupportedRangeError,
    build_complete_multipartite,
    chromatic_lower,
    complement,
    fan_extend,
    find_extension_matching,
    find_fan,
    find_mono_fan,
    high_degree_fan,
    induced,
    max_blue_star,
    multipartite_matching,
    multipartite_matching_bound,
    opposite,
    star_fan_lower,
    star_fan_lower_special,
    turan_lower,
    validate_fan_witness,
)
from fanramsey import fans, matching
from fanramsey.constructions import conditioned_coloring
from oracles import (
    blossom_fan_by_relabelling,
    brute_matching,
    component_bound_by_vertex,
    cycle_oracle,
    find_fan_every_center,
    greedy_degree_cover,
)


def random_graph(rng, n, p=0.5):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def fan_exists_oracle(g, k):
    """Reference answer: some neighborhood holds a k-edge matching."""
    for v in range(g.n):
        hood = g.neighbors(v)
        if len(hood) < 2 * k:
            continue
        sub, _ = induced(g, hood)
        if brute_matching(sub).size >= k:
            return True
    return False


class TestFanWitness:
    def test_normalizes_spokes(self):
        w = FanWitness(0, [(5, 3), (2, 1)])
        assert w.spokes == ((1, 2), (3, 5))
        assert w.k == 2

    @pytest.mark.parametrize("spokes, bad", [([(1, "a")], "'a'"), ([(True, 2)], "True")])
    def test_rejects_a_spoke_id_that_is_not_an_int(self, spokes, bad):
        # a ValueError naming the id, not the sort's TypeError
        with pytest.raises(ValueError, match=f"fan vertex {bad} is not an int"):
            FanWitness(0, spokes)

    def test_json_dict(self):
        w = FanWitness(7, [(1, 2)])
        assert w.to_json_dict() == {"center": 7, "spokes": [[1, 2]]}

    def test_validate_happy(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
        validate_fan_witness(g, FanWitness(0, [(1, 2), (3, 4)]), 2)

    def test_validate_rejects_missing_center_edge(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])
        with pytest.raises(ValueError):
            validate_fan_witness(g, FanWitness(0, [(1, 3)]))

    def test_validate_rejects_overlap(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(ValueError):
            validate_fan_witness(g, FanWitness(0, [(1, 2), (1, 3)]))

    def test_validate_rejects_wrong_size(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError):
            validate_fan_witness(g, FanWitness(0, [(1, 2)]), 2)

    @pytest.mark.parametrize("k, center, spokes, message", [
        (2, 0, [(1, 2)], "witness has 1 spokes, expected 2"),
        (None, 6, [(1, 2)], "fan vertex 6 is not a vertex of the graph"),
        (None, 0, [(1, 2), (2, 3)], "fan vertices are not distinct"),
        (None, 0, [(1, 2), (3, 5)], "spoke pair (3, 5) not adjacent"),
        (None, 0, [(1, 2), (4, 5)], "center 0 not adjacent to spoke (4, 5)"),
        (None, 0, [(1, 2), (3, 4)], "center 0 not adjacent to spoke (3, 4)"),
        # the first faulty spoke is named, and its spoke test comes first
        (None, 0, [(1, 4), (3, 5)], "center 0 not adjacent to spoke (1, 4)"),
        (None, 0, [(1, 5), (3, 4)], "spoke pair (1, 5) not adjacent"),
        (None, 0, [(2, 4), (3, 5)], "spoke pair (2, 4) not adjacent"),
    ])
    @pytest.mark.parametrize("build", ["rows", "masks"])
    def test_validate_names_each_fault(self, k, center, spokes, message, build):
        # 0 is joined to 1, 2, 3 and 5, not to 4; 1-2, 3-4, 4-5 and 1-4 are
        # edges; the masks form holds no rows, as a coloring's graphs do
        edges = [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (3, 4), (4, 5), (1, 4)]
        g = Graph(6, edges) if build == "rows" else \
            TwoColoring.from_red_edges(6, edges).red
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_fan_witness(g, FanWitness(center, spokes), k)
        assert build == "rows" or g._row_cache is None

    @pytest.mark.parametrize("center, spokes", [(-1, [(0, 1)]), (4, [(0, 1)]),
                                                (0, [(1, -1)]), (0, [(1, 4)])])
    def test_validate_rejects_ids_outside_the_graph(self, center, spokes):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        with pytest.raises(ValueError, match="not a vertex of the graph"):
            validate_fan_witness(k4, FanWitness(center, spokes))

    @pytest.mark.parametrize("center, spokes", [(99, []), (-1, []), (True, []),
                                                (True, [(2, 3)]), (0.0, [(1, 2)])])
    def test_validate_rejects_a_center_that_is_not_a_vertex(self, center, spokes):
        # the id rule of Graph: an int in 0..n-1, and never a bool
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        with pytest.raises(ValueError, match=f"fan vertex {center!r} is not a vertex"):
            validate_fan_witness(k4, FanWitness(center, spokes))


class TestFindFan:
    def test_triangle_is_smallest_fan(self):
        assert find_fan(Graph(3, [(0, 1), (1, 2), (0, 2)]), 1) is not None
        assert find_fan(Graph(3, [(0, 1), (1, 2)]), 1) is None

    def test_matches_oracle_random(self):
        rng = random.Random(55)
        for _ in range(10000):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.9]))
            for k in (1, 2, 3, 4):
                w = find_fan(g, k)
                assert (w is not None) == fan_exists_oracle(g, k)
                if w is not None:
                    validate_fan_witness(g, w, k)

    def test_extremal_graph_has_no_fan(self):
        # bipartite half plus two triangles is F_3-free but dense
        g = turan_lower(20, 3)
        assert find_fan(g, 3) is None
        assert find_fan(g, 2) is not None

    def test_one_edge_tips_it(self):
        g = turan_lower(20, 3)
        half = [v for v in range(10) if not any(
            g.has_edge(v, u) for u in range(10))]
        added = Graph(20, g.edges() + [(half[0], half[1])])
        assert find_fan(added, 3) is not None

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            find_fan(Graph(3, []), 0)

    def test_low_degree_graph_builds_no_masks(self):
        # no degree reaches 2k, so find_fan decides from the degrees alone
        # and Graph.bits never builds its n masks
        g = Graph(20_000, [(0, 1), (1, 2), (0, 2), (5, 19_999)])
        assert find_fan(g, 2) is None
        assert g._bits is None
        assert find_fan(g, 1) is not None and g._bits is not None

    @pytest.mark.parametrize("k", [1.5, True, "1"], ids=["float", "bool", "str"])
    def test_rejects_non_int_k(self, k):
        # 1.5 would be compared as a size and True read as 1
        with pytest.raises(ValueError, match=f"k must be an int, got {k!r}"):
            find_fan(Graph(5, [(0, 1)]), k)


class TestFindMonoFan:
    def test_red_scanned_first(self):
        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        color, w = find_mono_fan(TwoColoring(3, triangle), 1)
        assert color == RED
        validate_fan_witness(triangle, w, 1)

    def test_blue_fallback(self):
        k = TwoColoring(3, Graph(3, []))
        color, w = find_mono_fan(k, 1)
        assert color == BLUE

    def test_none_when_absent(self):
        assert find_mono_fan(chromatic_lower(3), 3) is None

    @pytest.mark.parametrize("n", [1.5, True], ids=["float", "bool"])
    def test_rejects_non_int_n(self, n):
        with pytest.raises(ValueError, match=f"n must be an int, got {n!r}"):
            find_mono_fan(TwoColoring(3, Graph(3, [])), n)


def test_max_blue_star():
    k = TwoColoring(5, Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))
    v, d = max_blue_star(k)
    assert d == 3 and v != 0
    solo = TwoColoring(1, Graph(1, []))
    assert max_blue_star(solo) == (0, 0)


class TestMultipartiteMatching:
    def test_bound_examples(self):
        assert multipartite_matching_bound(MultipartiteSpec([2, 2, 2])) == 6
        assert multipartite_matching_bound(MultipartiteSpec([1, 1, 4])) == 4
        assert multipartite_matching_bound(MultipartiteSpec([2, 3])) == 4

    def test_bound_rejects_single_part(self):
        with pytest.raises(ValueError):
            multipartite_matching_bound(MultipartiteSpec([5]))

    def test_matching_matches_bound_all_small(self):
        for t in range(2, 5):
            for sizes in itertools.product(range(1, 5), repeat=t):
                spec = MultipartiteSpec(sizes)
                ranges = spec.part_ranges()
                edges = multipartite_matching([list(r) for r in ranges])
                assert 2 * len(edges) == multipartite_matching_bound(spec)
                seen = set()
                for u, w in edges:
                    assert u not in seen and w not in seen
                    seen.update((u, w))
                    part_of = {v: i for i, r in enumerate(ranges) for v in r}
                    assert part_of[u] != part_of[w]

    def test_matching_accepts_arbitrary_labels(self):
        edges = multipartite_matching([[10, 20], [30], [40, 50]])
        assert len(edges) == 2


class TestCycleOracle:
    def test_small_cases(self):
        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert cycle_oracle(triangle, 3)
        assert not cycle_oracle(triangle, 4)
        square = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not cycle_oracle(square, 3)
        assert cycle_oracle(square, 4)

    def test_length_out_of_range(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not cycle_oracle(g, 2)
        assert not cycle_oracle(g, 5)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            cycle_oracle(Graph(13, []), 3)

    def test_balanced_multipartite_pancyclic(self):
        # three or more parts, none exceeding half: every length appears
        g = build_complete_multipartite(MultipartiteSpec([2, 2, 2]))
        assert all(cycle_oracle(g, length) for length in range(3, 7))

    def test_dominant_part_caps_length(self):
        # one part larger than half: lengths stop at twice the rest
        spec = MultipartiteSpec([1, 1, 4])
        g = build_complete_multipartite(spec)
        cap = 2 * (spec.total - spec.part_sizes[-1])
        for length in range(3, spec.total + 1):
            assert cycle_oracle(g, length) == (length <= cap)

    def test_bipartite_even_only(self):
        g = build_complete_multipartite(MultipartiteSpec([2, 3]))
        for length in range(3, 6):
            assert cycle_oracle(g, length) == (length == 4)


def build_case_i():
    # four X parts of two, small Y, v sees six Z vertices
    xs = [[0, 1], [2, 3], [4, 5], [6, 7]]
    y = [8, 9]
    z = list(range(10, 16))
    edges = []
    parts = xs + [y]
    for i, p in enumerate(parts):
        for pp in parts[i + 1:]:
            edges += [(u, w) for u in p for w in pp]
    edges += [(0, zz) for zz in z]
    edges += [(10, 11), (12, 13), (8, 14)]
    host = Graph(16, edges)
    inst = FanExtensionInstance(host, xs, y, z, lam=2, n=5)
    m = Matching([(10, 11), (12, 13), (8, 14)])
    return inst, m


def build_case_ii():
    xs = [[0, 1], [2, 3], [4, 5]]
    y = [6, 7]
    z = list(range(8, 14))
    edges = []
    parts = xs + [y]
    for i, p in enumerate(parts):
        for pp in parts[i + 1:]:
            edges += [(u, w) for u in p for w in pp]
    edges += [(0, zz) for zz in z]
    edges += [(8, 9), (6, 10), (7, 11)]
    host = Graph(14, edges)
    inst = FanExtensionInstance(host, xs, y, z, lam=2, n=4)
    m = Matching([(8, 9), (6, 10), (7, 11)])
    return inst, m


def build_case_iii():
    xs = [[0, 1], [2, 3]]
    y = list(range(4, 10))
    z = list(range(10, 16))
    edges = []
    parts = xs + [y]
    for i, p in enumerate(parts):
        for pp in parts[i + 1:]:
            edges += [(u, w) for u in p for w in pp]
    edges += [(0, zz) for zz in z]
    edges += [(4, 10), (5, 11), (6, 12), (7, 13), (8, 14)]
    host = Graph(16, edges)
    inst = FanExtensionInstance(host, xs, y, z, lam=2, n=5)
    m = Matching([(4, 10), (5, 11), (6, 12), (7, 13), (8, 14)])
    return inst, m


class TestFanExtensionInstance:
    def test_q_and_x(self):
        inst, _ = build_case_i()
        assert inst.x == frozenset(range(8))
        assert inst.q == 2 * 5 - 10

    def test_rejects_oversized_part(self):
        host = build_complete_multipartite(MultipartiteSpec([3, 3]))
        with pytest.raises(ValueError):
            FanExtensionInstance(host, [[0, 1, 2]], [3, 4, 5], [], lam=2, n=4)

    def test_rejects_non_cover(self):
        host = Graph(4, [(0, 1)])
        with pytest.raises(ValueError):
            FanExtensionInstance(host, [[0]], [1], [2], lam=1, n=1)

    def test_rejects_missing_cross_edge(self):
        host = Graph(4, [(0, 1)])  # pair (0, 2) should be an edge but is not
        with pytest.raises(ValueError):
            FanExtensionInstance(host, [[0]], [2], [1, 3], lam=1, n=1)

    def test_rejects_edge_inside_part(self):
        host = Graph(4, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError):
            FanExtensionInstance(host, [[0], [1, 2]], [], [3], lam=2, n=2)

    @pytest.mark.parametrize("change, message", [
        ({"n": 0}, "n must be positive"),
        ({"n": 1.9}, "n must be an int, got 1.9"),
        ({"n": True}, "n must be an int, got True"),
        ({"lam": 0.5}, "lambda must be at least 1"),
        ({"x_parts": [[0, 1], []]}, "every X part must be non-empty"),
        ({"y": [1, 2, 3]}, "disjoint"),
        ({"n": 4}, r"\|X\| \+ \|Y\| must exceed n"),
    ], ids=["n-zero", "n-float", "n-bool", "lambda", "empty-part", "overlap",
            "small-xy"])
    def test_rejects_bad_argument(self, change, message):
        # K_{2,2} with X = {0, 1} and Y = {2, 3} is a valid instance at n = 1
        host = build_complete_multipartite(MultipartiteSpec([2, 2]))
        args = {"x_parts": [[0, 1]], "y": [2, 3], "z": [], "lam": 2, "n": 1}
        FanExtensionInstance(host, **args)
        with pytest.raises(ValueError, match=message):
            FanExtensionInstance(host, **{**args, **change})


class TestFanExtend:
    def test_case_i(self):
        inst, m = build_case_i()
        w = fan_extend(inst, "i", 0, m)
        assert w.k == 5
        validate_fan_witness(inst.host, w, 5)

    def test_case_ii(self):
        inst, m = build_case_ii()
        w = fan_extend(inst, "ii", 0, m)
        validate_fan_witness(inst.host, w, 4)

    def test_case_iii(self):
        inst, m = build_case_iii()
        w = fan_extend(inst, "iii", 0, m)
        validate_fan_witness(inst.host, w, 5)

    def test_case_i_negative_q_multipartite_shortcut(self):
        # X u Y alone already holds the fan; the matching only needs the audit
        xs = [[0, 1], [2, 3], [4, 5], [6, 7]]
        z = [8, 9, 10, 11]
        parts = xs
        edges = []
        for i, p in enumerate(parts):
            for pp in parts[i + 1:]:
                edges += [(u, w) for u in p for w in pp]
        edges += [(0, zz) for zz in z]
        edges += [(8, 9), (10, 11)]
        host = Graph(12, edges)
        inst = FanExtensionInstance(host, xs, [], z, lam=2, n=3)
        assert inst.q < 0
        w = fan_extend(inst, "i", 0, Matching([(8, 9), (10, 11)]))
        validate_fan_witness(inst.host, w, 3)

    def test_empty_z_boundary(self):
        # no Z at all: |X| + |Y| = 2n + 2*lambda + 1 suffices with an empty matching
        n, lam = 3, 2
        xs = [[0, 1], [2, 3], [4, 5], [6, 7]]
        y = [8, 9, 10]
        assert 8 + 3 == 2 * n + 2 * lam + 1
        parts = xs + [y]
        edges = []
        for i, p in enumerate(parts):
            for pp in parts[i + 1:]:
                edges += [(u, w) for u in p for w in pp]
        host = Graph(11, edges)
        inst = FanExtensionInstance(host, xs, y, [], lam=lam, n=n)
        w = fan_extend(inst, "i", 0, Matching([]))
        validate_fan_witness(inst.host, w, n)

    def test_audit_rejects_foreign_edge(self):
        inst, _ = build_case_i()
        bad = Matching([(2, 4)])  # inside X u Y, never allowed
        with pytest.raises(FanExtensionError) as exc:
            fan_extend(inst, "i", 0, bad)
        assert any("outside" in f for f in exc.value.failures)

    def test_audit_rejects_low_coverage(self):
        inst, _ = build_case_i()
        with pytest.raises(FanExtensionError) as exc:
            fan_extend(inst, "i", 0, Matching([(10, 11)]))
        assert any("Z coverage" in f for f in exc.value.failures)

    def test_audit_collects_multiple_failures(self):
        inst, _ = build_case_iii()
        with pytest.raises(FanExtensionError) as exc:
            fan_extend(inst, "ii", 0, Matching([]))
        joined = " ".join(exc.value.failures)
        assert "|Y| <= n" in joined and "coverage" in joined

    @pytest.mark.parametrize("builder, case, edges, message", [
        (build_case_iii, "i", None, "case (i) needs |X| > n + lambda"),
        (build_case_i, "iii", None, "case (iii) needs |Y| >= n"),
        (build_case_iii, "iii", [], "case (iii) needs Y u Z coverage"),
    ], ids=["i-x-size", "iii-y-size", "iii-coverage"])
    def test_audit_rejects_failed_case_hypothesis(self, builder, case, edges, message):
        inst, m = builder()
        with pytest.raises(FanExtensionError) as exc:
            fan_extend(inst, case, 0, m if edges is None else Matching(edges))
        assert any(f.startswith(message) for f in exc.value.failures)

    def test_audit_rejects_center_outside_x(self):
        inst, m = build_case_i()
        with pytest.raises(FanExtensionError):
            fan_extend(inst, "i", 9, m)

    def test_case_name_checked(self):
        inst, m = build_case_i()
        with pytest.raises(ValueError):
            fan_extend(inst, "iv", 0, m)

    def test_found_matching_feeds_extension(self):
        for builder, case, n in ((build_case_i, "i", 5),
                                 (build_case_ii, "ii", 4),
                                 (build_case_iii, "iii", 5)):
            inst, _ = builder()
            m = find_extension_matching(inst, case, 0)
            w = fan_extend(inst, case, 0, m)
            validate_fan_witness(inst.host, w, n)


class TestHighDegreeFan:
    def test_none_below_threshold(self):
        k = TwoColoring(5, Graph(5, [(0, 1), (0, 2)]))
        assert high_degree_fan(k, 2) is None

    @pytest.mark.parametrize("n", [1.5, True], ids=["float", "bool"])
    def test_rejects_non_int_n(self, n):
        with pytest.raises(ValueError, match=f"n must be an int, got {n!r}"):
            high_degree_fan(TwoColoring(7, Graph(7, [])), n)

    def test_red_clique(self):
        clique = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
        k = TwoColoring(7, clique)
        result = high_degree_fan(k, 2)
        assert result is not None
        color, w = result
        assert color == RED
        validate_fan_witness(k.red, w, 2)

    def test_blue_side(self):
        k = TwoColoring(7, Graph(7, []))
        color, w = high_degree_fan(k, 2)
        assert color == BLUE
        validate_fan_witness(k.blue, w, 2)

    def test_cross_color_rescue(self):
        # red star at 0: red degree 6 >= 3n but red neighborhood has no
        # red edge, so the fan comes from the blue side instead
        star = Graph(7, [(0, v) for v in range(1, 7)])
        k = TwoColoring(7, star)
        result = high_degree_fan(k, 2)
        assert result is not None
        color, w = result
        assert color == BLUE
        validate_fan_witness(k.blue, w, 2)

    def test_fan_at_or_inside_first_qualifying_vertex(self):
        # vertex 0 takes one color to every other vertex, so some pair
        # qualifies; a sparse color inside a neighbourhood pushes the fan
        # into the other color
        rng = random.Random(314)
        branches = set()
        for _ in range(400):
            n = rng.randint(1, 3)
            size = 3 * n + rng.randint(1, 3)
            p = rng.choice((0.1, 0.5, 0.9))
            hub_red = rng.random() < 0.5
            k = TwoColoring(size, Graph(size, [
                (u, v) for u in range(size) for v in range(u + 1, size)
                if (hub_red if u == 0 else rng.random() < p)]))
            v0, c0 = next((v, c) for v in range(size) for c in (RED, BLUE)
                          if k.degree(v, c) >= 3 * n)
            color, w = high_degree_fan(k, n)
            validate_fan_witness(k.graph(color), w, n)
            if color == c0:
                assert w.center == v0
            else:
                hood = set(k.neighbors(v0, c0))
                assert {w.center, *itertools.chain(*w.spokes)} <= hood
            branches.add(color == c0)
        assert branches == {True, False}

    def test_lemma_failure_raises(self, monkeypatch):
        # the red star's neighbourhood holds no red edge, so the fan must
        # come from find_fan on the blue side; without it the lemma fails
        monkeypatch.setattr(fans, "find_fan", lambda g, k: None)
        star = TwoColoring(7, Graph(7, [(0, v) for v in range(1, 7)]))
        with pytest.raises(RuntimeError, match="at vertex 0"):
            high_degree_fan(star, 2)

    def test_random_qualifying_always_finds(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(1, 3)
            size = 3 * n + rng.randint(1, 4)
            k = TwoColoring(size, random_graph(rng, size))
            if not any(k.degree(v, c) >= 3 * n for v in range(size)
                       for c in (RED, BLUE)):
                continue
            result = high_degree_fan(k, n)
            assert result is not None
            color, w = result
            validate_fan_witness(k.graph(color), w, n)


@st.composite
def graph_and_k(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    k = draw(st.integers(min_value=1, max_value=3))
    return Graph(n, picked), k


@given(graph_and_k())
@settings(max_examples=200, deadline=None)
def test_find_fan_agrees_with_oracle_property(gk):
    g, k = gk
    w = find_fan(g, k)
    assert (w is not None) == fan_exists_oracle(g, k)
    if w is not None:
        validate_fan_witness(g, w, k)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return random_graph(rng, n, draw(st.floats(min_value=0, max_value=1)))


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_fan_at_agrees_with_brute_matching_per_center(g):
    for v in range(g.n):
        sub, _ = induced(g, g.neighbors(v))
        nu = brute_matching(sub).size
        for k in range(1, g.n // 2 + 2):
            w = fans._fan_at(g, v, k)
            assert (w is None) == (nu < k)
            if w is not None:
                assert w.center == v
                validate_fan_witness(g, w, k)


@pytest.mark.parametrize("graph, k", [
    (turan_lower(40, 10), 10),
    (star_fan_lower_special(20)[0].red, 20),
    # the Turan inputs of the certify workload
    (turan_lower(120, 30), 30),
    (turan_lower(160, 40), 40),
    (turan_lower(200, 50), 50),
], ids=["turan-40-10", "special-20-red", "turan-120-30", "turan-160-40", "turan-200-50"])
def test_component_bound_decides_without_blossom(monkeypatch, graph, k):
    def no_blossom(g):
        raise AssertionError("blossom fallback reached")

    monkeypatch.setattr(fans, "max_matching", no_blossom)
    assert find_fan(graph, k) is None


def construction_graphs():
    """(graph, k) for the graphs the package builds at small orders: every
    Turan shape turan_lower(n, k) for n = 8..100 in steps of 4, and both
    colours of chromatic_lower(n) for n = 1..10, of star_fan_lower_special(n)
    for n = 4..60 and of the star-fan sweep star_fan_lower(m, n) for
    n = 2..18, m = n+1..2n+5, each with k = n."""
    graphs = [(turan_lower(n, k), k) for n in range(8, 101, 4) for k in range(1, (n + 1) // 2)]
    colorings = [(chromatic_lower(n), n) for n in range(1, 11)]
    colorings += [(star_fan_lower_special(n)[0], n) for n in range(4, 61)]
    for n in range(2, 19):
        for m in range(n + 1, 2 * n + 6):
            try:
                colorings.append((star_fan_lower(m, n)[0], n))
            except UnsupportedRangeError:
                pass
    for coloring, n in colorings:
        graphs += [(coloring.red, n), (coloring.blue, n)]
    return graphs


def test_fan_at_decides_every_cover_center_without_blossom():
    # every center where the greedy vertex cover that _fan_at once ran
    # before its blossom step is below k is decided by 2|M| < k, the bound
    # of the greedy matching's own ends
    graphs = construction_graphs()
    with mock.patch.object(fans, "_fan_at", wraps=fans._fan_at) as fan_at:
        for g, k in graphs:
            find_fan(g, k)
    # a center the component bound decides never reaches the blossom step;
    # of the others, keep those where the cover is below k
    open_centers = [(g, v, k) for g, v, k in (c.args for c in fan_at.call_args_list)
                    if fans._component_bound(g, v) >= k]
    by_cover = [(g, v, k) for g, v, k in open_centers
                if len(greedy_degree_cover(g, v, k)) < k]

    def no_blossom(g, v, k):
        raise AssertionError(f"blossom step reached at center {v}, k = {k}")

    with mock.patch.object(fans, "_blossom_fan", no_blossom):
        for g, v, k in by_cover:
            assert fans._fan_at(g, v, k) is None
    assert (len(graphs), len(by_cover)) == (1248, 506)


@pytest.mark.parametrize("k, b", [(3, 5), (10, 30), (20, 60)])
def test_fan_at_cover_only_case_takes_one_blossom_call(k, b):
    # N(0) is K_{k-2,b} plus the edge a-c inside the b side: not bipartite,
    # so the component bound is floor((k - 2 + b)/2) >= k; the greedy pairs
    # the small side with the first k - 2 of the b side, then takes a-c:
    # k - 1 edges, and 2(k - 1) >= k; the small side and a cover every edge,
    # so nu = k - 1 < k, which without that cover only the blossom proves
    small, big = range(1, k - 1), range(k - 1, k - 1 + b)
    a, c = big[-2], big[-1]
    g = Graph(k - 1 + b, [(0, u) for u in range(1, k - 1 + b)]
              + [(u, w) for u in small for w in big] + [(a, c)])
    assert len(greedy_degree_cover(g, 0, k)) == k - 1
    assert fans._component_bound(g, 0) >= k
    with mock.patch.object(fans, "_blossom_fan", wraps=fans._blossom_fan) as blossom:
        assert fans._fan_at(g, 0, k) is None
    assert blossom.call_count == 1
    assert fans._blossom_fan(g, 0, k - 1) is not None


@st.composite
def spread_graphs(draw):
    """A graph on up to 16 vertices whose ids are spread over 0..n-1 for n
    up to 4096: small n gives layers that are dense in their bit length,
    large ids give sparse ones. Random edges leave hood vertices isolated,
    split hoods into several components and close odd cycles."""
    n = draw(st.integers(min_value=2, max_value=4096))
    size = draw(st.integers(min_value=2, max_value=min(n, 16)))
    ids = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                        min_size=size, max_size=size, unique=True))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    p = draw(st.floats(min_value=0, max_value=1))
    return Graph(n, [(ids[a], ids[b]) for a, b in itertools.combinations(range(size), 2)
                     if rng.random() < p]), ids


@given(spread_graphs())
@settings(max_examples=300, deadline=None)
def test_component_bound_agrees_with_vertex_at_a_time_bound(gi):
    g, ids = gi
    for v in ids:
        assert fans._component_bound(g, v) == component_bound_by_vertex(g, v)


@pytest.mark.parametrize("n", [16, 4096])
def test_component_bound_cases(n):
    # hood of 0, at the top ids so that n = 4096 gives sparse layers: an
    # isolated vertex a; an edge b-c (bound 1); a K4 on d, e, f, h, odd (2,
    # where its smaller BFS side is 1); a tree i-j, i-x, j-y, j-z with
    # sides {i, y, z} and {j, x} (2)
    a, b, c, d, e, f, h, i, j, x, y, z = range(n - 12, n)
    edges = [(0, u) for u in (a, b, c, d, e, f, h, i, j, x, y, z)]
    edges += [(b, c), (d, e), (d, f), (d, h), (e, f), (e, h), (f, h),
              (i, j), (i, x), (j, y), (j, z)]
    g = Graph(n, edges)
    assert fans._component_bound(g, 0) == component_bound_by_vertex(g, 0) == 5


@st.composite
def blow_ups(draw):
    """A base graph on <= 6 vertices with each vertex replaced by an
    independent set or a clique of 1-4 vertices, ids shuffled: open twins
    (same N(v)) and closed twins (same N[v]) abound."""
    base = draw(st.integers(min_value=1, max_value=6))
    pairs = list(itertools.combinations(range(base), 2))
    base_edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    blocks, start = [], 0
    for _ in range(base):
        size = draw(st.integers(min_value=1, max_value=4))
        blocks.append((range(start, start + size), draw(st.booleans())))
        start += size
    ids = draw(st.permutations(range(start)))
    edges = []
    for block, clique in blocks:
        if clique:
            edges += itertools.combinations(block, 2)
    for i, j in base_edges:
        edges += itertools.product(blocks[i][0], blocks[j][0])
    return Graph(start, [(ids[u], ids[w]) for u, w in edges])


def centers_tried(call):
    """Run call() with fans._fan_at wrapped; its result and the centers tried."""
    with mock.patch.object(fans, "_fan_at", wraps=fans._fan_at) as fan_at:
        result = call()
    return result, [c.args[1] for c in fan_at.call_args_list]


@given(blow_ups())
@settings(max_examples=150, deadline=None)
def test_twin_skip_returns_the_every_center_witness(g):
    for graph in (g, complement(g)):
        bits = graph.bits
        for k in range(1, 5):
            expected, every = centers_tried(lambda: find_fan_every_center(graph, k))
            witness, tried = centers_tried(lambda: find_fan(graph, k))
            assert witness == expected
            # exactly the open and closed twins of centers tried are skipped
            kept = []
            for v in every:
                if not any(bits[u] == bits[v] or bits[u] | 1 << u == bits[v] | 1 << v
                           for u in kept):
                    kept.append(v)
            assert tried == kept


@pytest.mark.parametrize("graph, k, every, skipping", [
    (turan_lower(40, 10), 10, 40, 4),
    (star_fan_lower_special(20)[0].red, 20, 88, 66),
], ids=["turan-40-10", "special-20-red"])
def test_twin_skip_call_counts(graph, k, every, skipping):
    witness, tried = centers_tried(lambda: find_fan_every_center(graph, k))
    assert witness is None and len(tried) == every
    witness, tried = centers_tried(lambda: find_fan(graph, k))
    assert witness is None and len(tried) == skipping


@pytest.mark.parametrize("twins, k, witness", [
    # 0 and 1 both see the independent set {2, 3, 4, 5}: open twins
    ([(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)],
     1, FanWitness(6, [(7, 8)])),
    # 0 and 1 are adjacent and both see {2, 3, 4, 5}: closed twins
    ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)],
     2, FanWitness(6, [(7, 8), (9, 10)])),
], ids=["open", "closed"])
def test_twin_skip_fan_after_skipped_twin(twins, k, witness):
    # center 6 has the twins' degree and a later id, and its neighbourhood
    # holds the fan
    degree = sum(0 in e for e in twins)
    g = Graph(7 + degree, twins + [(6, u) for u in range(7, 7 + degree)]
              + [(7 + 2 * i, 8 + 2 * i) for i in range(k)])
    assert centers_tried(lambda: find_fan_every_center(g, k)) == (witness, [0, 1, 6])
    assert centers_tried(lambda: find_fan(g, k)) == (witness, [0, 6])


@st.composite
def blossom_cases(draw):
    """A random graph on up to 60 vertices, a centre v and k, with |N(v)|
    one below, at or one above the least size that holds half of the
    vertices, so that both branches of _blossom_fan run; the graph comes
    with its edges, to be built with rows and as masks."""
    n = draw(st.integers(min_value=2, max_value=60))
    v = draw(st.integers(min_value=0, max_value=n - 1))
    size = min(n - 1, max(0, (n + 1) // 2 + draw(st.sampled_from([-1, 0, 1]))))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    p = draw(st.floats(min_value=0, max_value=1))
    hood = rng.sample([u for u in range(n) if u != v], size)
    edges = [(v, u) for u in hood] + [
        (a, b) for a in range(n) for b in range(a + 1, n)
        if v not in (a, b) and rng.random() < p]
    k = draw(st.integers(min_value=1, max_value=size // 2 + 1))
    return n, edges, v, k


@given(blossom_cases())
@settings(max_examples=300, deadline=None)
def test_blossom_fan_agrees_with_relabelled_matching(case):
    n, edges, v, k = case
    for g in (Graph(n, edges), TwoColoring.from_red_edges(n, edges).red):
        w = fans._blossom_fan(g, v, k)
        assert w == blossom_fan_by_relabelling(g, v, k)
        if w is not None:
            validate_fan_witness(g, w, k)


@pytest.mark.parametrize("size, relabels", [(4, 1), (5, 0), (6, 0)])
def test_blossom_fan_relabels_only_a_hood_below_half(monkeypatch, size, relabels):
    # n = 10: a hood of 5 or more vertices is matched in the host's ids, and
    # a smaller one through the relabelled copy that induced makes
    calls = []

    def counting_induced(g, vertices):
        calls.append(vertices)
        return induced(g, vertices)

    monkeypatch.setattr(fans, "induced", counting_induced)
    hood = range(1, size + 1)
    g = Graph(10, [(0, u) for u in hood] + list(itertools.pairwise(hood)))
    w = fans._blossom_fan(g, 0, 2)
    assert len(calls) == relabels
    assert w == blossom_fan_by_relabelling(g, 0, 2)
    validate_fan_witness(g, w, 2)


@pytest.mark.parametrize("n", [*range(10, 41, 3), 100, 200])
def test_blossom_fan_on_conditioned_hubs(n):
    # the hub 0 has degree 3n in its colour, three quarters of the vertices,
    # and degree 0 in the other; vertices 1 and 2 have hoods near half
    k = conditioned_coloring(random.Random(n), n)
    for color in (RED, BLUE):
        g = k.graph(color)
        for v in (0, 1, 2):
            for size in (1, n // 2, n):
                assert fans._blossom_fan(g, v, size) == \
                    blossom_fan_by_relabelling(g, v, size)
    hub = RED if k.red.degree(0) == 3 * n else BLUE
    assert fans._blossom_fan(k.graph(hub), 0, n) is not None
    assert fans._blossom_fan(k.graph(opposite(hub)), 0, 1) is None


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_blossom_fan_decodes_only_the_rows_its_searches_read(monkeypatch, seed):
    # the hub of K_121 has a hood of 120 vertices, matched on masks: the
    # greedy reads none of its rows, and each row a search reads is decoded
    # once, on its first read (seed 1 runs no search, seeds 2 and 4 one)
    k = conditioned_coloring(random.Random(seed), 40)
    g = k.graph(RED if k.red.degree(0) == 120 else BLUE)
    decoded, reads = [], []
    members = matching._members
    search = matching._find_augmenting_path

    def decode(mask):
        decoded.append(mask)
        return members(mask)

    class Reads:
        def __init__(self, rows):
            self.rows = rows

        def __getitem__(self, v):
            reads.append(v)
            return self.rows[v]

    def spy(rows, *rest):
        return search(Reads(rows), *rest)

    monkeypatch.setattr(matching, "_members", decode)
    monkeypatch.setattr(matching, "_find_augmenting_path", spy)
    w = fans._blossom_fan(g, 0, 40)
    hood_mask = g.bits[0]
    assert decoded == [g.bits[v] & hood_mask for v in dict.fromkeys(reads)]
    assert len(decoded) < 10
    monkeypatch.undo()
    assert w == blossom_fan_by_relabelling(g, 0, 40)

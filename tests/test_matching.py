import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanramsey import (
    BLUE,
    RED,
    Graph,
    Matching,
    TwoColoring,
    build_complete_multipartite,
    MultipartiteSpec,
    edmonds_gallai,
    eg_neighborhood_structure,
    induced,
    konig_cover,
    matching_number,
    max_matching,
    star_fan_lower,
    star_fan_lower_special,
)
from fanramsey import matching
from fanramsey.matching import EGPartition
from oracles import (_isolate, brute_matching, cross_color_by_pairs,
                     enumerate_maximum_matchings, konig_cover_from, validate_graph)


def random_graph(rng, n, p=0.5):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def structured_graph(rng, max_n=40):
    """Up to max_n vertices, ids shuffled: a few isolated vertices, disjoint
    3-, 5- and 7-cycles that force blossoms, stars, and random edges."""
    n = rng.randint(0, max_n)
    ids = rng.sample(range(n), n)
    isolated = rng.randint(0, min(n, 5))
    pool = ids[isolated:]
    edges = []
    while len(pool) >= 3 and rng.random() < 0.6:
        size = rng.choice([3, 5, 7])
        cycle, pool = pool[:size], pool[size:]
        edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    while len(pool) >= 2 and rng.random() < 0.3:
        size = rng.randint(2, 6)
        star, pool = pool[:size], pool[size:]
        edges += [(star[0], leaf) for leaf in star[1:]]
    live = ids[isolated:]
    p = rng.choice([0.0, 0.05, 0.15, 0.4, 0.8])
    edges += [(u, v) for u, v in itertools.combinations(live, 2) if rng.random() < p]
    return Graph(n, edges)


def first_matching(g):
    """max_matching(g), its mate list and the neighbours of the vertices it
    misses, as edmonds_gallai hands them on; read through has_edge, so a
    masks graph keeps no rows."""
    m = max_matching(g)
    mates = [-1] * g.n
    for a, b in m.edges:
        mates[a], mates[b] = b, a
    hubs = {y for x in range(g.n) if mates[x] == -1 for y in range(g.n) if g.has_edge(x, y)}
    return m, mates, hubs


def both_forms(g):
    """g with rows and the same graph on masks alone."""
    return g, Graph._from_rows(None, g.bits)


def check_eg(g):
    """Assert the decomposition against every maximum matching of g.

    D must be exactly the components of the inessential vertices (those
    missed by some maximum matching), A their outside neighborhood, and
    every maximum matching must be perfect on C, near-perfect in each D_i,
    and match A into distinct D_i.
    """
    part = edmonds_gallai(g)
    matchings = enumerate_maximum_matchings(g)
    nu = max_matching(g).size
    assert all(m.size == nu for m in matchings)

    covered_everywhere = set(range(g.n))
    for m in matchings:
        covered_everywhere &= m.vertices()
    inessential = set(range(g.n)) - covered_everywhere
    d_vertices = set().union(*part.D) if part.D else set()
    assert d_vertices == inessential
    expect_a = set()
    for v in inessential:
        expect_a.update(set(g.neighbors(v)) - inessential)
    assert set(part.A) == expect_a
    assert set(part.C) == set(range(g.n)) - d_vertices - expect_a

    assert part.p == len(part.D)
    assert part.deficiency == g.n - 2 * nu
    assert part.p == len(part.A) + part.deficiency
    assert part.nu == nu
    assert 2 * nu == 2 * len(part.A) + len(part.C) + sum(len(d) - 1 for d in part.D)
    assert all(len(d) % 2 == 1 for d in part.D)

    index_of = {}
    for i, d in enumerate(part.D):
        for v in d:
            index_of[v] = i
    for m in matchings:
        c_covered = set()
        hit_components = []
        inside = [0] * part.p
        for u, v in m.edges:
            if u in part.C and v in part.C:
                c_covered.update((u, v))
            elif (u in part.A) != (v in part.A):
                w = v if u in part.A else u
                assert w in d_vertices
                hit_components.append(index_of[w])
            else:
                assert u in d_vertices and v in d_vertices
                assert index_of[u] == index_of[v]
                inside[index_of[u]] += 2
        assert c_covered == set(part.C)
        assert len(hit_components) == len(set(hit_components)) == len(part.A)
        for i, d in enumerate(part.D):
            assert inside[i] == len(d) - 1

    # factor-critical odd components
    for d in part.D:
        members = sorted(d)
        for leave in members:
            keep = [v for v in members if v != leave]
            sub_edges = [(keep.index(u), keep.index(v)) for u, v in g.edges()
                         if u in keep and v in keep]
            sub = Graph(len(keep), sub_edges)
            assert max_matching(sub).size * 2 == len(keep)


class TestMatchingObject:
    def test_validate_rejects_shared_vertex(self):
        g = Graph(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            Matching([(0, 1), (1, 2)]).validate(g)

    def test_validate_rejects_non_edge(self):
        g = Graph(4, [(0, 1)])
        with pytest.raises(ValueError):
            Matching([(2, 3)]).validate(g)

    @pytest.mark.parametrize("edge", [(-1, 0), (0, 3), (3, 4)])
    def test_validate_rejects_ids_outside_the_graph(self, edge):
        g = Graph(3, [(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="not in graph"):
            Matching([edge]).validate(g)

    @pytest.mark.parametrize("edges, bad", [([(0, "a")], "'a'"), ([(True, 2)], "True")])
    def test_rejects_an_id_that_is_not_an_int(self, edges, bad):
        # a ValueError naming the id, not the sort's TypeError
        with pytest.raises(ValueError, match=f"matching vertex {bad} is not an int"):
            Matching(edges)

    def test_size_and_vertices(self):
        m = Matching([(3, 1), (0, 2)])
        assert m.size == 2
        assert m.vertices() == frozenset({0, 1, 2, 3})


class TestMaxMatching:
    def test_exhaustive_small(self):
        for n in range(7):
            for g in all_graphs(n):
                assert max_matching(g).size == brute_matching(g).size

    def test_random_vs_brute(self):
        rng = random.Random(101)
        for _ in range(5000):
            n = rng.randint(1, 14)
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.8]))
            m = max_matching(g)
            m.validate(g)
            assert m.size == brute_matching(g).size

    def test_petersen(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        petersen = Graph(10, outer + inner + spokes)
        assert matching_number(petersen) == 5

    def test_odd_cycles_need_blossoms(self):
        for n in (3, 5, 7, 9, 11):
            cycle = Graph(n, [(i, (i + 1) % n) for i in range(n)])
            assert matching_number(cycle) == n // 2

    def test_no_search_without_a_later_exposed_vertex(self, monkeypatch):
        # greedy matches 0-1 and leaves 2, 3 and 4 exposed; the search from 2
        # augments along 2-0-1-3, after which 4 is the last exposed vertex
        # with a neighbour: a path from it has nowhere to end, so no search
        roots = []
        search = matching._find_augmenting_path

        def spy(rows, match, parent, root, *rest):
            roots.append(root)
            return search(rows, match, parent, root, *rest)

        monkeypatch.setattr(matching, "_find_augmenting_path", spy)
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (0, 4)])
        assert max_matching(g).edges == ((0, 2), (1, 3))
        assert roots == [2]

    @pytest.mark.parametrize("n, edges, matched, reads", [
        # greedy matches 0-1 and leaves 2, 3 and 4 exposed; the search from 2
        # enqueues 2 and 1 and fails, so its tree is {2, 1} and 1's mate 0.
        # 3's only neighbour is in that tree: its search dequeues only 3
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)], ((0, 1),), {2: [2, 1], 3: [3]}),
        # that star and the path 7-5-6-8, on which greedy matches 5-6: the
        # searches from 2, 3 and 4 fail, and the one from 7 augments outside
        # their trees
        (9, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (5, 7), (6, 8)],
         ((0, 1), (5, 7), (6, 8)), {2: [2, 1], 3: [3], 4: [4], 7: [7, 6]}),
    ])
    def test_search_skips_the_trees_of_failed_searches(self, monkeypatch, n, edges,
                                                       matched, reads):
        # per search root, the rows the search reads: one per dequeued vertex
        seen = {}
        search = matching._find_augmenting_path

        class Recorder:
            def __init__(self, rows, log):
                self.rows, self.log = rows, log

            def __len__(self):
                return len(self.rows)

            def __getitem__(self, v):
                self.log.append(v)
                return self.rows[v]

        def spy(rows, match, parent, root, *rest):
            seen[root] = []
            return search(Recorder(rows, seen[root]), match, parent, root, *rest)

        monkeypatch.setattr(matching, "_find_augmenting_path", spy)
        assert max_matching(Graph(n, edges)).edges == matched
        assert seen == reads

    def test_masks_graph_matches_as_its_rows(self):
        # a graph on masks alone runs the greedy on its masks and decodes
        # rows as the searches read them: the edges must be those of the
        # same graph with rows, and the graph must keep no rows
        rng = random.Random(26)
        for _ in range(1500):
            g = structured_graph(rng)
            masks = Graph._from_rows(None, g.bits)
            assert max_matching(masks).edges == max_matching(g).edges
            assert masks._row_cache is None

    def test_warm_start_from_m_without_the_edge_at_v(self):
        # edmonds_gallai matches each G - v from its first maximum matching
        # M: for every v, in both forms, the result must be a matching of
        # G - v that misses v, of the cold call's size, and of the oracle's
        # where it is feasible; the masks graph must keep no rows
        rng = random.Random(27)
        for _ in range(300):
            g = structured_graph(rng)
            for form in both_forms(g):
                m, mates, hubs = first_matching(form)
                for v in range(g.n):
                    h = _isolate(g, v)
                    warm = max_matching(form, _without=(m, mates, hubs, v))
                    warm.validate(h)
                    assert v not in warm.vertices()
                    assert warm.size == max_matching(h).size
                    if g.n <= 14:
                        assert warm.size == brute_matching(h).size
                assert form._row_cache is None or form is g

    def test_vertex_m_misses_returns_m_itself(self, monkeypatch):
        # M misses v: M is a maximum matching of G - v, handed back as it
        # is, with no search
        def no_search(*args):
            raise AssertionError("a search ran")

        rng = random.Random(28)
        missed = 0
        for _ in range(300):
            for form in both_forms(structured_graph(rng)):
                m, mates, hubs = first_matching(form)
                with monkeypatch.context() as patch:
                    patch.setattr(matching, "_find_augmenting_path", no_search)
                    for v in range(form.n):
                        if mates[v] == -1:
                            assert max_matching(form, _without=(m, mates, hubs, v)) is m
                            missed += 1
        assert missed > 1000

    def test_one_search_from_the_former_mate(self, monkeypatch):
        # M matches v to u: one search runs, rooted at u with v alone dead,
        # when a vertex M misses has a neighbour in G - v, and none
        # otherwise; the mate list is left as it was
        log = []
        search = matching._find_augmenting_path

        def spy(rows, match, parent, root, dead, *rest):
            log.append((root, [x for x, d in enumerate(dead) if d]))
            return search(rows, match, parent, root, dead, *rest)

        monkeypatch.setattr(matching, "_find_augmenting_path", spy)
        rng = random.Random(29)
        counts = {0: 0, 1: 0}
        for _ in range(300):
            g = structured_graph(rng)
            for form in both_forms(g):
                m, mates, hubs = first_matching(form)
                given = mates.copy(), hubs.copy()
                for v in range(g.n):
                    u = mates[v]
                    if u == -1:
                        continue
                    h = _isolate(g, v)
                    searched = any(mates[x] == -1 and h.neighbors(x) for x in range(g.n))
                    log.clear()
                    max_matching(form, _without=(m, mates, hubs, v))
                    assert log == ([(u, [v])] if searched else [])
                    counts[len(log)] += 1
                assert (mates, hubs) == given
        assert min(counts.values()) > 1000

    def test_no_search_or_a_failed_one_gives_m_less_uv(self, monkeypatch):
        # with no search, or one that fails, the result is M less v's edge:
        # the mate list with u and v cleared, edge for edge; mates and hubs
        # are left as they were
        ends = []
        search = matching._find_augmenting_path

        def spy(*args):
            ends.append(search(*args))
            return ends[-1]

        monkeypatch.setattr(matching, "_find_augmenting_path", spy)
        rng = random.Random(30)
        counts = {"missed": 0, "none": 0, "failed": 0, "augmented": 0}
        for _ in range(300):
            for form in both_forms(structured_graph(rng)):
                m, mates, hubs = first_matching(form)
                given = mates.copy(), hubs.copy()
                for v in range(form.n):
                    ends.clear()
                    warm = max_matching(form, _without=(m, mates, hubs, v))
                    u = mates[v]
                    kind = ("missed" if u == -1 else "none" if not ends
                            else "failed" if ends == [-1] else "augmented")
                    counts[kind] += 1
                    if kind == "augmented":
                        continue
                    cleared = mates.copy()
                    if u != -1:
                        cleared[u] = cleared[v] = -1
                    assert warm.edges == Matching._from_mates(cleared).edges
                assert (mates, hubs) == given
        assert min(counts.values()) > 1000, counts

    @pytest.mark.parametrize("n, edges, v, matched", [
        # the path 0-1-2: greedy matches 0-1 and leaves one exposed vertex
        (3, [(0, 1), (1, 2)], None, ((0, 1),)),
        # a perfect matching leaves none
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)], None, ((0, 1), (2, 3))),
        # the path less 2, from M = {0-1}: M misses 2
        (3, [(0, 1), (1, 2)], 2, ((0, 1),)),
        # the 4-cycle less 3, from M less 2-3: M misses no vertex
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 3, ((0, 1),)),
        # an edgeless graph
        (5, [], None, ()),
        # the path less 1, from M less 0-1: 2, which M misses, has no
        # neighbour but 1
        (3, [(0, 1), (1, 2)], 1, ()),
    ])
    def test_no_search_below_two_exposed_vertices(self, monkeypatch, n, edges, v,
                                                  matched):
        # fewer than two exposed vertices with a neighbour: the matching is
        # maximum as it stands, and the call returns without a search
        def no_search(*args):
            raise AssertionError("a search ran")

        for g in both_forms(Graph(n, edges)):
            start = None if v is None else (*first_matching(g), v)
            with monkeypatch.context() as patch:
                patch.setattr(matching, "_find_augmenting_path", no_search)
                assert max_matching(g, _without=start).edges == matched

    def test_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(7)
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 16))
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            expect = len(nx.max_weight_matching(h, maxcardinality=True))
            assert matching_number(g) == expect


class TestEnumerate:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        found = {m.edges for m in enumerate_maximum_matchings(g)}
        assert found == {((0, 1),), ((1, 2),), ((0, 2),)}

    def test_counts_against_filter(self):
        rng = random.Random(13)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 8))
            nu = matching_number(g)
            listed = enumerate_maximum_matchings(g)
            assert len({m.edges for m in listed}) == len(listed)
            total = sum(1 for m in listed)
            expect = _count_max_matchings(g, nu)
            assert total == expect


def _count_max_matchings(g, nu):
    edges = g.edges()
    count = 0
    for subset in itertools.combinations(edges, nu):
        seen = set()
        ok = True
        for u, v in subset:
            if u in seen or v in seen:
                ok = False
                break
            seen.update((u, v))
        if ok:
            count += 1
    return count


class TestEdmondsGallai:
    def test_path_three(self):
        part = edmonds_gallai(Graph(3, [(0, 1), (1, 2)]))
        assert set().union(*part.D) == {0, 2}
        assert part.A == frozenset({1})
        assert part.C == frozenset()
        assert part.p == 2 and part.deficiency == 1 and part.nu == 1

    def test_triangle(self):
        part = edmonds_gallai(Graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert part.D == (frozenset({0, 1, 2}),)
        assert part.A == frozenset() and part.C == frozenset()
        assert part.p == 1 and part.deficiency == 1

    def test_complete_four(self):
        g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        part = edmonds_gallai(g)
        assert part.D == () and part.A == frozenset()
        assert part.C == frozenset(range(4))
        assert part.p == 0 and part.deficiency == 0 and part.nu == 2

    def test_exhaustive_small(self):
        for n in range(6):
            for g in all_graphs(n):
                check_eg(g)

    def test_random_medium(self):
        rng = random.Random(997)
        for _ in range(150):
            n = rng.randint(7, 12)
            check_eg(random_graph(rng, n, rng.choice([0.15, 0.25, 0.4])))

    def test_disjoint_edges_build_no_matching_per_vertex(self, monkeypatch):
        # n/2 disjoint edges: M is perfect, so hubs is empty, no G - v
        # searches, and each gets M less v's edge as a slice; only the cold
        # call builds a matching from a mate list
        calls = {"from_mates": 0, "search": 0}
        from_mates = Matching._from_mates.__func__

        def count_from_mates(cls, match):
            calls["from_mates"] += 1
            return from_mates(cls, match)

        def count_search(*args):
            calls["search"] += 1
            return -1

        monkeypatch.setattr(Matching, "_from_mates", classmethod(count_from_mates))
        monkeypatch.setattr(matching, "_find_augmenting_path", count_search)
        n = 2000
        part = edmonds_gallai(Graph(n, [(v, v + 1) for v in range(0, n, 2)]))
        assert (part.nu, part.deficiency, part.D, part.A) == (n // 2, 0, (), frozenset())
        assert calls == {"from_mates": 1, "search": 0}

    def test_json_dict(self):
        part = edmonds_gallai(Graph(3, [(0, 1), (1, 2)]))
        data = part.to_json_dict()
        assert data["A"] == [1] and data["p"] == 2


class TestKonigCover:
    def test_cover_size_equals_nu(self):
        rng = random.Random(19)
        for _ in range(300):
            a = rng.randint(1, 6)
            b = rng.randint(1, 6)
            edges = [(u, a + w) for u in range(a) for w in range(b)
                     if rng.random() < 0.5]
            g = Graph(a + b, edges)
            cover = konig_cover(g, (range(a), range(a, a + b)))
            assert cover.size == max_matching(g).size
            chosen = set(cover.vertices)
            for u, v in g.edges():
                assert u in chosen or v in chosen

    def test_same_cover_from_every_maximum_matching(self):
        # the cover konig_cover reads off its own matching is the one every
        # other maximum matching gives
        rng = random.Random(23)
        for _ in range(200):
            a = rng.randint(1, 5)
            b = rng.randint(1, 5)
            edges = [(u, a + w) for u in range(a) for w in range(b)
                     if rng.random() < rng.choice([0.3, 0.5, 0.7])]
            g = Graph(a + b, edges)
            cover = konig_cover(g, (range(a), range(a, a + b))).vertices
            for m in enumerate_maximum_matchings(g):
                assert konig_cover_from(g, frozenset(range(a)), m) == cover

    def test_rejects_non_bipartite_edge(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            konig_cover(g, ([0, 1], [2]))

    @pytest.mark.parametrize("sides, bad", [(([True], [0]), "True"), (([1, True], [0]), "True"),
                                            (([1], [0.0]), "0.0")])
    def test_rejects_ids_that_are_not_ints(self, sides, bad):
        # True == 1, so {True} and {0} once passed as a partition of {0, 1}
        with pytest.raises(ValueError, match=f"vertex must be an int, got {bad}"):
            konig_cover(Graph(2, [(0, 1)]), sides)

    @pytest.mark.parametrize("sides", [([0, 1], [1, 2, 3]), ([0, 1], [2])],
                             ids=["overlap", "missing"])
    def test_rejects_sides_that_do_not_partition(self, sides):
        g = Graph(4, [(0, 2), (1, 3)])
        with pytest.raises(ValueError, match="partition"):
            konig_cover(g, sides)


class TestEgNeighborhood:
    def test_construction_facts(self):
        k, params = star_fan_lower(10, 5)
        for v in (0, params.a, 2 * params.a):
            report = eg_neighborhood_structure(k, v, RED, 5)
            assert report.applicable
            assert report.nu <= 4
            assert report.window_ok
            assert report.identity_ok
            assert report.component_bound_ok
            assert report.cross_color_ok
            data = report.to_json_dict()
            assert data["partition"]["p"] == report.partition.p

    def test_cross_color_agrees_with_pair_loop(self):
        # hoods of the special coloring, as the decompose benchmark picks
        # them, and random colorings with hoods in both colours
        rng = random.Random(29)
        k, params = star_fan_lower_special(20)
        cases = [(k, v, RED, 20) for block in (params.x1, params.x2, params.y1, params.y2)
                 for v in sorted(rng.sample(block, 3))]
        for _ in range(150):
            order = rng.randint(2, 14)
            cases.append((TwoColoring(order, random_graph(rng, order, rng.random())),
                          rng.randrange(order), rng.choice((RED, BLUE)), rng.randint(1, 4)))
        seen = set()
        for c, v, color, n in cases:
            report = eg_neighborhood_structure(c, v, color, n)
            if report.applicable:
                seen.add(color)
                assert report.cross_color_ok == cross_color_by_pairs(c, report.partition, color)
        assert seen == {RED, BLUE}

    @pytest.mark.parametrize("color", [RED, BLUE])
    def test_cross_color_flags_an_edge_across_blocks(self, color, monkeypatch):
        # a correct decomposition has no edge of the hood's colour across
        # blocks, so the flag can read False only on a wrong partition: the
        # hood {1, 2, 3} of vertex 0 holds the edge 12 in its colour, and
        # the partition puts 1 and 2 in different odd components
        in_color = [(0, 1), (0, 2), (0, 3), (1, 2)]
        red = in_color if color == RED else [(1, 3), (2, 3)]
        k = TwoColoring(4, Graph(4, red))

        def split(d):
            return lambda sub: EGPartition(A=frozenset(), C=frozenset({2}),
                                           D=tuple(map(frozenset, d)), p=len(d),
                                           deficiency=1, nu=1)

        for d, ok in ((({0}, {1}), False), (({0, 1},), True)):
            monkeypatch.setattr(matching, "edmonds_gallai", split(d))
            report = eg_neighborhood_structure(k, 0, color, 2)
            assert report.cross_color_ok is ok
            assert cross_color_by_pairs(k, report.partition, color) is ok

    def test_inapplicable_when_matching_large(self):
        blue_hosts_perfect = TwoColoring(4, Graph(4, []))
        report = eg_neighborhood_structure(blue_hosts_perfect, 0, BLUE, 1)
        assert not report.applicable
        assert report.partition is None
        assert report.nu >= 1

    def test_window_flag_only_informational(self):
        k = TwoColoring(4, Graph(4, [(0, 1), (0, 2), (0, 3)]))
        report = eg_neighborhood_structure(k, 0, RED, 5)
        assert not report.window_ok
        assert report.applicable

    def test_rejects_bad_n(self):
        k = TwoColoring(3, Graph(3, []))
        with pytest.raises(ValueError):
            eg_neighborhood_structure(k, 0, RED, 0)

    @pytest.mark.parametrize("v", [-1, 3])
    def test_rejects_vertex_outside_the_coloring(self, v):
        # -1 must not read vertex 2's neighbourhood from the end of the rows
        k = TwoColoring(3, Graph(3, [(0, 2), (1, 2)]))
        with pytest.raises(ValueError, match="out of range"):
            eg_neighborhood_structure(k, v, RED, 2)

    def test_identity_matches_partition(self):
        rng = random.Random(41)
        for _ in range(150):
            size = rng.randint(4, 12)
            k = TwoColoring(size, random_graph(rng, size))
            v = rng.randrange(size)
            n = rng.randint(1, 4)
            report = eg_neighborhood_structure(k, v, RED, n)
            if not report.applicable:
                assert report.nu > n - 1
                continue
            part = report.partition
            assert set().union(part.A, part.C, *part.D) == set(report.neighborhood)
            assert report.identity_ok


def test_multipartite_nu_matches_blossom():
    for sizes in ([2, 2, 2], [1, 1, 4], [2, 3], [1, 2, 2], [3, 3], [1, 1, 1, 1]):
        spec = MultipartiteSpec(sizes)
        g = build_complete_multipartite(spec)
        total = spec.total
        assert matching_number(g) == min(total // 2, total - spec.part_sizes[-1])


@st.composite
def graph_and_vertex(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, picked), draw(st.integers(min_value=0, max_value=n - 1))


@given(graph_and_vertex())
@settings(max_examples=300, deadline=None)
def test_isolated_vertex_graph_is_g_minus_v(case):
    """edmonds_gallai matches G - v as g with v's edges removed, from the
    first maximum matching M of g."""
    g, v = case
    h = _isolate(g, v)
    validate_graph(h)
    assert h.n == g.n
    assert h.edges() == [e for e in g.edges() if v not in e]
    assert h.neighbors(v) == ()
    sub, ids = induced(g, [u for u in range(g.n) if u != v])
    m = max_matching(h)
    m.validate(h)
    assert m.size == brute_matching(sub).size
    assert m.edges == Matching((ids[a], ids[b]) for a, b in max_matching(sub).edges).edges
    # and from the first maximum matching M, as edmonds_gallai does
    warm = max_matching(g, _without=(*first_matching(g), v))
    warm.validate(h)
    assert v not in warm.vertices()
    assert warm.size == m.size


@st.composite
def deficient_graph(draw):
    """A dense bipartite core between a small side A and a larger side D,
    a few edges inside each side, ids shuffled: most searches fail.

    Each matching edge meets A or is one of the k edges inside D, so
    |D| >= |A| + 2k + 1 leaves at least one vertex exposed.
    """
    a = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=2))
    d = draw(st.integers(min_value=a + 2 * k + 1, max_value=14 - a))
    side_a, side_d = range(a), range(a, a + d)
    core = [(u, v) for u in side_a for v in side_d]
    dropped = draw(st.sets(st.sampled_from(core), max_size=len(core) // 3))
    inside_a = list(itertools.combinations(side_a, 2))
    inside_d = draw(st.lists(st.sampled_from(list(itertools.combinations(side_d, 2))),
                             min_size=k, max_size=k, unique=True))
    edges = [e for e in core if e not in dropped] + inside_d
    if inside_a:
        edges += draw(st.lists(st.sampled_from(inside_a), max_size=2, unique=True))
    ids = draw(st.permutations(range(a + d)))
    return Graph(a + d, [(ids[u], ids[v]) for u, v in edges])


@given(deficient_graph())
@settings(max_examples=200, deadline=None)
def test_deficient_graphs_against_oracles(g):
    """max_matching and edmonds_gallai where most augmenting-path searches fail."""
    m = max_matching(g)
    m.validate(g)
    assert m.size == brute_matching(g).size
    assert g.n - 2 * m.size > 0
    missed = set()
    for other in enumerate_maximum_matchings(g):
        missed |= set(range(g.n)) - other.vertices()
    assert set().union(*edmonds_gallai(g).D) == missed


def components_by_union_find(g, vertices):
    """Components of G[vertices] by union-find, sorted by their least vertex."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, w in g.edges():
        if u in root and w in root:
            root[find(u)] = find(w)
    comps = {}
    for v in root:
        comps.setdefault(find(v), set()).add(v)
    return sorted(map(frozenset, comps.values()), key=min)


def test_components_in_ascending_order_of_least_vertex():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(0, 30)
        g = random_graph(rng, n, rng.choice([0.02, 0.08, 0.2, 0.5]))
        vertices = rng.sample(range(n), rng.randint(0, n))
        assert matching._components(g, vertices) == components_by_union_find(g, vertices)
    # every vertex its own component: one pass, where taking min(pool) per
    # component was quadratic in the order
    assert matching._components(Graph(8000), range(8000)) == \
        [frozenset([v]) for v in range(8000)]

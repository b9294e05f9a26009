import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanramsey import (
    BLUE,
    RED,
    ConstructionParams,
    FanWitness,
    Graph,
    MultipartiteSpec,
    ParseError,
    TwoColoring,
    build_complete_multipartite,
    chromatic_lower,
    complement,
    dirac_threshold,
    eg_neighborhood_structure,
    fan_ramsey_bounds,
    fan_turan_number,
    find_fan,
    graph6_decode,
    graph6_encode,
    high_degree_fan,
    induced,
    max_matching,
    opposite,
    read_coloring,
    read_graph,
    star_fan_formula,
    star_fan_lower,
    star_fan_lower_special,
    turan_lower,
    validate_fan_witness,
    verify_fan_fan_witness,
    verify_star_fan_witness,
    write_coloring,
    write_graph,
)
from fanramsey.constructions import conditioned_coloring
from oracles import multipartite_edges


def random_graph(rng, n, p=0.5):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


class TestGraph:
    def test_basic_semantics(self):
        g = Graph(4, [(0, 1), (1, 0), (2, 3)])
        assert g.edge_count() == 2
        assert g.has_edge(1, 0)
        assert g.neighbors(1) == (0,)
        assert g.degree(0) == 1
        assert g.degrees() == (1, 1, 1, 1)

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("edge", [(True, 2), (2, False), (1.0, 2), (0, "1"), (None, 1)])
    def test_rejects_ids_that_are_not_ints(self, edge):
        # a bool once sat in the rows as True, and a float failed with a
        # TypeError from list indexing
        with pytest.raises(ValueError, match=re.escape(f"edge ({edge[0]!r}, {edge[1]!r})")):
            Graph(3, [(0, 1), edge])

    @pytest.mark.parametrize("bad, message", [
        ((0, 1.0), "edge (0, 1.0) has a vertex id that is not an int"),
        ((0, 4), "edge (0, 4) out of range for 4 vertices"),
        ((2, 2), "self-loop at vertex 2"),
    ])
    def test_first_bad_edge_after_good_ones_is_named(self, bad, message):
        # validation and row building share one pass over the edges: the
        # rows are half built when the fault is met, and a later fault of
        # another kind must not be the one reported
        edges = [(0, 1), (1, 2), (3, 2), bad, (5, 5), (0, "x")]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph(4, edges)

    def test_edges_from_a_generator(self):
        g = Graph(5, ((u, u + 1) for u in range(4)))
        assert g == Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert g.neighbors(2) == (1, 3)

    def test_repeated_edge_in_both_orientations_counts_once(self):
        g = Graph(4, [(2, 0), (0, 2), (0, 2), (2, 0), (3, 2), (0, 1)])
        assert g.neighbors(0) == (1, 2)
        assert g.neighbors(2) == (0, 3)
        assert g.degrees() == (2, 1, 2, 1)
        assert g.edge_count() == 3
        assert g == Graph(4, [(0, 1), (0, 2), (2, 3)])

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="non-negative"):
            Graph(-1)

    def test_has_edge_false_outside_the_id_range(self):
        # a negative id must not index a row from the end, and an id >= n
        # is no vertex rather than an IndexError
        g = Graph(3, [(0, 2), (1, 2)])
        assert g.has_edge(2, 0)
        for u, v in ((-1, 0), (0, -1), (-3, 2), (3, 0), (0, 3), (7, -7)):
            assert not g.has_edge(u, v)

    @pytest.mark.parametrize("v", [-1, 3])
    def test_row_accessors_reject_ids_outside_the_graph(self, v):
        # a negative id must not read a row from the end, and an id >= n
        # is no vertex rather than an IndexError
        g = Graph(3, [(0, 2), (1, 2)])
        # a complement, or the red graph of a coloring built from its edges,
        # decodes rows from its masks, which a negative id would index from
        # the end as well
        for graph in (g, complement(g), TwoColoring.from_red_edges(3, g.edges()).red):
            for accessor in (graph.neighbors, graph.neighbor_set, graph.degree):
                with pytest.raises(ValueError, match="out of range"):
                    accessor(v)

    def test_degree_on_masks_decodes_no_row(self, monkeypatch):
        # a graph held as masks counts the bits of v's mask; decoding any
        # row would call graphs._members
        rng = random.Random(23)
        cases = []
        for n in (0, 1, 7, 40, 70):
            g = random_graph(rng, n, 0.4)
            cases.append((complement(g), Graph(n, complement(g).edges())))
            cases.append((TwoColoring.from_red_edges(n, g.edges()).red, g))
        monkeypatch.setattr("fanramsey.graphs._members", None)
        for masks, rows in cases:
            assert [masks.degree(v) for v in range(masks.n)] == list(map(len, rows._sorted))
            assert masks._row_cache is None

    def test_equality_and_hash(self):
        g1 = Graph(3, [(0, 1)])
        g2 = Graph(3, [(1, 0)])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != Graph(4, [(0, 1)])

    def test_bits_agree_with_rows(self):
        rng = random.Random(17)
        for n in (0, 1, 5, 31, 64, 70):
            g = random_graph(rng, n, 0.4)
            assert len(g.bits) == n
            for v in range(n):
                assert g.neighbor_set(v) == frozenset(g.neighbors(v))
                for u in range(n):
                    bit = g.bits[v] >> u & 1 == 1
                    assert bit == g.has_edge(u, v) == (u in g.neighbors(v))

    def test_bits_of_a_sparse_graph_cost_its_rows(self):
        # each mask is built from its own row, up to the row's largest id:
        # a table of n shifted bits would take about n^2/16 bytes, some
        # 4 GB here, and the masks of a few short rows take almost nothing
        g = Graph(258047, [(0, 1), (1, 2), (0, 2), (5, 258046)])
        bits = g.bits
        assert bits[:3] == (0b110, 0b101, 0b011)
        assert bits[5] == 1 << 258046 and bits[258046] == 1 << 5
        assert bits.count(0) == 258047 - 5

    def test_equality_and_hash_across_constructions(self):
        rng = random.Random(5)
        g = random_graph(rng, 20, 0.3)
        edges = g.edges()
        shuffled = [(v, u) for u, v in reversed(edges)]
        same = Graph(20, shuffled + edges[:3])
        assert same == g and hash(same) == hash(g)
        assert len({g, same, complement(complement(g))}) == 1
        dropped = Graph(20, edges[1:])
        assert dropped != g
        non_edges = [(u, v) for u in range(20) for v in range(u + 1, 20)
                     if not g.has_edge(u, v)]
        assert complement(g) == Graph(20, non_edges)
        assert hash(complement(g)) == hash(Graph(20, non_edges))
        keep = [1, 4, 5, 9, 12, 19]
        sub, _ = induced(g, keep)
        expect = Graph(len(keep), [(i, j) for i, u in enumerate(keep)
                                   for j, v in enumerate(keep)
                                   if i < j and g.has_edge(u, v)])
        assert sub == expect and hash(sub) == hash(expect)


def test_complement_involution_exhaustive():
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            assert complement(complement(g)) == g


def test_complement_involution_random():
    rng = random.Random(3)
    for _ in range(200):
        g = random_graph(rng, rng.randint(5, 12))
        cg = complement(g)
        assert complement(cg) == g
        assert g.edge_count() + cg.edge_count() == g.n * (g.n - 1) // 2


def test_induced_rejects_ids_outside_the_graph():
    with pytest.raises(ValueError, match="vertex 3 out of range"):
        induced(Graph(3, [(0, 1)]), [0, 3])


@pytest.mark.parametrize("ids, bad", [([True, 2], "True"), ([1, True], "True"),
                                     ([0, 1.0], "1.0"), (["a", 1], "'a'")])
def test_induced_rejects_ids_that_are_not_ints(ids, bad):
    # True == 1, so a set merges the two and True was taken as vertex 1
    with pytest.raises(ValueError, match=f"vertex must be an int, got {bad}"):
        induced(Graph(4, [(0, 1), (1, 2)]), ids)


def test_induced_mapping():
    g = Graph(6, [(0, 2), (2, 4), (4, 5), (1, 3)])
    sub, mapping = induced(g, [2, 4, 5])
    assert mapping == (2, 4, 5)
    assert sub.n == 3
    assert set(sub.edges()) == {(0, 1), (1, 2)}


class TestMultipartite:
    def test_sizes_sorted_ascending(self):
        spec = MultipartiteSpec([3, 1, 2])
        assert spec.part_sizes == (1, 2, 3)
        assert spec.t == 3
        assert spec.total == 6

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            MultipartiteSpec([])
        with pytest.raises(ValueError):
            MultipartiteSpec([2, 0])

    @pytest.mark.parametrize("sizes", [[2.5, 1], [1, 2.0], [1, 2, True]],
                             ids=["first-float", "second-float", "third-bool"])
    def test_rejects_non_int_size(self, sizes):
        # range() would fail late on 2.5, and True would count as a part of 1
        with pytest.raises(ValueError, match="part_sizes must hold ints"):
            MultipartiteSpec(sizes)

    def test_edge_count_formula(self):
        for sizes in ([2, 2, 2], [1, 1, 4], [2, 3], [1, 2, 3, 4], [5]):
            spec = MultipartiteSpec(sizes)
            g = build_complete_multipartite(spec)
            n = spec.total
            expect = (n * n - sum(s * s for s in spec.part_sizes)) // 2
            assert g.edge_count() == expect

    def test_rows_match_the_edge_list_assembly(self):
        rng = random.Random(22)
        for _ in range(200):
            spec = MultipartiteSpec([rng.randint(1, 6) for _ in range(rng.randint(1, 6))])
            g = build_complete_multipartite(spec)
            assert g._sorted == Graph(spec.total, multipartite_edges(spec))._sorted

    def test_part_ranges_cover(self):
        spec = MultipartiteSpec([2, 3, 1])
        ranges = spec.part_ranges()
        flat = [v for r in ranges for v in r]
        assert flat == list(range(6))
        g = build_complete_multipartite(spec)
        for r in ranges:
            for u in r:
                for v in r:
                    if u != v:
                        assert not g.has_edge(u, v)


class TestTwoColoring:
    def test_degrees_complementary(self):
        rng = random.Random(5)
        g = random_graph(rng, 9)
        k = TwoColoring(9, g)
        for v in range(9):
            assert k.degree(v, RED) + k.degree(v, BLUE) == 8
        assert complement(k.red) == k.blue

    def test_color_of(self):
        k = TwoColoring(3, Graph(3, [(0, 1)]))
        assert k.color_of(0, 1) == RED
        assert k.color_of(1, 2) == BLUE

    def test_opposite(self):
        assert opposite(RED) == BLUE
        assert opposite(BLUE) == RED
        with pytest.raises(ValueError):
            opposite("green")

    @pytest.mark.parametrize("call, message", [
        (lambda k: TwoColoring(4, k.red), "expected 4"),
        (lambda k: k.graph("green"), "unknown color"),
        (lambda k: k.degree(0, "green"), "unknown color"),
        (lambda k: k.color_of(1, 1), r"\(u, u\)"),
        (lambda k: k.color_of(0, 3), "out of range"),
        (lambda k: k.color_of(0, 1.5), "vertex must be an int, got 1.5"),
        (lambda k: k.color_of(True, 1), "vertex must be an int, got True"),
    ], ids=["order", "graph", "degree", "same-pair", "pair-range", "float-id", "bool-id"])
    def test_rejects_bad_argument(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(TwoColoring(3, Graph(3, [(0, 1)])))


# One row per size argument of a public entry point: (function, valid
# keyword arguments, the argument to spoil). A float or bool size must not
# reach the arithmetic, where star_fan_formula(2.5, 2) gives an exact 6.0.
_EMPTY4 = TwoColoring(4, Graph(4))
SIZE_ARGUMENTS = [
    (Graph, {"n": 3}, "n"),
    (TwoColoring, {"n": 3, "red": Graph(3)}, "n"),
    (eg_neighborhood_structure, {"k": _EMPTY4, "v": 0, "color": RED, "n": 1}, "n"),
    (verify_star_fan_witness, {"k": _EMPTY4, "m": 2, "n": 1}, "m"),
    (verify_star_fan_witness, {"k": _EMPTY4, "m": 2, "n": 1}, "n"),
    (verify_fan_fan_witness, {"k": _EMPTY4, "n": 1}, "n"),
    (star_fan_formula, {"m": 10, "n": 5}, "m"),
    (star_fan_formula, {"m": 10, "n": 5}, "n"),
    (fan_ramsey_bounds, {"n": 5, "epsilon": 1.0}, "n"),
    (ConstructionParams, {"m": 10, "n": 5}, "m"),
    (ConstructionParams, {"m": 10, "n": 5}, "n"),
    (star_fan_lower, {"m": 10, "n": 5}, "m"),
    (star_fan_lower, {"m": 10, "n": 5}, "n"),
    (star_fan_lower_special, {"n": 5}, "n"),
    (chromatic_lower, {"n": 2}, "n"),
    (turan_lower, {"n": 10, "k": 2}, "n"),
    (turan_lower, {"n": 10, "k": 2}, "k"),
    (fan_turan_number, {"n": 10, "k": 2}, "n"),
    (fan_turan_number, {"n": 10, "k": 2}, "k"),
    (dirac_threshold, {"n": 10, "k": 2}, "n"),
    (dirac_threshold, {"n": 10, "k": 2}, "k"),
    (validate_fan_witness, {"g": Graph(3, [(0, 1), (0, 2), (1, 2)]),
                            "w": FanWitness(0, [(1, 2)]), "k": 1}, "k"),
]


@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("func, kwargs, name", SIZE_ARGUMENTS,
                         ids=[f"{f.__name__}-{name}" for f, _, name in SIZE_ARGUMENTS])
def test_size_arguments_must_be_ints(func, kwargs, name, bad):
    message = f"{name} must be an int, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(**{**kwargs, name: bad})


class TestGraph6:
    def test_star_example(self):
        star = Graph(5, [(4, i) for i in range(4)])
        assert graph6_encode(star) == "D?{"
        assert graph6_decode("D?{") == star

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 20))
            assert graph6_decode(graph6_encode(g)) == g

    def test_round_trip_long_form(self):
        g = Graph(70, [(0, 69), (10, 20)])
        assert graph6_decode(graph6_encode(g)) == g

    def test_bad_input(self):
        with pytest.raises(ParseError):
            graph6_decode("")
        with pytest.raises(ParseError):
            graph6_decode("D?")  # truncated bit body

    def test_rejects_trailing_bytes(self):
        assert graph6_decode("A_").edges() == [(0, 1)]
        with pytest.raises(ParseError, match="needs 1"):
            graph6_decode("A_zzzz")

    def test_rejects_nonzero_padding(self):
        with pytest.raises(ParseError, match="padding"):
            graph6_decode("A`")

    def test_eight_byte_header(self):
        digits = [(300000 >> shift) & 63 for shift in (30, 24, 18, 12, 6, 0)]
        with pytest.raises(ParseError, match="order 300000"):
            graph6_decode("~~" + "".join(chr(d + 63) for d in digits))
        with pytest.raises(ParseError, match="truncated"):
            graph6_decode("~~??")
        assert graph6_decode("~~?????B?") == Graph(3)

    def test_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(23)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 15))
            s = graph6_encode(g)
            h = nx.from_graph6_bytes(s.encode())
            assert set(h.edges()) == {tuple(e) for e in g.edges()}
            back = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert graph6_decode(back) == g


def test_graph6_encode_rejects_order_above_limit():
    # 258048 shared empty rows: Graph(258048) would build a set per vertex
    g = Graph._from_rows(((),) * 258048)
    with pytest.raises(ValueError, match="at most 258047"):
        graph6_encode(g)


class TestEdgelistIO:
    def test_round_trip(self, tmp_path):
        rng = random.Random(29)
        for i in range(50):
            g = random_graph(rng, rng.randint(0, 15))
            path = tmp_path / f"g{i}.el"
            write_graph(g, path)
            assert read_graph(path) == g

    def test_round_trip_graph6_format(self, tmp_path):
        g = Graph(7, [(0, 1), (5, 6)])
        path = tmp_path / "g.g6"
        write_graph(g, path, "graph6")
        assert read_graph(path, "graph6") == g

    @pytest.mark.parametrize("text, line", [("A_\nzzzz\n", 2), ("A_\nBw\n", 2),
                                            ("A_\n\n \nBw", 4)])
    def test_graph6_extra_line_rejected(self, tmp_path, text, line):
        # a second string, valid or not, is named by its line
        path = tmp_path / "two.g6"
        path.write_text(text)
        with pytest.raises(ParseError, match=f":{line}: extra line after the graph6 string"):
            read_graph(path, "graph6")

    @pytest.mark.parametrize("text, line", [("A_zzzz\n", 1), ("\n\nD?\n", 3), ("A`", 1)])
    def test_graph6_decode_error_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.g6"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line}: graph6 "):
            read_graph(path, "graph6")

    @pytest.mark.parametrize("text", ["A_\n", "A_", "\nA_\n\n", " A_ \r\n"])
    def test_graph6_one_line_reads(self, tmp_path, text):
        path = tmp_path / "one.g6"
        path.write_text(text, newline="")
        assert read_graph(path, "graph6") == Graph(2, [(0, 1)])

    def test_isolated_vertices_survive(self, tmp_path):
        g = Graph(9, [(0, 1)])
        path = tmp_path / "iso.el"
        write_graph(g, path)
        assert read_graph(path).n == 9

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("0 1\nx y\n")
        with pytest.raises(ParseError) as exc:
            read_graph(path)
        assert ":2" in str(exc.value)

    def test_non_ascii_byte_reports_offset(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_bytes(b"0 1\n\xff\n")
        with pytest.raises(ParseError, match="0xff at byte offset 4"):
            read_graph(path)

    def test_order_above_graph6_limit_rejected(self, tmp_path):
        path = tmp_path / "huge.el"
        path.write_text("0 300000\n")
        with pytest.raises(ParseError, match="order 300001"):
            read_graph(path)

    @pytest.mark.parametrize("text", ["1_0 2\n", "+2 3\n", "# n=1_0\n0 1\n",
                                      "# n=+4\n0 1\n"])
    def test_rejects_non_decimal_ids(self, tmp_path, text):
        path = tmp_path / "odd.el"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError):
            read_graph(path)

    def test_negative_id_named(self, tmp_path):
        path = tmp_path / "neg.el"
        path.write_text("0 -2\n")
        with pytest.raises(ParseError, match="negative vertex id"):
            read_graph(path)

    def test_rejects_duplicate_edge(self, tmp_path):
        path = tmp_path / "dup.el"
        path.write_text("0 1\n1 0\n")
        with pytest.raises(ParseError, match=":2: duplicate edge 1 0"):
            read_graph(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "g.el"
        with pytest.raises(ValueError, match="unknown format 'dot'"):
            write_graph(Graph(2), path, "dot")
        write_graph(Graph(2), path)
        with pytest.raises(ValueError, match="unknown format 'dot'"):
            read_graph(path, "dot")

    def test_rejects_loop_line(self, tmp_path):
        path = tmp_path / "loop.el"
        path.write_text("2 2\n")
        with pytest.raises(ParseError):
            read_graph(path)

    def test_coloring_round_trip(self, tmp_path):
        rng = random.Random(31)
        g = random_graph(rng, 10)
        k = TwoColoring(10, g)
        path = tmp_path / "c.col"
        write_coloring(k, path)
        back = read_coloring(path)
        assert back.red == k.red
        assert back.blue == k.blue


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, picked)


@st.composite
def graph6_graphs(draw):
    """Graphs at the orders where the graph6 header changes form, and random ones."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 62, 63, 64]),
                       st.integers(min_value=0, max_value=80)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return random_graph(rng, n, draw(st.floats(min_value=0, max_value=1)))


@given(graph6_graphs())
@settings(max_examples=150, deadline=None)
def test_graph6_round_trip_property(g):
    assert graph6_decode(graph6_encode(g)) == g


@given(st.one_of(st.text(), st.text(alphabet=[chr(c) for c in range(60, 128)])))
@settings(max_examples=300, deadline=None)
def test_graph6_decode_fuzz(text):
    try:
        assert isinstance(graph6_decode(text), Graph)
    except ParseError:
        pass


_EDGELIST_TOKENS = st.one_of(
    st.integers().map(str),
    st.sampled_from(["# n=", "#", " ", "\t", "\n", "\r\n", "-", "x", "\xff"]))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@given(st.one_of(st.binary(),
                 st.lists(_EDGELIST_TOKENS).map(lambda ts: "".join(ts).encode("latin-1"))),
       st.sampled_from(["edgelist", "graph6"]))
@settings(max_examples=300, deadline=None)
def test_read_graph_fuzz(fuzz_file, data, fmt):
    fuzz_file.write_bytes(data)
    try:
        assert isinstance(read_graph(fuzz_file, fmt), Graph)
    except ParseError:
        pass


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_complement_degree_property(g):
    cg = complement(g)
    for v in range(g.n):
        assert g.degree(v) + cg.degree(v) == g.n - 1


@st.composite
def complement_cases(draw):
    """A graph of up to 40 vertices, edgeless, complete or random, and a
    list of vertex subsets to induce on."""
    n = draw(st.integers(min_value=0, max_value=40))
    kind = draw(st.sampled_from(["edgeless", "complete", "random"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    p = {"edgeless": 0, "complete": 1}.get(kind, rng.random())
    subsets = [[v for v in range(n) if rng.random() < q] for q in (0.2, 0.5, 0.9)]
    return random_graph(rng, n, p), subsets


@pytest.fixture(scope="module")
def complement_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("complement")
    return folder / "masks", folder / "rows"


@given(complement_cases())
@settings(max_examples=150, deadline=None)
def test_complement_agrees_with_materialized_graph(complement_files, case):
    # complement() holds masks alone; Graph on the non-edges holds rows.
    # Each check starts from a new complement, since a call that needs every
    # row decodes and keeps them, and later calls would read the rows
    g, subsets = case
    want = Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if not g.has_edge(u, v)])
    cg = complement(g)
    assert [cg.neighbors(v) for v in range(g.n)] == list(want._sorted)
    assert cg.degrees() == want.degrees()
    assert cg.edge_count() == want.edge_count()
    assert cg._row_cache is None
    for vertices in subsets:
        assert induced(cg, vertices) == induced(want, vertices)
        assert cg._row_cache is None
    assert complement(g).edges() == want.edges()
    assert complement(g) == want and hash(complement(g)) == hash(want)
    assert max_matching(complement(g)).edges == max_matching(want).edges
    for k in (1, 2, 3):
        assert find_fan(complement(g), k) == find_fan(want, k)
    assert graph6_encode(complement(g)) == graph6_encode(want)
    masks, rows = complement_files
    write_graph(complement(g), masks)
    write_graph(want, rows)
    assert masks.read_bytes() == rows.read_bytes()


def _conditioned(hub: str, n: int):
    """The first conditioned coloring, by seed, whose vertex 0 is joined to
    all others in the colour hub."""
    for seed in itertools.count():
        k = conditioned_coloring(random.Random(seed), n)
        if (k.red.degree(0) == 3 * n) == (hub == RED):
            return k


@pytest.mark.parametrize("hub", [RED, BLUE])
def test_fan_searches_leave_blue_rows_unbuilt(hub):
    # both colours are read through degrees, single rows, the hub's hood
    # matched in host ids and induced hoods, all answered from masks: a
    # conditioned coloring is built from its red edges, so red holds masks
    # alone as blue does
    k = _conditioned(hub, 10)
    assert k.red._row_cache is None
    report = verify_fan_fan_witness(k, 10)
    assert k.red._row_cache is None
    color, w = high_degree_fan(k, 10)
    assert k.red._row_cache is None
    assert k.blue._row_cache is None
    assert not report.all_hold
    validate_fan_witness(k.graph(color), w, 10)


def test_verify_header_only_order_leaves_blue_rows_unbuilt(tmp_path):
    # the blue graph of an edgeless red one is complete: its rows would be
    # about N^2 tuple entries, where one row settles the claim
    path = tmp_path / "header"
    path.write_text("# n=3000\n")
    k = read_coloring(path)
    report = verify_fan_fan_witness(k, 2)
    assert k.blue._row_cache is None
    assert [c.holds for c in report.claims] == [True, False]
    assert report.claims[1].certificate == {"center": 0, "spokes": [[1, 2], [3, 4]]}


@st.composite
def red_edge_lists(draw):
    """Edges on up to 40 vertices, some given twice or in both orientations,
    in random order, as a list or as a generator."""
    n = draw(st.integers(min_value=0, max_value=40))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    p = draw(st.floats(min_value=0, max_value=1))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    edges += [(v, u) for u, v in edges if rng.random() < 0.2]
    edges += [e for e in edges if rng.random() < 0.1]
    rng.shuffle(edges)
    return n, edges, draw(st.booleans())


@given(red_edge_lists())
@settings(max_examples=150, deadline=None)
def test_from_red_edges_equals_coloring_of_graph(case):
    n, edges, lazy = case
    k = TwoColoring.from_red_edges(n, iter(edges) if lazy else edges)
    want = TwoColoring(n, Graph(n, edges))
    assert k.red._row_cache is None
    assert k.red.bits == want.red.bits
    assert k.red.degrees() == want.red.degrees()
    assert [k.degree(v, c) for v in range(n) for c in (RED, BLUE)] == \
        [want.degree(v, c) for v in range(n) for c in (RED, BLUE)]
    assert [k.red.neighbors(v) for v in range(n)] == list(want.red._sorted)
    assert k.red._row_cache is None
    assert k == want and hash(k) == hash(want)
    assert k.blue == want.blue
    assert k.red.edges() == want.red.edges()


@pytest.mark.parametrize("n, edges", [
    (4, [(0, 1), (1, 2), (3, 2), (0, 1.0), (5, 5), (0, "x")]),
    (4, [(0, 1), (2, 1), (True, 2), (0, 4)]),
    (4, [(0, 1), (1, 2), (0, 4), (2, 2), (0, None)]),
    (4, [(0, 1), (3, -1), (0, 1.0)]),
    (4, [(1, 0), (2, 2), (0, 9)]),
    (4, [(0, 1), (1, 2, 3)]),
    (4, [(0, 1), 5]),
    (4, [(0, 1), (1,)]),
    (4, 7),
    (4, None),
    (-1, []),
    (2.0, [(0, 1)]),
    (True, []),
], ids=lambda x: repr(x)[:40])
def test_from_red_edges_raises_as_graph_does(n, edges):
    # the first fault in edge order is the one named, with Graph's own
    # exception type and message
    with pytest.raises(Exception) as want:
        Graph(n, edges)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        TwoColoring.from_red_edges(n, edges)

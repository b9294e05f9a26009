"""The graph codecs keep their exact bytes and messages.

Every expected value below was recorded with the codec that built rows
through Graph(n, edges) and validated each edge there a second time. A
malformed file in PARSE_ERRORS holds two or more faults, so the entry pins
which one is reported: the first in line order, with the order checks
after the scan. WRITE_SHA256 pins the bytes write_graph produces.
"""

import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanramsey import (
    Graph,
    ParseError,
    complement,
    graph6_decode,
    graphs,
    read_graph,
    star_fan_lower_special,
    write_graph,
)
from fanramsey.cli import main

PARSE_ERRORS = [
    # a duplicate before a bad token
    (b"0 1\n1 0\nx 2\n", "{path}:2: duplicate edge 1 0"),
    (b"# n=2\n0 1\n0 1\n2 2\n", "{path}:3: duplicate edge 0 1"),
    (b"# n=3\n0 1\n\t1  2 \n2 1\n0 0\n", "{path}:4: duplicate edge 2 1"),
    (b"# n= 5\n0 5\n0 1\n0 1\n", "{path}:4: duplicate edge 0 1"),
    # a loop before a duplicate, and a loop before the order check
    (b"0 1\n3 3\n0 1\n", "{path}:2: loop 3 3 rejected"),
    (b"0 300000\n1 1\n", "{path}:2: loop 1 1 rejected"),
    (b"#n=4\n0 4\n1 1\n", "{path}:3: loop 1 1 rejected"),
    # negative and non-integer ids
    (b"0 -2\n1 1\n", "{path}:1: negative vertex id in '0 -2'"),
    (b"-1 -2\n0 0\n", "{path}:1: negative vertex id in '-1 -2'"),
    (b"-1 a\n0 0\n", "{path}:1: non-integer vertex in '-1 a'"),
    (b"0 1\n1_0 2\n+2 3\n", "{path}:2: non-integer vertex in '1_0 2'"),
    (b"0 1 2\n0 0\n", "{path}:1: expected 'u v', got '0 1 2'"),
    (b"\n  \n# note\n0 1 x\n1 0\n", "{path}:4: expected 'u v', got '0 1 x'"),
    # '# n=' given twice: the second is a fault, valid or not
    (b"# n=3\n# n=x\n0 5\n", "{path}:2: second vertex count header"),
    (b"# n=3\n# n=5\n0 1\n", "{path}:2: second vertex count header"),
    (b"# n=3\n0 1\n#n=3\n", "{path}:3: second vertex count header"),
    (b"# n=x\n# n=3\n0 1\n", "{path}:1: bad vertex count 'n=x'"),
    # '# n=' after the edges
    (b"0 1\n# n=2\n2 3\n", "{path}: vertex 3 exceeds declared n=2"),
    (b"0 1\n# n=y\n1 1\n", "{path}:2: bad vertex count 'n=y'"),
    # CRLF line ends are not part of the line
    (b"0 1\r\n1 0\r\nx\r\n", "{path}:2: duplicate edge 1 0"),
    (b"0 1\r\nx\r\n1 0\r\n", "{path}:2: expected 'u v', got 'x'"),
    # form feed and file separator end a line, as str.splitlines has it
    (b"0 1\x0c1 0\n2 2\n", "{path}:2: duplicate edge 1 0"),
    (b"0 1\x1c2 2\x1c-1 3\n", "{path}:2: loop 2 2 rejected"),
    # the ASCII check comes before any line
    (b"2 2\n\xff\n", "{path}: non-ASCII byte 0xff at byte offset 4"),
    # a number past int()'s 4300-digit limit is a fault at its line, before
    # a later loop or duplicate, also in write_graph's shape; the message
    # leaves the number out
    pytest.param(b"# n=3\n0 " + b"1" * 5000 + b"\n1 1\n",
                 "{path}:2: vertex id of 5000 digits is too long", id="5000-digit-id"),
    pytest.param(b"# n=" + b"9" * 5000 + b"\n0 1\n0 1\n",
                 "{path}:1: vertex count of 5000 digits is too long", id="5000-digit-count"),
]


@pytest.mark.parametrize("data, message", PARSE_ERRORS)
def test_first_fault_in_line_order_wins(tmp_path, data, message):
    path = tmp_path / "bad.el"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        read_graph(path)
    assert str(exc.value) == message.format(path=path)


GRAPH6_ERRORS = [
    ("", "empty graph6 string"),
    ("   ", "empty graph6 string"),
    ("D?", "graph6 body has 1 bytes, n=5 needs 2"),
    ("A_zzzz", "graph6 body has 5 bytes, n=2 needs 1"),
    ("Bw@", "graph6 body has 2 bytes, n=3 needs 1"),
    ("~?@c" + "?" * 100, "graph6 body has 100 bytes, n=100 needs 825"),
    ("A`", "graph6 padding bits are not zero"),
    ("E~~x", "graph6 padding bits are not zero"),
    ("Dzz", "graph6 padding bits are not zero"),
    ("~~??", "truncated graph6 header"),
    ("~?@", "truncated graph6 header"),
    ("~~??~~~~", "graph6 order 16777215 exceeds the supported 258047"),
    ("A\x7f", "invalid graph6 byte at position 1"),
    ("B\xe9?", "invalid graph6 byte at position 1"),
    ("A>", "invalid graph6 byte at position 1"),
]


@pytest.mark.parametrize("text, message", GRAPH6_ERRORS)
def test_graph6_messages(text, message):
    with pytest.raises(ParseError) as exc:
        graph6_decode(text)
    assert str(exc.value) == message


def test_graph6_strips_whitespace():
    star = Graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert graph6_decode(" D?{\n") == star
    assert graph6_decode("?") == Graph(0)
    assert graph6_decode("@") == Graph(1)


def gnp(seed, n, p):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def _special_red():
    return star_fan_lower_special(20)[0].red


WRITE_GRAPHS = {
    "empty-0": lambda: Graph(0),
    "single-1": lambda: Graph(1),
    "isolated-9": lambda: Graph(9, [(0, 1), (4, 7)]),
    "gnp-70": lambda: gnp(3, 70, 0.3),
    "gnp-130": lambda: gnp(4, 130, 0.5),
    "special-20": _special_red,
    "special-20-blue": lambda: complement(_special_red()),
}

WRITE_SHA256 = {
    ("empty-0", "edgelist"): "8a73fe4a3f400a65a2df541ca7c43166a9345ef9c4d6aa19587b0ae8134e161e",
    ("empty-0", "graph6"): "ce773b87709a04bbcb0ead74fea94b1f20fa4a4d185fc06a24a9bc703dd99613",
    ("single-1", "edgelist"): "8a05400093b7e5e205395258e33d6c97fc41b3f733594a627fb9a4e7ea6e7788",
    ("single-1", "graph6"): "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    ("isolated-9", "edgelist"): "76b08e21904aeece3f7c65839d7cfc6434532b59f4f90073dc5815e653d7e4a2",
    ("isolated-9", "graph6"): "6824674ca73102a431012bcd30b89effb649ddac2993c7cb210b7aff52b90a69",
    ("gnp-70", "edgelist"): "795d488d32861e68a751ce4395038f1312b5c8ec91e1000e1000090e00c2529b",
    ("gnp-70", "graph6"): "ae410d0302b20df052e5f6069964b765fe1f89acf9321063414e8bc49f8e3ee5",
    ("gnp-130", "edgelist"): "c9bab3a8bea06000361111e1f637be5ee54c9727a873533986987504e21b7980",
    ("gnp-130", "graph6"): "caf6628eb53240f81d06a04f21fa1470ff6eccacd4c8836e7a742a1529b80110",
    ("special-20", "edgelist"): "678b84dd2f0fdaf486f79710a946bc129f383252c5773170aa90f06f2a6b00ef",
    ("special-20", "graph6"): "f190ee9c25a4ce27d211668eb5e77b2d66f830009e8f9dbee20114023aea5e8d",
    ("special-20-blue", "edgelist"):
        "2983b378964da54b9a0f32062fc568d11e9bc646b24dd2a1e6add1131ee37a57",
    ("special-20-blue", "graph6"):
        "8fc9e2f89522b21d2dc11c2fda33a7b9273c50bd14fec19e7f4c7713a37f11c8",
}


@pytest.mark.parametrize("name, fmt", sorted(WRITE_SHA256))
def test_write_graph_bytes(tmp_path, name, fmt):
    g = WRITE_GRAPHS[name]()
    path = tmp_path / "g"
    write_graph(g, path, fmt)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == WRITE_SHA256[name, fmt]
    assert read_graph(path, fmt) == g


def test_negative_declared_count_rejected(tmp_path):
    # '# n=-3' names a count, not a vertex, so the fault is at its line
    path = tmp_path / "neg.el"
    path.write_text("0 1\n# n=-3\n")
    with pytest.raises(ParseError) as exc:
        read_graph(path)
    assert str(exc.value) == f"{path}:2: bad vertex count 'n=-3'"


def test_negative_declared_count_exits_3(capsys, tmp_path):
    path = tmp_path / "neg.el"
    path.write_text("# n=-3\n")
    assert main(["decompose", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad vertex count 'n=-3'" in captured.err


def test_declared_count_stripped_like_the_line(tmp_path):
    # \x1f is ASCII whitespace to str.strip but not to int(), which made
    # this header end in a ValueError instead of a count of 5
    path = tmp_path / "us.el"
    path.write_bytes(b"# n=\x1f5\n0 1\n")
    assert read_graph(path) == Graph(5, [(0, 1)])


def test_repeated_edges_count_once():
    g = Graph(4, [(0, 1), (1, 0), (2, 3), (0, 1), (3, 2)])
    assert g.edges() == [(0, 1), (2, 3)]
    assert g.neighbors(1) == (0,)


@st.composite
def graphs_across_words(draw):
    """Graphs whose orders sit on both sides of 63, 64 and 128 bits."""
    n = draw(st.one_of(st.sampled_from([0, 1, 62, 63, 64, 65, 127, 128, 129]),
                       st.integers(min_value=0, max_value=140)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    p = draw(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@given(graphs_across_words())
@settings(max_examples=60, deadline=None)
def test_bits_and_complement_rows(g):
    n = g.n
    rows = [g.neighbors(v) for v in range(n)]
    assert g.bits == tuple(sum(2 ** u for u in row) for row in rows)
    cg = complement(g)
    for v in range(n):
        expected = tuple(u for u in range(n) if u != v and u not in rows[v])
        assert cg.neighbors(v) == expected
        assert cg.bits[v] == sum(2 ** u for u in expected)
    assert complement(cg) == g


# Two readers decode an edge list: _parse_written takes text in the shape
# write_graph writes, in whole-text passes, and the line loop
# _parse_edgelist takes every file and names faults. read_graph tries the
# first and falls back to the second, so they must agree wherever the first
# returns a graph.

@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "g.el"


@given(graphs_across_words())
@settings(max_examples=60, deadline=None)
def test_written_files_take_the_whole_text_path(edge_file, g):
    write_graph(g, edge_file)
    text = edge_file.read_text()
    assert graphs._parse_written(text) == g == graphs._parse_edgelist(text, str(edge_file))


@pytest.mark.parametrize("text, edges", [
    ("# n=0\n", []), ("# n=1\n", []), ("# n=7\n", []),
    ("# n=2\n0 1\n", [(0, 1)]), ("# n=12\n3 11\n", [(3, 11)]),
], ids=["n0", "n1", "header-only", "one-edge", "one-edge-n12"])
def test_short_files_take_the_whole_text_path(text, edges):
    n = int(text.split("\n")[0][4:])
    g = graphs._parse_written(text)
    assert g is not None
    assert g == graphs._parse_edgelist(text, "short.el") == Graph(n, edges)


@pytest.mark.parametrize("text", ["# n=3\n00 1\n", "# n=3\n0 1\n0 02\n", "# n=4\n1 3\n2 03\n"])
def test_leading_zero_goes_to_the_line_loop(tmp_path, text):
    # JSON takes no leading zero, so the whole-text pass refuses the file;
    # the line loop reads the id as int() does
    assert graphs._parse_written(text) is None
    path = tmp_path / "zero.el"
    path.write_text(text)
    assert read_graph(path) == graphs._parse_edgelist(text, str(path))
    assert read_graph(path).edge_count() == text.count("\n") - 1


def _text(lines, end="\n"):
    return "".join(line + end for line in lines)


def _edge_line(lines, rng):
    """Index of a random edge line; an example without one is dropped."""
    assume(len(lines) > 1)
    return rng.randrange(1, len(lines))


def _swap_lines(lines, n, rng):
    assume(len(lines) > 1)
    i, j = rng.sample(range(len(lines)), 2)
    lines[i], lines[j] = lines[j], lines[i]
    return _text(lines)


def _repeat_line(lines, n, rng):
    lines.insert(rng.randrange(1, len(lines) + 1), lines[rng.randrange(len(lines))])
    return _text(lines)


def _reverse_edge(lines, n, rng):
    i = _edge_line(lines, rng)
    lines[i] = " ".join(reversed(lines[i].split()))
    return _text(lines)


def _id_equal_to_n(lines, n, rng):
    i = _edge_line(lines, rng)
    lines[i] = lines[i].split()[0] + f" {n}"
    return _text(lines)


def _no_final_newline(lines, n, rng):
    return "\n".join(lines)


def _leading_zero(lines, n, rng):
    i = rng.randrange(len(lines))
    if i:
        u, v = lines[i].split()
        lines[i] = f"0{u} {v}" if rng.random() < 0.5 else f"{u} 0{v}"
    else:
        lines[0] = f"# n=0{n}"
    return _text(lines)


def _trailing_space(lines, n, rng):
    lines[rng.randrange(len(lines))] += " "
    return _text(lines)


def _tab(lines, n, rng):
    i = rng.randrange(len(lines))
    lines[i] = lines[i].replace(" ", "\t", 1)
    return _text(lines)


def _crlf(lines, n, rng):
    return _text(lines, "\r\n")


def _loop(lines, n, rng):
    i = _edge_line(lines, rng)
    u = lines[i].split()[0]
    lines[i] = f"{u} {u}"
    return _text(lines)


def _count_off_by_one(lines, n, rng):
    lines[0] = f"# n={n + 1 if n == 0 or rng.random() < 0.5 else n - 1}"
    return _text(lines)


# each takes the lines of a written file, header first and without line
# ends, and returns the text with one mutation
MUTATIONS = {
    "swap-two-lines": _swap_lines,
    "repeat-a-line": _repeat_line,
    "u-above-v": _reverse_edge,
    "id-equal-to-n": _id_equal_to_n,
    "no-final-newline": _no_final_newline,
    "leading-zero": _leading_zero,
    "trailing-space": _trailing_space,
    "tab": _tab,
    "crlf": _crlf,
    "loop": _loop,
    "count-off-by-one": _count_off_by_one,
}


def _outcome(read):
    try:
        return read()
    except ParseError as exc:
        return f"ParseError: {exc}"


@given(graphs_across_words(), st.sampled_from(sorted(MUTATIONS)),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_mutated_written_files_read_alike(edge_file, g, mutation, rng):
    write_graph(g, edge_file)
    text = MUTATIONS[mutation](edge_file.read_text().split("\n")[:-1], g.n, rng)
    edge_file.write_bytes(text.encode())
    assert (_outcome(lambda: read_graph(edge_file))
            == _outcome(lambda: graphs._parse_edgelist(text, str(edge_file))))

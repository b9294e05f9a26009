"""Fixed outputs of the search, fan extension, multipartite matching and
witness reports.

The expected values were recorded before these paths were deduplicated:
fan_extend with one internal-first edge order per take helper, three
copies of the complete multipartite matching number, and one "no F_n"
claim per verifier. Scans go in ascending id order, so each value is a
function of its input alone, and a change that only removes duplicate code
or repeated work must leave all of them as they are.

The search node counts are those of the lex-leader row rule. They were
re-recorded when that rule replaced the vertex-0 rule, which is its
column-0 case, so the new search tree is a subtree of the old one. No
recorded count rose (star6-star4 at N = 9 fell from 305,471 to 7,105
nodes) and no answer changed; test_ramsey compares the answers with the
old kernel, oracles.vertex_zero_search.

_search returns the largest order it can color, so one search of K_cap
now answers every N up to the cap; a search capped at N visits the same
nodes as when it answered N alone, and every count is as recorded.
"""

import hashlib
import random
from itertools import count, repeat

import pytest
from test_acceptance import _random_instance

from fanramsey import (
    Graph,
    TwoColoring,
    UnsupportedRangeError,
    chromatic_lower,
    fan_extend,
    multipartite_matching,
    star_fan_lower,
    star_fan_lower_special,
    verify_fan_fan_witness,
    verify_star_fan_witness,
)
from fanramsey import ramsey
from fanramsey.constructions import conditioned_coloring

# "<blue><size>-<red><size>" -> nodes _search visits (items of ticks it
# takes) at N = 1, 2, ... up to the pair's value, or up to the cap when the
# value exceeds it: 8 for fan-fan, 9 otherwise
NODES = {
    "fan1-fan1": (1, 2, 4, 9, 21, 36),
    "fan1-fan2": (1, 2, 4, 7, 11, 18, 24, 31),
    "fan1-fan3": (1, 2, 4, 7, 11, 16, 22, 31),
    "fan1-fan4": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan1-star1": (1, 2, 3),
    "fan1-star2": (1, 2, 4, 8, 10),
    "fan1-star3": (1, 2, 4, 7, 12, 17, 41),
    "fan1-star4": (1, 2, 4, 7, 11, 17, 23, 30, 191),
    "fan2-fan1": (1, 2, 4, 7, 11, 20, 30, 41),
    "fan2-fan2": (1, 2, 4, 7, 11, 16, 26, 38),
    "fan2-fan3": (1, 2, 4, 7, 11, 16, 22, 33),
    "fan2-fan4": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan2-star1": (1, 2, 4, 7, 8),
    "fan2-star2": (1, 2, 4, 7, 24),
    "fan2-star3": (1, 2, 4, 7, 17, 25, 109),
    "fan2-star4": (1, 2, 4, 7, 11, 20, 30, 38, 740),
    "fan3-fan1": (1, 2, 4, 7, 11, 16, 22, 35),
    "fan3-fan2": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan3-fan3": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan3-fan4": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan3-star1": (1, 2, 4, 7, 11, 16, 17),
    "fan3-star2": (1, 2, 4, 7, 11, 16, 64),
    "fan3-star3": (1, 2, 4, 7, 11, 16, 66, 140, 571),
    "fan3-star4": (1, 2, 4, 7, 11, 16, 43, 114, 122),
    "fan4-fan1": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan4-fan2": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan4-fan3": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan4-fan4": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan4-star1": (1, 2, 4, 7, 11, 16, 22, 29, 30),
    "fan4-star2": (1, 2, 4, 7, 11, 16, 22, 29, 141),
    "fan4-star3": (1, 2, 4, 7, 11, 16, 22, 29, 147),
    "fan4-star4": (1, 2, 4, 7, 11, 16, 22, 29, 133),
    "fan5-fan1": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan5-fan2": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan5-fan3": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan5-fan4": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan5-star1": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan5-star2": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan5-star3": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan5-star4": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan6-fan1": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan6-fan2": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan6-fan3": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan6-fan4": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan6-star1": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan6-star2": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan6-star3": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan6-star4": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan7-fan1": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan7-fan2": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan7-fan3": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan7-fan4": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan7-star1": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan7-star2": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan7-star3": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan7-star4": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan8-fan1": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan8-fan2": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan8-fan3": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan8-fan4": (1, 2, 4, 7, 11, 16, 22, 29),
    "fan8-star1": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan8-star2": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan8-star3": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "fan8-star4": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star1-fan1": (1, 2, 3),
    "star1-fan2": (1, 2, 4, 7, 8),
    "star1-fan3": (1, 2, 4, 7, 11, 16, 17),
    "star1-fan4": (1, 2, 4, 7, 11, 16, 22, 29, 30),
    "star1-star1": (1, 1),
    "star1-star2": (1, 2, 2),
    "star1-star3": (1, 2, 4, 4),
    "star1-star4": (1, 2, 4, 7, 7),
    "star2-fan1": (1, 2, 4, 7, 11),
    "star2-fan2": (1, 2, 4, 7, 20),
    "star2-fan3": (1, 2, 4, 7, 11, 16, 54),
    "star2-fan4": (1, 2, 4, 7, 11, 16, 22, 29, 115),
    "star2-star1": (1, 2, 2),
    "star2-star2": (1, 2, 4),
    "star2-star3": (1, 2, 4, 7, 10),
    "star2-star4": (1, 2, 4, 7, 19),
    "star3-fan1": (1, 2, 4, 7, 11, 16, 46),
    "star3-fan2": (1, 2, 4, 7, 11, 16, 98),
    "star3-fan3": (1, 2, 4, 7, 11, 16, 28, 41, 403),
    "star3-fan4": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star3-star1": (1, 2, 4, 4),
    "star3-star2": (1, 2, 4, 9, 11),
    "star3-star3": (1, 2, 4, 10, 17, 26),
    "star3-star4": (1, 2, 4, 7, 11, 16, 68),
    "star4-fan1": (1, 2, 4, 7, 11, 16, 22, 29, 179),
    "star4-fan2": (1, 2, 4, 7, 11, 16, 22, 29, 742),
    "star4-fan3": (1, 2, 4, 7, 11, 16, 22, 29, 44),
    "star4-fan4": (1, 2, 4, 7, 11, 16, 22, 29, 45),
    "star4-star1": (1, 2, 4, 7, 7),
    "star4-star2": (1, 2, 4, 7, 19),
    "star4-star3": (1, 2, 4, 7, 14, 31, 73),
    "star4-star4": (1, 2, 4, 7, 15, 24, 281),
    "star5-fan1": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star5-fan2": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star5-fan3": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star5-fan4": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star5-star1": (1, 2, 4, 7, 11, 11),
    "star5-star2": (1, 2, 4, 7, 11, 28, 38),
    "star5-star3": (1, 2, 4, 7, 11, 23, 45, 183),
    "star5-star4": (1, 2, 4, 7, 11, 20, 45, 93, 1271),
    "star6-fan1": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star6-fan2": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star6-fan3": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star6-fan4": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star6-star1": (1, 2, 4, 7, 11, 16, 16),
    "star6-star2": (1, 2, 4, 7, 11, 16, 58),
    "star6-star3": (1, 2, 4, 7, 11, 16, 48, 107, 511),
    "star6-star4": (1, 2, 4, 7, 11, 16, 31, 78, 7105),
    "star7-fan1": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star7-fan2": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star7-fan3": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star7-fan4": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star7-star1": (1, 2, 4, 7, 11, 16, 22, 22),
    "star7-star2": (1, 2, 4, 7, 11, 16, 22, 67, 95),
    "star7-star3": (1, 2, 4, 7, 11, 16, 22, 68, 195),
    "star7-star4": (1, 2, 4, 7, 11, 16, 22, 44, 248),
    "star8-fan1": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star8-fan2": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star8-fan3": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star8-fan4": (1, 2, 4, 7, 11, 16, 22, 29, 37),
    "star8-star1": (1, 2, 4, 7, 11, 16, 22, 29, 29),
    "star8-star2": (1, 2, 4, 7, 11, 16, 22, 29, 133),
    "star8-star3": (1, 2, 4, 7, 11, 16, 22, 29, 114),
    "star8-star4": (1, 2, 4, 7, 11, 16, 22, 29, 97),
}
# (blue target, red target, N) -> nodes, for searches past the table's caps
# or large enough to be timed
LARGE_NODES = {
    (("star", 4), ("fan", 3), 11): 6_653,
    (("star", 6), ("star", 4), 9): 7_105,
}


def _nodes(blue, red, n):
    # nodes of the search capped at K_n, and whether it colors all of K_n
    ticks = count()
    found = ramsey._search(blue, red, n, ramsey._edge_table(n), ticks) == n
    return next(ticks), found


def _target(text):
    return text[:-1], int(text[-1])


@pytest.mark.parametrize("label", sorted(NODES))
def test_search_nodes_unchanged(label):
    blue, red = map(_target, label.split("-"))
    cap = 8 if blue[0] == red[0] == "fan" else 9
    counts, n = [], 0
    while n < cap and (not counts or found):
        n += 1
        nodes, found = _nodes(blue, red, n)
        counts.append(nodes)
    assert tuple(counts) == NODES[label]


@pytest.mark.parametrize("label", sorted(NODES))
def test_brute_force_runs_only_the_last_search(label, monkeypatch):
    # one search of K_cap visits the nodes of the table's last N: the
    # search of the value, which fails, or of the cap, which succeeds
    blue, red = map(_target, label.split("-"))
    cap = 8 if blue[0] == red[0] == "fan" else 9
    nodes = []
    search = ramsey._search

    def counted(blue_t, red_t, n, edges, ticks, witness=None):
        ticks = count()
        try:
            return search(blue_t, red_t, n, edges, ticks, witness)
        finally:
            nodes.append(next(ticks))

    monkeypatch.setattr(ramsey, "_search", counted)
    result = ramsey.brute_force_ramsey(blue, red, cap)
    assert nodes == [NODES[label][-1]]
    assert result.lower == len(NODES[label]) + (result.value is None)


@pytest.mark.parametrize("key", sorted(LARGE_NODES), ids=lambda k: "{}{}-{}{}-N{}".format(
    *k[0], *k[1], k[2]))
def test_large_search_nodes_unchanged(key):
    assert _nodes(*key) == (LARGE_NODES[key], False)


# (blue target, red target, N) -> nodes of a search that finds no avoiding
# coloring; star3-fan3 takes the fan branch
BUDGETS = {
    (("star", 6), ("star", 4), 9): 7_105,
    (("star", 3), ("fan", 3), 9): 403,
}


@pytest.mark.parametrize("key", sorted(BUDGETS), ids=lambda k: "{}{}-{}{}-N{}".format(
    *k[0], *k[1], k[2]))
def test_node_budget_stops_at_the_same_node(key):
    # a budget of exactly the search's nodes completes it and one fewer runs
    # out, so each node takes its tick at the same place
    blue, red, n = key

    def run(budget):
        return ramsey._search(blue, red, n, ramsey._edge_table(n), repeat(None, budget))

    with pytest.raises(StopIteration):
        run(BUDGETS[key] - 1)
    assert run(BUDGETS[key]) == n - 1


# (case, seed) -> (center, spokes); the instance is
# test_acceptance._random_instance(random.Random(seed), case)
EXTENSIONS = {
    ("i", 0): (0, ((1, 17), (2, 19), (3, 7), (4, 15), (5, 18), (6, 10), (8, 16),
                   (9, 12), (13, 20))),
    ("i", 1): (0, ((1, 2), (3, 4), (5, 6), (9, 10), (11, 12))),
    ("i", 2): (0, ((1, 5), (2, 6), (3, 7))),
    ("i", 3): (0, ((2, 10), (3, 13), (4, 14), (5, 15), (6, 11), (8, 12))),
    ("i", 4): (4, ((0, 2), (1, 6), (3, 7), (8, 9), (11, 12), (14, 15))),
    ("ii", 0): (1, ((13, 14), (15, 16), (18, 19), (20, 21), (22, 23), (24, 25),
                    (27, 28), (29, 30), (31, 32))),
    ("ii", 1): (1, ((3, 7), (8, 9), (10, 11), (12, 13), (15, 16))),
    ("ii", 2): (0, ((5, 6), (7, 8), (9, 10))),
    ("ii", 3): (1, ((7, 8), (9, 10), (11, 12), (13, 14), (15, 16), (17, 18))),
    ("ii", 4): (6, ((7, 8), (9, 10), (11, 12), (13, 14), (15, 16), (17, 18))),
    ("iii", 0): (5, ((0, 11), (1, 8), (2, 9), (3, 10), (4, 12), (20, 21), (22, 23),
                     (24, 25), (26, 27))),
    ("iii", 1): (0, ((6, 18), (9, 10), (12, 13), (14, 15), (16, 17))),
    ("iii", 2): (1, ((0, 3), (2, 4), (10, 11))),
    ("iii", 3): (1, ((2, 5), (3, 6), (4, 7), (11, 12), (13, 14), (16, 17))),
    ("iii", 4): (2, ((0, 4), (3, 5), (7, 12), (10, 11), (13, 14), (15, 16))),
}


@pytest.mark.parametrize("key", sorted(EXTENSIONS), ids=lambda k: "{}-seed{}".format(*k))
def test_fan_extend_witness_unchanged(key):
    case, seed = key
    inst, v, m = _random_instance(random.Random(seed), case)
    w = fan_extend(inst, case, v, m)
    assert (w.center, w.spokes) == EXTENSIONS[key]


PAIRINGS = [
    ([[0, 1], [2, 3, 4]], [(0, 2), (1, 3)]),
    ([[5], [1, 2], [3, 4, 6, 7]], [(1, 3), (4, 5), (2, 6)]),
    ([[9, 3], [], [4, 8, 1]], [(1, 3), (4, 9)]),
    ([[0, 1, 2, 3, 4, 5], [6], [7]], [(0, 6), (1, 7)]),
    ([[10, 11, 12], [13, 14, 15], [16, 17, 18]], [(10, 13), (11, 16), (14, 17), (12, 15)]),
]


@pytest.mark.parametrize("parts, expected", PAIRINGS)
def test_multipartite_pairing_unchanged(parts, expected):
    assert multipartite_matching(parts) == expected


def _clique(n):
    return TwoColoring(n, Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)]))


def _claim(prop, holds, certificate=None):
    return {"property": prop, "holds": holds, "certificate": certificate}


def test_fan_fan_report_unchanged():
    special, _ = star_fan_lower_special(5)
    assert verify_fan_fan_witness(special, 5).to_json_dict() == {
        "N": 18, "kind": "fan-fan",
        "claims": [_claim("no red F_5", True), _claim("no blue F_5", True)],
        "bound_implied": "R(F_5) >= 19"}
    assert verify_fan_fan_witness(chromatic_lower(3), 3).to_json_dict() == {
        "N": 12, "kind": "fan-fan",
        "claims": [_claim("no red F_3", True), _claim("no blue F_3", True)],
        "bound_implied": "R(F_3) >= 13"}
    conditioned = conditioned_coloring(random.Random(5), 3)
    assert verify_fan_fan_witness(conditioned, 3).to_json_dict() == {
        "N": 10, "kind": "fan-fan",
        "claims": [_claim("no red F_3", True),
                   _claim("no blue F_3", False,
                          {"center": 0, "spokes": [[1, 2], [3, 7], [4, 5]]})],
        "bound_implied": None}
    assert verify_fan_fan_witness(_clique(7), 2).to_json_dict() == {
        "N": 7, "kind": "fan-fan",
        "claims": [_claim("no red F_2", False, {"center": 0, "spokes": [[1, 2], [3, 4]]}),
                   _claim("no blue F_2", True)],
        "bound_implied": None}


def test_star_fan_report_unchanged():
    coloring, _ = star_fan_lower(10, 5)
    assert verify_star_fan_witness(coloring, 10, 5).to_json_dict() == {
        "N": 18, "kind": "star-fan",
        "claims": [
            _claim("no blue K_{1,10}", True, {"vertex": 1, "blue_degree": 7}),
            _claim("red min degree >= 8", True,
                   {"vertex": 1, "red_degree": 10, "required": 8}),
            _claim("no red F_5", True)],
        "bound_implied": "R(K_{1,10}, F_5) >= 19"}
    conditioned = conditioned_coloring(random.Random(11), 4)
    assert verify_star_fan_witness(conditioned, 5, 2).to_json_dict() == {
        "N": 13, "kind": "star-fan",
        "claims": [
            _claim("no blue K_{1,5}", False, {"vertex": 1, "blue_degree": 7}),
            _claim("red min degree >= 8", False,
                   {"vertex": 1, "red_degree": 5, "required": 8}),
            _claim("no red F_2", False, {"center": 0, "spokes": [[1, 4], [2, 3]]})],
        "bound_implied": None}


# n -> (a, b, sigma, N, first 16 hex digits of sha256(repr(red edge list)))
SPECIAL = {
    4: (5, 1, 4, 12, "9e942e55e48a6f1e"),
    5: (7, 2, 3, 18, "fdea89bbea7ef6dc"),
    6: (9, 2, 4, 22, "c6a038abb1395d79"),
    7: (11, 3, 3, 28, "a851687bdbb4bc66"),
    8: (12, 4, 3, 32, "586ebb48d620c142"),
    9: (14, 4, 4, 36, "3b3dfa3321bb0275"),
    10: (16, 5, 3, 42, "09a9d5d9e5822b16"),
    11: (18, 5, 4, 46, "bdd8e9af60c2a02b"),
    12: (19, 6, 4, 50, "db04c08571f483b4"),
}


@pytest.mark.parametrize("n", sorted(SPECIAL))
def test_special_construction_unchanged(n):
    coloring, p = star_fan_lower_special(n)
    digest = hashlib.sha256(repr(coloring.red.edges()).encode()).hexdigest()[:16]
    assert (p.a, p.b, p.sigma, p.N, digest) == SPECIAL[n]


# n -> (pairs m = n+1..2n+5 that star_fan_lower builds, first 16 hex digits
# of sha256(repr([(m, red edge list), ...]))): the benchmark's sweep grid,
# recorded while the red graph was still built from an edge list
SWEEP = {
    14: (19, "cbb94c4bde35ecd4"),
    15: (20, "dceb44abe6c62974"),
    16: (21, "7b9d16573ebc0b13"),
    17: (22, "15dbef5444e26703"),
    18: (23, "377db54fb0553437"),
}


@pytest.mark.parametrize("n", sorted(SWEEP))
def test_sweep_constructions_unchanged(n):
    built = []
    for m in range(n + 1, 2 * n + 6):
        try:
            built.append((m, star_fan_lower(m, n)[0].red.edges()))
        except UnsupportedRangeError:
            pass
    digest = hashlib.sha256(repr(built).encode()).hexdigest()[:16]
    assert (len(built), digest) == SWEEP[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_special_construction_unsupported(n):
    with pytest.raises(UnsupportedRangeError):
        star_fan_lower_special(n)

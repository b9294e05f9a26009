"""Fixed outputs of the search prefixes, fan extension, multipartite matching
and witness reports.

The expected values were recorded before these paths were deduplicated:
_prefixes on its own copy of _search's branch rule, fan_extend with one
internal-first edge order per take helper, three copies of the complete
multipartite matching number, and one "no F_n" claim per verifier. Scans
go in ascending id order, so each value is a function of its input alone,
and a change that only removes duplicate code must leave all of them as
they are.
"""

import hashlib
import random

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

# (name, blue target, red target, N) -> (count, first, last) at parts = 64
PREFIXES = {
    ("fan2-fan2", ("fan", 2), ("fan", 2), 5):
        (72, (1, 1, 1, 1, 1, 1, 1, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
    ("star6-star4", ("star", 6), ("star", 4), 9):
        (64, (1, 1, 1, 1, 1, 1, 1, 1), (1, 0, 0, 0, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("key", sorted(PREFIXES), ids=lambda k: k[0])
def test_prefixes_unchanged(key):
    _, blue, red, n = key
    out = ramsey._prefixes(n, blue, red, ramsey._edge_order(n), 64)
    assert (len(out), out[0], out[-1]) == PREFIXES[key]


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_special_construction_unsupported(n):
    with pytest.raises(UnsupportedRangeError):
        star_fan_lower_special(n)

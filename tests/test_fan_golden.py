"""find_fan and find_mono_fan return fixed witnesses on fixed inputs.

Scans go in ascending id order, so a witness is a function of the graph
alone. The expected values below were recorded with the set-based
certificate tiers that preceded the bitset ones. Witnesses come only from
the greedy tier and the blossom matcher, and the tiers between them only
prove absence, so a change to the tiers must leave every witness as it is.
Keys of FAN_CASES are (seed, n, p, k): the graph is G(n, p) drawn with
random.Random(seed), one coin per pair u < v in lexicographic order.
high_degree_fan is pinned the same way, by a digest over many inputs.
"""

import hashlib
import json
import random

import pytest

from fanramsey import Graph, chromatic_lower, find_fan, find_mono_fan, high_degree_fan
from fanramsey.constructions import conditioned_coloring


def gnp(seed, n, p):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


FAN_CASES = {
    (0, 12, 0.5, 2): (6, ((0, 3), (2, 7))),
    (0, 12, 0.5, 4): None,
    (0, 12, 0.5, 7): None,
    (1, 16, 0.3, 2): (2, ((4, 8), (5, 13))),
    (1, 16, 0.3, 4): None,
    (1, 16, 0.3, 7): None,
    (2, 20, 0.25, 2): (14, ((1, 18), (6, 10))),
    (2, 20, 0.25, 4): (18, ((1, 11), (7, 13), (8, 9), (10, 14))),
    (2, 20, 0.25, 7): None,
    (3, 24, 0.4, 2): (22, ((0, 1), (2, 3))),
    (3, 24, 0.4, 4): (22, ((0, 1), (2, 3), (6, 10), (8, 15))),
    (3, 24, 0.4, 7): (22, ((0, 1), (2, 3), (6, 10), (8, 15), (9, 12), (14, 17), (16, 21))),
    (4, 30, 0.15, 2): (3, ((11, 25), (15, 16))),
    (4, 30, 0.15, 4): None,
    (4, 30, 0.15, 7): None,
    (5, 30, 0.3, 2): (8, ((2, 12), (4, 15))),
    (5, 30, 0.3, 4): (8, ((2, 12), (4, 15), (6, 10), (11, 16))),
    (5, 30, 0.3, 7): None,
    (6, 36, 0.2, 2): (22, ((1, 28), (4, 6))),
    (6, 36, 0.2, 4): (22, ((1, 28), (4, 6), (8, 21), (13, 14))),
    (6, 36, 0.2, 7): None,
    (7, 40, 0.1, 2): (15, ((3, 20), (11, 13))),
    (7, 40, 0.1, 4): (15, ((3, 20), (11, 13), (12, 33), (17, 39))),
    (7, 40, 0.1, 7): None,
    (8, 40, 0.25, 2): (0, ((1, 17), (3, 6))),
    (8, 40, 0.25, 4): (0, ((1, 17), (3, 6), (5, 13), (8, 36))),
    (8, 40, 0.25, 7): (0, ((1, 25), (3, 6), (5, 13), (8, 36), (15, 39), (16, 22), (17, 35))),
    (9, 45, 0.15, 2): (33, ((4, 8), (15, 38))),
    (9, 45, 0.15, 4): (33, ((4, 8), (15, 38), (17, 21), (24, 36))),
    (9, 45, 0.15, 7): None,
    (10, 48, 0.3, 2): (30, ((0, 4), (2, 14))),
    (10, 48, 0.3, 4): (30, ((0, 4), (2, 14), (6, 13), (8, 21))),
    (10, 48, 0.3, 7): (30, ((0, 4), (2, 14), (6, 13), (8, 21), (17, 23), (18, 29), (19, 25))),
    (11, 50, 0.08, 2): (5, ((13, 16), (14, 39))),
    (11, 50, 0.08, 4): None,
    (11, 50, 0.08, 7): None,
    (12, 50, 0.2, 2): (0, ((4, 38), (5, 28))),
    (12, 50, 0.2, 4): (0, ((4, 38), (5, 28), (13, 19), (15, 25))),
    (12, 50, 0.2, 7): (0, ((4, 38), (5, 36), (13, 19), (15, 25), (17, 24), (28, 39), (31, 33))),
    (13, 54, 0.12, 2): (43, ((1, 7), (3, 47))),
    (13, 54, 0.12, 4): (43, ((1, 7), (3, 47), (30, 34), (32, 48))),
    (13, 54, 0.12, 7): None,
    (14, 56, 0.35, 2): (28, ((0, 1), (2, 11))),
    (14, 56, 0.35, 4): (28, ((0, 1), (2, 11), (4, 9), (6, 10))),
    (14, 56, 0.35, 7): (28, ((0, 1), (2, 11), (4, 9), (6, 10), (13, 21), (16, 25), (26, 31))),
    (15, 60, 0.05, 2): (24, ((1, 34), (32, 43))),
    (15, 60, 0.05, 4): None,
    (15, 60, 0.05, 7): None,
    (16, 60, 0.1, 2): (27, ((5, 7), (6, 18))),
    (16, 60, 0.1, 4): (27, ((5, 7), (6, 18), (12, 42), (32, 41))),
    (16, 60, 0.1, 7): None,
    (17, 60, 0.18, 2): (23, ((6, 21), (8, 15))),
    (17, 60, 0.18, 4): (23, ((6, 21), (8, 15), (9, 31), (20, 33))),
    (17, 60, 0.18, 7): (23, ((6, 29), (8, 46), (9, 31), (15, 35), (20, 33), (21, 50), (36, 39))),
    (18, 60, 0.3, 2): (58, ((0, 9), (3, 15))),
    (18, 60, 0.3, 4): (58, ((0, 9), (3, 15), (6, 26), (16, 30))),
    (18, 60, 0.3, 7): (58, ((0, 9), (3, 15), (6, 26), (16, 30), (18, 27), (31, 37), (32, 49))),
    (19, 60, 0.5, 2): (59, ((0, 7), (1, 2))),
    (19, 60, 0.5, 4): (59, ((0, 7), (1, 2), (3, 4), (6, 14))),
    (19, 60, 0.5, 7): (59, ((0, 7), (1, 2), (3, 4), (6, 14), (9, 10), (11, 16), (15, 17))),
}


MONO_CASES = {
    "chromatic_lower(3)": None,
    "conditioned(5, 3)": ("blue", 0, ((1, 2), (3, 7), (4, 5))),
    "conditioned(11, 4)": ("red", 0, ((1, 4), (2, 3), (5, 7), (6, 8))),
}


@pytest.mark.parametrize("case", sorted(FAN_CASES),
                         ids=lambda c: "seed{}-n{}-p{}-k{}".format(*c))
def test_find_fan_witness_unchanged(case):
    seed, n, p, k = case
    w = find_fan(gnp(seed, n, p), k)
    assert (None if w is None else (w.center, w.spokes)) == FAN_CASES[case]


def _mono(result):
    if result is None:
        return None
    color, w = result
    return color, w.center, w.spokes


def test_find_mono_fan_witness_unchanged():
    got = {
        "chromatic_lower(3)": _mono(find_mono_fan(chromatic_lower(3), 3)),
        "conditioned(5, 3)": _mono(find_mono_fan(
            conditioned_coloring(random.Random(5), 3), 3)),
        "conditioned(11, 4)": _mono(find_mono_fan(
            conditioned_coloring(random.Random(11), 4), 4)),
    }
    assert got == MONO_CASES


# sha256 over the 500 inputs of acceptance criterion 8 (random.Random(2024),
# n = randint(1, 5), then conditioned_coloring(rng, n)): one JSON line
# [color, witness] per input
HIGH_DEGREE_DIGEST = "a596fb4cfa933f676544b9c9515aa50a83f4216a5054866a6b42098964a70f62"


def test_high_degree_fan_witnesses_unchanged():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(500):
        n = rng.randint(1, 5)
        color, w = high_degree_fan(conditioned_coloring(rng, n), n)
        line = json.dumps([color, w.to_json_dict()], sort_keys=True)
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == HIGH_DEGREE_DIGEST


# sha256 over high_degree_fan at the sizes of certify's conditioned jobs
# (random.Random(2040), n = 10..40, two conditioned_coloring(rng, n) each;
# 31 red and 31 blue hubs), one JSON line [color, witness] per input
HIGH_DEGREE_LARGE_DIGEST = "803c80c4f05f800003b2c6319aa77eb6dadde4130359b674c8af72bdfe3ca353"


def test_high_degree_fan_witnesses_unchanged_at_large_n():
    rng = random.Random(2040)
    digest = hashlib.sha256()
    for n in range(10, 41):
        for _ in range(2):
            color, w = high_degree_fan(conditioned_coloring(rng, n), n)
            line = json.dumps([color, w.to_json_dict()], sort_keys=True)
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == HIGH_DEGREE_LARGE_DIGEST

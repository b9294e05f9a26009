"""The three workloads: seeded input generators, jobs and their checks.

A job is what one user command does. Its `run` calls the library through
module attributes looked up at call time, so that the traced run sees every
call; its `check` re-derives the answer with the code in checks.py and
returns the material that goes into the output digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checks
from checks import adjacency, require

HERE = Path(__file__).resolve().parent

# Sizes of each workload. "full" is what the benchmark measures; "smoke" is
# a seconds-long run of the same code paths for the self-check.
SIZES = {
    "full": {
        "special_n": 60,
        "sweep_n": range(14, 19),
        "turan_orders": (120, 160, 200),
        "conditioned": (100, 40),
        # graphs per density class by order: p50 and p90 then fall inside
        # the deficiency-0 classes, whose cost varies least from graph to graph
        "gnp_per_class": {50: 16, 100: 8},
        "hood_n": 20,
        "hoods_per_block": 3,
        "blue_sizes": range(1, 9),
        "red_sizes": range(1, 5),
    },
    "smoke": {
        "special_n": 6,
        "sweep_n": range(4, 6),
        "turan_orders": (40,),
        "conditioned": (4, 5),
        "gnp_per_class": {10: 2, 20: 2},
        "hood_n": 6,
        "hoods_per_block": 1,
        "blue_sizes": range(1, 3),
        "red_sizes": range(1, 3),
    },
}

# Pairs (blue, red) that took at least 5 ms serially on the full table; the
# search workload runs each of them PARALLEL_RUNS more times with a
# two-worker pool. With one run each they would be 14 of 142 jobs, and p90
# would read the fastest of them, on the edge of the serial jobs; with two
# it falls inside them.
PARALLEL_PAIRS = (
    "star5-star4", "star6-star3", "star6-star4", "star7-star3", "star8-star2",
    "star2-fan4", "star3-fan3", "star4-fan2", "fan2-star4", "fan3-star3",
    "fan3-star4", "fan4-star2", "fan4-star3", "fan4-star4",
)
PARALLEL_WORKERS = 2
PARALLEL_RUNS = 2

WORKLOADS = ("certify", "decompose", "search")


@dataclass
class Job:
    label: str
    part: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]
    pool: bool = False  # the job starts a process pool


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    input_digest: str
    info: dict = field(default_factory=dict)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def build(name: str, seed: int, size: str, lib, workdir: Path) -> Workload:
    """Generate the inputs of a workload from its seed and wrap them in jobs."""
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, SIZES[size], lib, workdir)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for v in range(1, n) for u in range(v) if rng.random() < p]


def graph6(n: int, edges) -> str:
    """graph6 text of a graph, written from the format spec."""
    if n <= 62:
        head = [n]
    else:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    present = set(edges)
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return "".join(chr(c + 63) for c in head + body)


def conditioned_edges(rng: random.Random, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Red edges of a coloring of K_{3n+1} whose vertex 0 is monochromatic."""
    order = 3 * n + 1
    edges = [(0, w) for w in range(1, order)] if rng.random() < 0.5 else []
    edges += [(u, w) for u in range(1, order) for w in range(u + 1, order)
              if rng.random() < 0.5]
    return order, edges


def supported_star_fan(m: int, n: int) -> bool:
    """Block sizes a, b >= 1 and window sigma in [2, 4], from the closed form."""
    a, b = checks.block_sizes(m, n)
    return m > n >= 2 and a >= 1 and b >= 1 and 2 <= m + n - 1 - a - 2 * b <= 4


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _certify(rng, size, lib, workdir: Path) -> Workload:
    fr, cli = lib.fanramsey, lib.cli
    special_n = size["special_n"]
    sweep = [(m, n) for n in size["sweep_n"] for m in range(n + 1, 2 * n + 6)
             if supported_star_fan(m, n)]
    turan = list(size["turan_orders"])
    count, cond_n = size["conditioned"]
    colorings = [conditioned_edges(rng, cond_n) for _ in range(count)]
    inputs = {"special_n": special_n, "sweep": sweep, "turan": turan,
              "cond_n": cond_n, "colorings": colorings}

    jobs = []
    special_file = workdir / "special.edges"

    def round_trip():
        out = io.StringIO()
        with redirect_stdout(out):
            built = cli.main(["construct", "star-fan-special", "--n", str(special_n),
                              "--out", str(special_file)])
            start = out.tell()
            verified = cli.main(["verify", str(special_file), "--m", str(2 * special_n),
                                 "--n", str(special_n), "--json"])
        return built, verified, out.getvalue()[start:]

    def check_round_trip(out):
        built, verified, text = out
        require(built == 0 and verified == 0, f"exit codes {built}, {verified}")
        report = json.loads(text)
        order = checks.star_fan_order(2 * special_n, special_n)
        require(all(c["holds"] for c in report["claims"]), "a claim fails")
        require(report["bound_implied"]
                == f"R(K_{{1,{2 * special_n}}}, F_{special_n}) >= {order + 1}",
                f"bound {report['bound_implied']!r}")
        checks.check_star_fan_file(special_file.read_text(), 2 * special_n, special_n)
        return report

    jobs.append(Job(f"cli-special-{special_n}", "a", round_trip, check_round_trip))

    sweep_file = workdir / "sweep.edges"
    for m, n in sweep:
        def run(m=m, n=n):
            coloring, _ = fr.star_fan_lower(m, n)
            fr.write_coloring(coloring, sweep_file)
            return fr.verify_star_fan_witness(fr.read_coloring(sweep_file), m, n)

        def check(report, m=m, n=n):
            order = checks.star_fan_order(m, n)
            require(report.all_hold, "a claim fails")
            require(report.bound_implied == f"R(K_{{1,{m}}}, F_{n}) >= {order + 1}",
                    f"bound {report.bound_implied!r}")
            checks.check_star_fan_file(sweep_file.read_text(), m, n)
            return report.to_json_dict()

        jobs.append(Job(f"star-fan-{m}-{n}", "b", run, check))

    for order in turan:
        k = order // 4

        def run(order=order, k=k):
            return fr.turan_lower(order, k)

        def check(g, order=order, k=k):
            require(g.n == order, f"{g.n} vertices, expected {order}")
            edges = g.edges()
            checks.check_turan(order, k, edges)
            return [order, k, len(edges)]

        jobs.append(Job(f"turan-{order}", "c", run, check))

    for i, (order, edges) in enumerate(colorings):
        def run(order=order, edges=edges):
            coloring = fr.TwoColoring.from_red_edges(order, edges)
            return (fr.verify_fan_fan_witness(coloring, cond_n),
                    fr.high_degree_fan(coloring, cond_n))

        def check(out, order=order, edges=edges):
            report, found = out
            red = adjacency(order, edges)
            every = set(range(order))
            adj = {"red": red, "blue": [every - red[v] - {v} for v in range(order)]}
            fans = [c for c in report.claims if not c.holds]
            require(bool(fans), "fan-fan verification found no fan")
            for claim in fans:
                color = claim.prop.split()[1]
                cert = claim.certificate
                checks.check_fan(adj[color], cert["center"], cert["spokes"], cond_n)
            require(found is not None, "high_degree_fan returned no fan")
            color, witness = found
            checks.check_fan(adj[color], witness.center, witness.spokes, cond_n)
            return [report.to_json_dict(), color, witness.to_json_dict()]

        jobs.append(Job(f"conditioned-{i}", "d", run, check))

    rng.shuffle(jobs)
    return Workload("certify", jobs, digest(inputs))


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def _decompose(rng, size, lib, workdir: Path) -> Workload:
    fr = lib.fanramsey
    graphs = []
    for n, count in size["gnp_per_class"].items():
        for p in (1.5 / n, 3 / n, 0.1, 0.3):
            for _ in range(count):
                edges = gnp_edges(rng, n, p)
                graphs.append((n, p, edges, graph6(n, edges)))

    hood_n = size["hood_n"]
    coloring, params = fr.star_fan_lower_special(hood_n)
    red = adjacency(coloring.n, coloring.red.edges())
    blocks = (params.x1, params.x2, params.y1, params.y2)
    centers = [v for block in blocks
               for v in sorted(rng.sample(block, size["hoods_per_block"]))]
    inputs = {"graph6": [g[3] for g in graphs], "hood_n": hood_n, "centers": centers}

    jobs = []
    for i, (n, p, edges, text) in enumerate(graphs):
        def run(text=text):
            g = fr.graph6_decode(text)
            return fr.max_matching(g), fr.edmonds_gallai(g)

        def check(out, n=n, edges=edges):
            matching, part = out
            checks.check_matching(adjacency(n, edges), matching.edges)
            require(part.nu == matching.size, f"nu {part.nu} != |M| = {matching.size}")
            require(part.p == len(part.D), "p differs from the number of D_i")
            checks.check_partition(range(n), part.A, part.C, part.D,
                                   part.deficiency, part.nu)
            return part.to_json_dict()

        jobs.append(Job(f"gnp-{n}-{p:.3g}-{i}", "graph", run, check))

    for v in centers:
        def run(v=v):
            return fr.eg_neighborhood_structure(coloring, v, fr.RED, hood_n)

        def check(report, v=v):
            require(report.applicable, f"nu = {report.nu} makes the report inapplicable")
            require(set(report.neighborhood) == red[v], "wrong neighbourhood")
            require(report.nu <= hood_n - 1, f"nu = {report.nu} > n - 1")
            part = report.partition
            checks.check_partition(red[v], part.A, part.C, part.D,
                                   part.deficiency, report.nu)
            return report.to_json_dict()

        jobs.append(Job(f"hood-{v}", "hood", run, check))

    orders = [g[0] for g in graphs] + [len(red[v]) for v in centers]
    rng.shuffle(jobs)
    return Workload("decompose", jobs, digest(inputs), {"decomposed_orders": orders})


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def parse_pair(label: str):
    blue, red = label.split("-")
    return (blue[:-1], int(blue[-1])), (red[:-1], int(red[-1]))


def _search(rng, size, lib, workdir: Path) -> Workload:
    fr = lib.fanramsey
    table = json.loads((HERE / "small_values.json").read_text())["values"]
    kinds = ("star", "fan")
    serial = [f"{bk}{bs}-{rk}{rs}" for bk in kinds for bs in size["blue_sizes"]
              for rk in kinds for rs in size["red_sizes"]]
    # the smoke table holds none of the slow pairs, so it takes its last two
    parallel = PARALLEL_RUNS * ([p for p in PARALLEL_PAIRS if p in serial] or serial[-2:])
    rng.shuffle(serial)
    rng.shuffle(parallel)
    runs = [(label, 1) for label in serial] + [(label, PARALLEL_WORKERS) for label in parallel]

    jobs = []
    for label, workers in runs:
        blue, red = parse_pair(label)
        cap = 8 if blue[0] == red[0] == "fan" else 9

        def run(blue=blue, red=red, cap=cap, workers=workers):
            return fr.brute_force_ramsey(blue, red, cap, workers=workers).value

        def check(value, blue=blue, red=red, cap=cap, label=label, workers=workers):
            expect = checks.expected_ramsey(blue, red, cap, table)
            require(value == expect, f"{label}: value {value}, expected {expect}")
            return [label, workers, value]

        jobs.append(Job(label, "serial" if workers == 1 else "parallel", run, check,
                        pool=workers > 1))
    return Workload("search", jobs, digest(runs))


_BUILDERS = {"certify": _certify, "decompose": _decompose, "search": _search}

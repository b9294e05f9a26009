"""Self-check of the benchmark: negative controls, smoke runs, input digests.

    python3 bench/selfcheck.py

1. Every output check accepts a correct output and rejects the same output
   corrupted: a spoke removed, a vertex moved from a D_i to C, a Ramsey
   value off by one, and more.
2. Every workload runs at smoke size without a failed job, and two traced
   smoke runs at one seed give the same counts. Every call edmonds_gallai
   makes to max_matching is seen, so max_matching calls per decomposition
   equal the mean order of the decomposed graphs plus 1.
3. The generators still produce the inputs recorded in baseline.json.

Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
import tracing
import workloads
from checks import CheckFailed, adjacency

HERE = Path(__file__).resolve().parent
COUNTS = ("fans.find_fan.calls", "fans.find_fan.blossom_fallbacks", "graphs.Graph.calls",
          "graphs.induced.calls", "matching.max_matching.calls",
          "matching.max_matching.per_decomposition")

problems: list[str] = []


def verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    if not ok:
        problems.append(name)


def control(name: str, check, good, bad) -> None:
    """check(good) must pass and check(bad) must raise CheckFailed."""
    try:
        check(good)
    except CheckFailed as exc:
        verdict(f"{name}: accepts the correct output", False, str(exc))
        return
    try:
        check(bad)
    except CheckFailed as exc:
        verdict(f"{name}: rejects the corrupted output", True, str(exc))
    else:
        verdict(f"{name}: rejects the corrupted output", False, "accepted")


def negative_controls(fr, workdir: Path) -> None:
    rng = random.Random(7)

    order, edges = workloads.conditioned_edges(rng, 4)
    coloring = fr.TwoColoring.from_red_edges(order, edges)
    color, w = fr.high_degree_fan(coloring, 4)
    red = adjacency(order, edges)
    adj = red if color == fr.RED else [set(range(order)) - red[v] - {v} for v in range(order)]
    spokes = [list(e) for e in w.spokes]
    control("fan witness, a spoke removed",
            lambda s: checks.check_fan(adj, w.center, s, 4), spokes, spokes[1:])
    used = {w.center, *(x for e in spokes for x in e)}
    non_edge = next([a, b] for b in range(order) for a in range(b)
                    if b not in adj[a] and not {a, b} & used)
    control("fan witness, a spoke replaced by a non-edge",
            lambda s: checks.check_fan(adj, w.center, s, 4), spokes,
            [non_edge] + spokes[1:])

    col, params = fr.star_fan_lower(10, 5)
    path = workdir / "control.edges"
    fr.write_coloring(col, path)
    text = path.read_text()
    low = str(min(range(col.n), key=col.red.degree))
    dropped = "\n".join(ln for ln in text.splitlines() if low not in ln.split())
    control("star-fan coloring, red edges of a vertex removed",
            lambda t: checks.check_star_fan_file(t, 10, 5), text, dropped)
    control("star-fan coloring, N off the closed form",
            lambda t: checks.check_star_fan_file(t, 10, 5), text,
            text.replace(f"# n={col.n}", f"# n={col.n + 2}"))

    g = fr.turan_lower(40, 10)
    control("Turan graph, one edge too many",
            lambda e: checks.check_turan(40, 10, e), g.edges(), g.edges() + [(0, 1)])
    control("fan-free bound, a graph that holds a fan",
            lambda n: checks.fan_free_bound(adjacency(n, [(a, b) for b in range(n)
                                                          for a in range(b)]), 3), 5, 7)

    edges = workloads.gnp_edges(rng, 30, 1.5 / 30)
    gadj = adjacency(30, edges)
    part = fr.edmonds_gallai(fr.graph6_decode(workloads.graph6(30, edges)))
    d_first = sorted(part.D[0])
    moved = (part.A, part.C | {d_first[0]}, (frozenset(d_first[1:]),) + part.D[1:])

    def partition(sets):
        checks.check_partition(range(30), *sets, part.deficiency, part.nu)
    control("Gallai-Edmonds partition, a vertex moved from D_1 to C",
            partition, (part.A, part.C, part.D), moved)
    matching = list(fr.max_matching(fr.Graph(30, edges)).edges)
    non_edge = next((a, b) for b in range(30) for a in range(b) if b not in gadj[a]
                    and all(x not in e for e in matching for x in (a, b)))
    control("matching, a non-edge added",
            lambda m: checks.check_matching(gadj, m), matching, matching + [non_edge])

    table = json.loads((HERE / "small_values.json").read_text())["values"]
    for label in ("star3-star4", "star3-fan3", "fan1-fan1", "star4-fan3"):
        blue, red = workloads.parse_pair(label)
        cap = 8 if blue[0] == red[0] == "fan" else 9
        value = fr.brute_force_ramsey(blue, red, cap).value

        def same(x, blue=blue, red=red, cap=cap):
            expect = checks.expected_ramsey(blue, red, cap, table)
            checks.require(x == expect, f"{x} != {expect}")
        control(f"Ramsey value {label}, off by one", same, value,
                (value or cap + 1) - 1)


def bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, timeout=170, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def smoke_runs() -> None:
    for name in workloads.WORKLOADS:
        res = bench("--workload", name, "--seed", "3", "--seconds", "1", "--size", "smoke")
        verdict(f"smoke run of {name}", res["correct"] and res["failed"] == 0,
                f"{res['attempted']} jobs, {res['failed']} failed")
    traced = []
    for _ in range(2):
        res = bench("--workload", "decompose", "--seed", "3", "--seconds", "1",
                       "--trace", "1", "--size", "smoke")
        traced.append({k: res["metrics"][k]["value"] for k in COUNTS})
        verdict("traced smoke run", res["correct"] and res["failed"] == 0)
    verdict("traced counts repeat at a fixed seed", traced[0] == traced[1],
            json.dumps(traced[0]))
    docs = [json.loads((run.OUT / f"trace-{w}-seed3.json").read_text())
            for w in workloads.WORKLOADS]
    orders = next(d["decomposed_orders"] for d in docs if "decomposed_orders" in d)
    per = tracing.layer_metrics(docs)["matching.max_matching.per_decomposition"]
    verdict("max_matching calls per decomposition = mean order + 1",
            abs(per - (statistics.mean(orders) + 1)) < 1e-9,
            f"{per} vs {statistics.mean(orders) + 1}")


def input_digests(lib, workdir: Path) -> None:
    recorded = json.loads((HERE / "baseline.json").read_text())["input_sha256"]
    for name, by_seed in recorded.items():
        for seed, expect in by_seed.items():
            got = workloads.build(name, int(seed), "full", lib, workdir).input_digest
            verdict(f"{name} inputs at seed {seed} match baseline.json", got == expect, got)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    lib = run.import_library()
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        negative_controls(lib.fanramsey, Path(tmp))
        input_digests(lib, Path(tmp))
    smoke_runs()
    print(f"{len(problems)} problems" if problems else "all checks hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

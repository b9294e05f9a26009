"""Benchmark of the fanramsey toolkit: certify, decompose and search.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from src/.

--trace 0 measures one workload in this process: it sets up several times
(import fanramsey, generate the inputs) and reports the median as setup_s,
then runs passes over all jobs of the workload until --seconds have passed.
A job's latency is its median over the passes. wall_s is the sum of those
latencies, the time of one pass; job_p50_ms and job_p90_ms are percentiles
over the jobs. Every job's output goes through the independent checks in
checks.py; a job that raises or fails them counts as failed.

Every time that --trace 0 reports is scaled to a fixed host speed by the
probes of host.py, taken between the jobs and between the set-ups.

--trace 1 gives the per-layer metrics. It runs every workload, each in a
child process, so that every layer is measured on every traced run; a child
runs one untraced pass, then one traced pass, and writes its spans to
.bench_out/. The named workload only decides which goes first.

--workload all runs the three untraced measurements one after another, each
in its own process, and prints every end-to-end metric with its unit.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads
from host import Host, scale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
CHILDREN_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                    "job_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def import_library() -> SimpleNamespace:
    """Import fanramsey afresh from src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "fanramsey" or n.startswith("fanramsey.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    fanramsey = importlib.import_module("fanramsey")
    cli = importlib.import_module("fanramsey.cli")
    if Path(fanramsey.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"fanramsey imported from {fanramsey.__file__}, not {SRC}")
    return SimpleNamespace(fanramsey=fanramsey, cli=cli)


def set_up(name: str, seed: int, size: str, workdir: Path) -> workloads.Workload:
    return workloads.build(name, seed, size, import_library(), workdir)


def run_pass(workload, host: Host, tracer=None):
    """Time every job once, between two probes of the host; check the
    outputs outside the timed regions. Returns the scaled job times."""
    latencies = []
    failed = 0
    out_hash = hashlib.sha256()
    gc.collect()
    before = None  # (pool, probe time) taken just before the job
    for index, job in enumerate(workload.jobs):
        if before is None or before[0] != job.pool:
            before = (job.pool, host.probe(job.pool))
        if tracer is not None:
            tracer.job = index
        t0 = perf_counter()
        try:
            output = job.run()
            error = None
        except Exception as exc:  # a failing job is data: count it and go on
            error = exc
        elapsed = perf_counter() - t0
        after = host.probe(job.pool)
        latencies.append(scale(elapsed, job.pool, before[1], after))
        before = (job.pool, after)
        if error is None:
            try:
                summary = job.check(output)
                out_hash.update(workloads.digest([job.label, summary]).encode())
                continue
            except Exception as exc:  # CheckFailed, or an output of the wrong shape
                error = exc
        failed += 1
        print(f"FAILED {workload.name} {job.label}: {type(error).__name__}: {error}",
              file=sys.stderr)
    return latencies, failed, out_hash.hexdigest()


def measure(args, host: Host) -> dict:
    """Untraced run of one workload in this process."""
    setups = []
    before = host.probe(False)
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        wl = set_up(args.workload, args.seed, args.size, args.workdir)
        elapsed = perf_counter() - t0
        after = host.probe(False)
        setups.append(scale(elapsed, False, before, after))
        before = after
    passes, spents, digests = [], [], set()
    failed = 0
    while not spents or sum(spents) + statistics.median(spents) <= args.seconds:
        t0 = perf_counter()
        latencies, bad, out_digest = run_pass(wl, host)
        spents.append(perf_counter() - t0)
        passes.append(latencies)
        failed += bad
        digests.add(out_digest)
    per_job = [statistics.median(lat) for lat in zip(*passes)]
    jobs = len(wl.jobs)
    print(f"{args.workload} seed {args.seed}: {jobs} jobs per pass, {len(passes)} passes; "
          f"inputs sha256 {wl.input_digest}; outputs sha256 {' '.join(sorted(digests))}")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_job),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_p90_ms": 1000 * statistics.quantiles(per_job, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return result(failed == 0, jobs * len(passes), failed,
                  {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def trace_child(args, host: Host) -> dict:
    """One untraced and one traced pass of one workload; spans go to a file."""
    wl = set_up(args.workload, args.seed, args.size, args.workdir)
    untraced, failed_plain, _ = run_pass(wl, host)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, failed_traced, _ = run_pass(wl, host, tracer)
    finally:
        tracer.uninstall()
    doc = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "input_sha256": wl.input_digest,
        "jobs": [[job.label, job.part] for job in wl.jobs],
        "untraced_wall_s": sum(untraced), "traced_wall_s": sum(traced),
        "spans": tracer.spans, **wl.info,
    }
    args.trace_file.write_text(json.dumps(doc))
    failed = failed_plain + failed_traced
    return result(failed == 0, 2 * len(wl.jobs), failed, {})


def run_children(args, order, trace: bool) -> list[tuple[str, dict, Path | None]]:
    """Run each workload in its own process, one after another."""
    out = []
    deadline = perf_counter() + CHILDREN_TIMEOUT_S
    for name in order:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "1" if trace else "0", "--size", args.size]
        trace_file = None
        if trace:
            trace_file = OUT / f"trace-{name}-seed{args.seed}.json"
            cmd += ["--trace-file", str(trace_file)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                                  timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name} did not finish within {CHILDREN_TIMEOUT_S} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} exited with code {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        out.append((name, json.loads(lines[-1]), trace_file))
    return out


def traced_run(args) -> dict:
    order = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
    children = run_children(args, order, trace=True)
    docs = [json.loads(path.read_text()) for _, _, path in children]
    metrics = tracing.layer_metrics(docs)
    for doc in docs:
        orders = doc.get("decomposed_orders")
        if orders:
            print(f"mean order of decomposed graphs + 1 = {statistics.mean(orders) + 1}; "
                  f"max_matching calls per decomposition = "
                  f"{metrics['matching.max_matching.per_decomposition']}")
    return result(all(r["correct"] for _, r, _ in children),
                  sum(r["attempted"] for _, r, _ in children),
                  sum(r["failed"] for _, r, _ in children),
                  {k: (v, layer_unit(k)) for k, v in metrics.items()})


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".blossom_fallbacks")):
        return "count"
    return "s" if name.endswith("_s") else "ratio"


def all_workloads(args) -> dict:
    children = run_children(args, workloads.WORKLOADS, trace=False)
    metrics = {}
    print(f"{'workload':<10} {'metric':<12} {'value':>14} unit")
    for name, res, _ in children:
        rows = dict(res["metrics"])
        rows["failed_frac"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
        for key, entry in rows.items():
            print(f"{name:<10} {key:<12} {entry['value']:>14.6g} {entry['unit']}")
            metrics[f"{name}.{key}"] = entry
    return {"correct": all(r["correct"] for _, r, _ in children),
            "attempted": sum(r["attempted"] for _, r, _ in children),
            "failed": sum(r["failed"] for _, r, _ in children),
            "metrics": metrics}


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="'smoke' runs the same code paths on tiny inputs")
    p.add_argument("--trace-file", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload == "all" and args.trace:
        p.error("--workload all measures untraced; name one workload with --trace 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fanramsey" / "__init__.py").is_file():
        print(f"error: no fanramsey sources under {SRC}", file=sys.stderr)
        return 2
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"{platform.machine()}")
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    args.workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.workload == "all":
            res = all_workloads(args)
        elif args.trace and args.trace_file is None:
            res = traced_run(args)
        else:
            with Host() as host:
                res = trace_child(args, host) if args.trace else measure(args, host)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host-speed probes, by which every time the benchmark reports is scaled.

On a shared host other tenants slow a process down by up to a half, for
seconds to minutes at a time, and its CPU time slows with its wall time.
Jobs that start a process pool slow down more, and not in step, when the
host keeps the second vCPU busy: their workers wait for it. So each job is
timed between two probes of the same kind of work, made of the benchmark's
own code, and its time is multiplied by the probe's nominal time over the
mean of the probe's times just before and just after the job:

- the CPU probe, breadth-first searches over a fixed graph, runs in the
  benchmark's process with the collector off; it scales jobs that run in
  one process, and set-up;
- the pool probe, a two-worker fork pool that runs the CPU probe three
  times in each worker, scales jobs that start a pool. It runs in a helper
  process that imports nothing of the library, so that the library's size
  and state do not change what it measures.

A change to the library moves a job's time and not the probes', so the
figures read as times on a host that runs the CPU probe in CPU_NOMINAL_S
and the pool probe in POOL_NOMINAL_S.

    python3 bench/host.py    # the helper: one pool probe per line of stdin
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import subprocess
import sys
from time import perf_counter

CPU_NOMINAL_S = 0.001
POOL_NOMINAL_S = 0.015
POOL_WORKERS = 2
HELPER_EXIT_TIMEOUT_S = 10

_rng = random.Random(0)
GRAPH = [sorted(_rng.sample(range(60), 12)) for _ in range(60)]


def cpu_probe() -> float:
    """Time a fixed run of breadth-first searches, with the collector off."""
    gc.disable()
    t0 = perf_counter()
    for source in range(0, len(GRAPH), 3):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            reached = []
            for u in frontier:
                for w in GRAPH[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        reached.append(w)
            frontier = reached
    spent = perf_counter() - t0
    gc.enable()
    return spent


def _pool_task(_):
    return sum(cpu_probe() for _ in range(3))


def pool_probe() -> float:
    t0 = perf_counter()
    with multiprocessing.get_context("fork").Pool(POOL_WORKERS) as pool:
        pool.map(_pool_task, range(POOL_WORKERS))
    return perf_counter() - t0


def scale(seconds: float, pool: bool, before: float, after: float) -> float:
    """A time scaled by the probe times just before and just after it."""
    nominal = POOL_NOMINAL_S if pool else CPU_NOMINAL_S
    return seconds * nominal / ((before + after) / 2)


class Host:
    """The probes of one benchmark process. As a context manager it owns the
    pool probe's helper, which starts at the first pool probe."""

    def __init__(self):
        self.helper = None

    def __enter__(self) -> Host:
        return self

    def __exit__(self, *exc) -> None:
        if self.helper is None:
            return
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=HELPER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()

    def probe(self, pool: bool) -> float:
        if not pool:
            return cpu_probe()
        if self.helper is None:
            self.helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                           stdout=subprocess.PIPE, text=True)
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError(f"pool probe helper exited with code {self.helper.wait()}")
        return float(line)


def serve() -> None:
    for _ in sys.stdin:
        print(pool_probe(), flush=True)


if __name__ == "__main__":
    serve()

#!/usr/bin/env python3
"""Benchmark spanning_tree_modulus on one seeded workload.

    python3 perfbench/run.py --workload batch-small --seed 20260809 --seconds 30 --trace 0

With ``--trace 0`` it solves the workload's graphs in order, one at a time
in this process, until ``--seconds`` of solve time have accumulated, and
reports the end-to-end metrics.  With ``--trace 1`` it solves the
workload's fixed trace set twice per round, once plain and once with
per-layer wrappers installed, and reports the per-layer metrics; the spans
go to .bench_trace/.  Every result is checked exactly.  The last line of
standard output is one JSON object; the exit code is 1 when any graph
failed or a result was wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads as wl

SETUPS = 7  # set-ups per run; setup_s is their median
TRACE_GRAPHS = {"batch-small": 1000, "multilevel": 10, "dense-geometric": 12}
PINNED = Path(__file__).with_name("pinned.json")
TRACE_DIR = wl.ROOT / ".bench_trace"


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def setup(workload: str, seed: int):
    """Import and build the workload SETUPS times; the median is setup_s."""
    times = []
    for _ in range(SETUPS):
        start = perf_counter()
        tm, graphs = wl.build(workload, seed)
        times.append(perf_counter() - start)
    # the graph list stays alive for the whole run; keep it out of the
    # collector's scans, as a caller solving one graph would have no such list
    gc.collect()
    gc.freeze()
    return statistics.median(times), tm, graphs


class Checker:
    """Exactness gate: every result passes oracle.verify_modulus, and at the
    default seed its usage-probability vector matches the pinned digest."""

    def __init__(self, workload: str, seed: int):
        pinned = json.loads(PINNED.read_text())
        self.pins = pinned["workloads"][workload] if seed == pinned["seed"] else []
        self.verify = sys.modules["treemodulus.oracle"].verify_modulus
        self.seconds = 0.0
        self.failures: list[str] = []

    def check(self, index: int, g, result) -> bool:
        start = perf_counter()
        report = self.verify(g, result)
        problem = ", ".join(e.name for e in report.entries if not e.passed)
        if not problem and index < len(self.pins) and wl.eta_digest(result.eta) != self.pins[index]:
            problem = "eta differs from the pinned digest"
        self.seconds += perf_counter() - start
        if problem:
            self.failures.append(f"graph {index}: {problem}")
        return not problem

    def solve(self, solve, index: int, g) -> tuple[float, bool]:
        """Time one solve, then check it; returns (seconds, ok)."""
        start = perf_counter()
        try:
            result = solve(g)
        except Exception:
            elapsed = perf_counter() - start
            self.failures.append(f"graph {index}: {traceback.format_exc(limit=-3)}")
            return elapsed, False
        elapsed = perf_counter() - start
        return elapsed, self.check(index, g, result)


def timed_loop(tm, graphs, seconds: float, checker: Checker) -> tuple[list[float], int]:
    """Solve graphs in order, wrapping around, until ``seconds`` of solve
    time have accumulated.  Checking is outside the timed calls."""
    solve = tm.spanning_tree_modulus
    times: list[float] = []
    failed = 0
    busy = 0.0
    while busy < seconds:
        index = len(times) % len(graphs)
        elapsed, ok = checker.solve(solve, index, graphs[index])
        times.append(elapsed)
        failed += not ok
        busy += elapsed
    return times, failed


def traced_pass(tm, graphs, checker: Checker) -> tuple[tracing.Tracer, float, int]:
    """Solve graphs once with the layer wrappers installed."""
    tracer = tracing.Tracer()
    solve = tm.spanning_tree_modulus
    failed = 0
    tracer.install()
    try:
        for index, g in enumerate(graphs):
            tracer.graph = index
            _elapsed, ok = checker.solve(
                lambda graph: tracer.call(tracing.ROOT_SPAN, solve, graph), index, g
            )
            failed += not ok
    finally:
        tracer.remove()
    roots = [s for s in tracer.spans if s[0] == tracing.ROOT_SPAN]
    return tracer, sum(s[2] - s[1] for s in roots), failed


def run_plain(workload, seed, seconds) -> tuple[dict, int, int, list[str]]:
    setup_s, tm, graphs = setup(workload, seed)
    checker = Checker(workload, seed)
    times, failed = timed_loop(tm, graphs, seconds, checker)
    metrics = {
        "graphs_per_s": (len(times) / sum(times), "1/s"),
        "graph_s_p50": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [f"failed_share = {failed / len(times):.6g} (of {len(times)} graphs)"]
    if len(times) >= 1000:
        p99 = statistics.quantiles(times, n=100)[98]
        notes.append(f"graph_s_p99 = {p99:.6g} s (of {len(times)} graphs)")
    return metrics, len(times), failed, checker.failures + notes


def run_traced(workload, seed, seconds) -> tuple[dict, int, int, list[str]]:
    _setup_s, tm, graphs = setup(workload, seed)
    graphs = graphs[: TRACE_GRAPHS[workload]]
    solve = tm.spanning_tree_modulus
    rounds = []
    attempted = failed = 0
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        checker = Checker(workload, seed)
        plain = 0.0
        for index, g in enumerate(graphs):
            elapsed, ok = checker.solve(solve, index, g)
            plain += elapsed
            failed += not ok
        check_s = checker.seconds
        tracer, traced, traced_failed = traced_pass(tm, graphs, checker)
        failed += traced_failed
        attempted += 2 * len(graphs)
        metrics = tracing.layer_metrics(tracer.counts(), tracer.times())
        metrics["oracle.check_s"] = (check_s, "s")
        metrics["trace.overhead_s"] = (traced - plain, "s")
        rounds.append((tracer, metrics, checker.failures))
    first = rounds[0][0]
    notes = [f for _t, _m, fs in rounds for f in fs]
    if any(t.counts() != first.counts() for t, _m, _f in rounds):
        notes.append("work counts differ between rounds of one seed")
        failed += 1
    if first.missing:
        notes.append(f"layer calls not found, left untraced: {', '.join(first.missing)}")
    metrics = {
        name: (statistics.median(m[name][0] for _t, m, _f in rounds), unit)
        for name, (_v, unit) in rounds[0][1].items()
    }
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"{workload}-seed{seed}.json"
    out.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "rounds": len(rounds),
                "environment": environment(),
                "counts": first.counts(),
                "metrics": {k: v for k, (v, _u) in metrics.items()},
                "span_fields": ["name", "start_s", "end_s", "parent", "graph"],
                "spans": first.spans,
            }
        )
    )
    notes.append(f"counts = {json.dumps(first.counts())}")
    notes.append(f"spans of round 1 of {len(rounds)} written to {out.relative_to(wl.ROOT)}")
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wl.require_sources()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run = run_traced if args.trace else run_plain
    metrics, attempted, failed, notes = run(args.workload, args.seed, args.seconds)
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"environment": environment()}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

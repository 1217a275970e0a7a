#!/usr/bin/env python3
"""Self-test of the benchmark, at the default seed.

    python3 perfbench/selftest.py            # check
    python3 perfbench/selftest.py --update   # rewrite pinned.json and baseline.json

Checks that batch-small starts with the committed corpus, that the traced
work counts repeat exactly across two set-ups of one seed and equal the
recorded seed baseline, that the wrappers are removed after a traced pass,
and that every pinned usage-probability digest is reproduced.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads as wl

BASELINE = Path(__file__).with_name("baseline.json")
# pinned per graph: about five seconds of solving per workload on a 2-core
# 2.1 GHz Xeon, covering each trace set
PIN_COUNT = {"batch-small": 2500, "multilevel": 30, "dense-geometric": 40}


def expect(condition: bool, message) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def traced_counts(workload: str) -> dict[str, int]:
    tm, graphs = wl.build(workload, wl.DEFAULT_SEED)
    before = {name: getattr(sys.modules[mod], name) for mod, name, _span in run.tracing.HOOKS}
    checker = run.Checker(workload, wl.DEFAULT_SEED)
    tracer, _seconds, failed = run.traced_pass(tm, graphs[: run.TRACE_GRAPHS[workload]], checker)
    after = {name: getattr(sys.modules[mod], name) for mod, name, _span in run.tracing.HOOKS}
    expect(before == after, "wrappers left installed")
    expect(not tracer.missing, f"layer calls not found: {tracer.missing}")
    expect(failed == 0, checker.failures)
    return tracer.counts()


def check_corpus_prefix() -> None:
    corpus = json.loads(wl.CORPUS.read_text())
    expect(corpus["seed"] == wl.DEFAULT_SEED, "corpus seed is not the default seed")
    _tm, graphs = wl.build("batch-small", wl.DEFAULT_SEED)
    expected = [(c["vertices"], [tuple(e) for e in c["edges"]]) for c in corpus["graphs"]]
    got = [(g.vertex_count, list(g.edges)) for g in graphs[: len(expected)]]
    expect(got == expected, "batch-small prefix differs from tests/fixtures/small_corpus.json")
    print(f"ok: batch-small starts with the {len(expected)}-graph committed corpus")


def check_pins(workload: str) -> None:
    tm, graphs = wl.build(workload, wl.DEFAULT_SEED)
    checker = run.Checker(workload, wl.DEFAULT_SEED)
    expect(len(checker.pins) == PIN_COUNT[workload], f"{workload}: pin count differs")
    for index, g in enumerate(graphs[: PIN_COUNT[workload]]):
        _elapsed, ok = checker.solve(tm.spanning_tree_modulus, index, g)
        expect(ok, checker.failures)
    print(f"ok: {workload}: {PIN_COUNT[workload]} pinned eta digests reproduced")


def update() -> None:
    pins = {}
    for workload in wl.WORKLOADS:
        tm, graphs = wl.build(workload, wl.DEFAULT_SEED)
        pins[workload] = [
            wl.eta_digest(tm.spanning_tree_modulus(g).eta)
            for g in graphs[: PIN_COUNT[workload]]
        ]
    run.PINNED.write_text(
        json.dumps({"seed": wl.DEFAULT_SEED, "workloads": pins}, indent=0) + "\n"
    )
    baseline = {
        "seed": wl.DEFAULT_SEED,
        "trace_graphs": run.TRACE_GRAPHS,
        "counts": {w: traced_counts(w) for w in wl.WORKLOADS},
    }
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {run.PINNED.name} and {BASELINE.name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()
    wl.require_sources()
    if args.update:
        update()
        return 0
    check_corpus_prefix()
    baseline = json.loads(BASELINE.read_text())
    for workload in wl.WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        expect(first == second, f"{workload}: counts differ between runs: {first} {second}")
        expect(
            first == baseline["counts"][workload],
            f"{workload}: counts {first} differ from baseline {baseline['counts'][workload]}",
        )
        print(f"ok: {workload}: counts repeat and match the baseline: {first}")
        check_pins(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())

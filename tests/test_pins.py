"""The benchmark's pinned usage-probability digests and traced work
counts, reproduced from tier-1.

The benchmark workloads are built by ``perfbench/workloads.py``, whose
``fresh_import`` drops and re-imports every ``treemodulus`` module; that
runs in a child interpreter so the modules the other tests hold stay put.
Only files under ``perfbench/`` are read.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# a prefix of each workload at the default seed: a few seconds of solving
PREFIX = {"batch-small": 300, "multilevel": 10, "dense-geometric": 10}

CHILD = """
import json
import sys

sys.path.insert(0, sys.argv[1])
import workloads as wl

prefix = json.loads(sys.argv[2])
pinned = json.loads((wl.ROOT / "perfbench" / "pinned.json").read_text())
assert pinned["seed"] == wl.DEFAULT_SEED
report = {}
for workload, count in prefix.items():
    tm, graphs = wl.build(workload, wl.DEFAULT_SEED)
    pins = pinned["workloads"][workload][:count]
    got = [wl.eta_digest(tm.spanning_tree_modulus(g).eta) for g in graphs[:len(pins)]]
    report[workload] = {
        "checked": len(got),
        "mismatched": [i for i, (a, b) in enumerate(zip(got, pins)) if a != b],
    }
print(json.dumps(report))
"""


def test_pinned_eta_digests_reproduce():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(PERFBENCH), json.dumps(PREFIX)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {
        workload: {"checked": count, "mismatched": []} for workload, count in PREFIX.items()
    }


TRACED_CHILD = """
import importlib.util
import json
import sys

sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("run", sys.argv[1] + "/run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
wl = run.wl
tm, graphs = wl.build("multilevel", wl.DEFAULT_SEED)
checker = run.Checker("multilevel", wl.DEFAULT_SEED)
tracer, _seconds, failed = run.traced_pass(tm, graphs[: run.TRACE_GRAPHS["multilevel"]], checker)
print(json.dumps({
    "failed": failed,
    "failures": checker.failures,
    "missing": tracer.missing,
    "counts": tracer.counts(),
}))
"""


def test_traced_multilevel_pass_counts():
    # the --trace 1 path of perfbench/run.py on its multilevel trace set;
    # the counts are those of the contracted-ascent benchmark point,
    # BENCH_15.json: every probe of a bridgeless peel is one sweep, each
    # after a peel's first on the quotient by the previous probe's parts
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CHILD, str(PERFBENCH)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["failed"] == 0, report["failures"]
    assert report["missing"] == []
    counts = report["counts"]
    assert (counts["graphs"], counts["peels"], counts["passes"]) == (10, 69, 111)
    assert counts["mincuts"] == 498
    assert counts["fallbacks"] == 0

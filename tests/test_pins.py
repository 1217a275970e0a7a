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
peels = []
check = checker.check

def counting_check(index, g, result):
    peels.append(len(result.trace))
    return check(index, g, result)

checker.check = counting_check
tracer, _seconds, failed = run.traced_pass(tm, graphs[: run.TRACE_GRAPHS["multilevel"]], checker)
print(json.dumps({
    "failed": failed,
    "failures": checker.failures,
    "missing": tracer.missing,
    "counts": tracer.counts(),
    "peels": sum(peels),
}))
"""


def test_traced_multilevel_pass_counts():
    # the --trace 1 path of perfbench/run.py on its multilevel trace set;
    # the counts are those of the rate divide-and-conquer benchmark point,
    # BENCH_21.json: every graph is swept once at its mean rate and splits
    # into its parts and its quotient.  modulus no longer calls
    # vulnerability, so the tracer's peel hook finds nothing to wrap and
    # the peels are counted from each result's trace
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CHILD, str(PERFBENCH)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["failed"] == 0, report["failures"]
    assert report["missing"] == ["modulus.vulnerability"]
    counts = report["counts"]
    assert (counts["graphs"], report["peels"], counts["passes"]) == (10, 69, 67)
    assert counts["mincuts"] == 337
    assert counts["fallbacks"] == 0

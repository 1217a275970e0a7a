"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Criterion 6 needs the user-supplied C. elegans file, see
tests/fixtures/README.md.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import treemodulus.vulnerability
from treemodulus.cli import fit_loglog_slope, main
from treemodulus.errors import InvariantViolation
from treemodulus.generators import SplitMix64
from treemodulus.graph import MultiGraph, parse_edge_list
from treemodulus.modulus import eta_histogram, spanning_tree_modulus
from treemodulus.oracle import (
    brute_modulus,
    brute_theta,
    count_spanning_trees,
    verify_modulus,
)
from treemodulus.polymatroid import BasisResult, cunningham_basis
from treemodulus.vulnerability import vulnerability

import sys

from brute import brute_basis
from conftest import basis_total

FIXTURES = Path(__file__).parent / "fixtures"
KARATE = FIXTURES / "karate.edges"
CELEGANS = FIXTURES / "celegans.edges"

vuln_mod = sys.modules["treemodulus.vulnerability"]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def complete(n):
    return MultiGraph(n, tuple((a, b) for a in range(n) for b in range(a + 1, n)))


# ---------------------------------------------------------------------------
# shared corpus runs (computed once, reused by criteria 3 and 4)

_corpus_cache: dict[str, list] = {}


def corpus_runs(corpus):
    if "runs" not in _corpus_cache:
        runs = []
        for name, g in corpus:
            runs.append((name, g, vulnerability(g), spanning_tree_modulus(g)))
        _corpus_cache["runs"] = runs
    return _corpus_cache["runs"]


def test_criterion_1_karate_exactness(capsys):
    start = time.perf_counter()
    assert main(["modulus", str(KARATE), "--format", "json"]) == 0
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    ok_modulus = payload["modulus"] == {"num": 680, "den": 9969}
    histogram = {}
    for item in payload["eta"]:
        key = Fraction(item["num"], item["den"])
        histogram[key] = histogram.get(key, 0) + 1
    expected = {
        Fraction(1): 1,
        Fraction(1, 2): 30,
        Fraction(2, 5): 5,
        Fraction(3, 8): 8,
        Fraction(6, 17): 34,
    }
    with capsys.disabled():
        report(
            1,
            ok_modulus and histogram == expected and elapsed < 5.0,
            f"modulus 680/9969 and exact eta histogram in {elapsed:.2f}s (< 5s)",
        )


def test_criterion_2_reference_vulnerability_values(capsys):
    start = time.perf_counter()
    karate, _ = parse_edge_list(KARATE.read_bytes())
    karate_result = vulnerability(karate)
    ok = karate_result.theta == 1 and len(karate_result.critical) == 1
    for n in range(3, 11):
        g = complete(n)
        result = vulnerability(g)
        ok = ok and result.theta == Fraction(2, n)
        ok = ok and result.critical == frozenset(range(g.edge_count))
        if n <= 7:
            value, family = brute_theta(g)
            ok = ok and value == Fraction(2, n) and result.critical in family
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(
            2,
            ok and elapsed < 10.0,
            f"theta(karate)=1 single edge; theta(K_n)=2/n with E critical for "
            f"n=3..10, brute-checked n<=7, in {elapsed:.2f}s (< 10s)",
        )


def test_criterion_3_oracle_equivalence(corpus, capsys):
    start = time.perf_counter()
    runs = corpus_runs(corpus)
    assert sum(1 for name, *_ in runs if name.startswith("random-")) >= 200
    rng = SplitMix64(0xACCE97)
    probes = 0
    for name, g, vuln_result, modulus_result in runs:
        value, family = brute_theta(g)
        assert vuln_result.theta == value, name
        assert vuln_result.critical in family, name
        reference = brute_modulus(g)
        assert modulus_result.eta == reference.eta, name
        assert modulus_result.modulus == reference.modulus, name
        # a threshold test at a random rate, total and candidate
        p, q = 1 + rng.below(4), 1 + rng.below(6)
        basis = cunningham_basis(g, p, q)
        assert (basis_total(basis, p, q), basis.candidate) == brute_basis(g, p, q), name
        probes += 1
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(
            3,
            elapsed < 300.0,
            f"{len(runs)} graphs: vulnerability, modulus and {probes} threshold-test "
            f"probes all match brute force exactly in {elapsed:.1f}s (< 5min)",
        )


def test_criterion_4_invariant_suite(corpus, capsys):
    runs = corpus_runs(corpus)
    karate, _ = parse_edge_list(KARATE.read_bytes())
    checked = 0
    for name, g, _vuln, result in runs + [("karate", karate, None, spanning_tree_modulus(karate))]:
        report_entries = verify_modulus(g, result)
        assert report_entries.all_passed, (name, [e for e in report_entries.entries if not e.passed])
        for rec in result.trace:
            if rec.parent >= 0:
                assert rec.theta <= result.trace[rec.parent].theta, name
        checked += 1
    with capsys.disabled():
        report(
            4,
            checked == len(runs) + 1,
            f"usage sum, normalization, density ratio, bridge usage, exact MST "
            f"identity and trace monotonicity hold on all {checked} modulus runs",
        )


def test_criterion_5_fallback_certification(monkeypatch, capsys, tmp_path):
    # a threshold test that cuts fewer than every edge at the exact value is
    # a faulty sweep, and no held set stands in for it: the ascent raises
    # InvariantViolation, both on the first probe of a uniformly dense graph
    # and after an ascent, and `treemod vuln` exits 5 with one error line
    graphs = [
        MultiGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))),
        MultiGraph(6, ((0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (3, 4), (4, 5), (5, 3))),
    ]
    faults = [lambda candidate: frozenset(), lambda candidate: candidate - {min(candidate)}]
    real = cunningham_basis
    caught = 0
    for g in graphs:
        true_theta = brute_theta(g)[0]
        path = tmp_path / "g.edges"
        path.write_text("".join(f"{a} {b}\n" for a, b in g.edges))
        for fault in faults:
            def faulty_at_theta(graph, p, q):
                result = real(graph, p, q)
                if Fraction(p, q) == true_theta:
                    return BasisResult(candidate=fault(result.candidate), part=result.part)
                return result

            monkeypatch.setattr(vuln_mod, "cunningham_basis", faulty_at_theta)
            with pytest.raises(InvariantViolation, match=f"failed test at {true_theta} "):
                vuln_mod.vulnerability(g)
            code = main(["vuln", str(path)])
            err = capsys.readouterr().err
            one_line = err.startswith("error: failed test at ") and err.count("\n") == 1
            caught += code == 5 and one_line
    with capsys.disabled():
        report(
            5,
            caught == len(graphs) * len(faults),
            "an empty or short candidate at the exact value raised InvariantViolation "
            f"and made `treemod vuln` exit 5 in {caught} of {len(graphs) * len(faults)} cases, "
            "on the first probe and after an ascent",
        )


@pytest.mark.skipif(
    not CELEGANS.exists(),
    reason="user-supplied C. elegans fixture not present; see tests/fixtures/README.md",
)
def test_criterion_6_celegans(capsys):
    start = time.perf_counter()
    g, _warnings = parse_edge_list(CELEGANS.read_bytes())
    ok = g.vertex_count == 453 and g.edge_count == 2025
    count = count_spanning_trees(g)
    digits = str(count)
    ok = ok and len(digits) == 330 and digits.startswith("66")
    result = spanning_tree_modulus(g)
    distinct = len(set(result.eta))
    ok = ok and distinct == 32
    ok = ok and verify_modulus(g, result).all_passed
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(
            6,
            ok and elapsed < 1800.0,
            f"453 vertices, 2025 edges, 330-digit tree count starting '66', "
            f"{distinct} distinct eta values in {elapsed:.0f}s (< 30min)",
        )


# per-family exponent envelopes: the per-run bound V^2 E^(5/2) log V with
# V ~ E^a gives exponent 2a + 5/2 in E (the log factor is dropped, which only
# tightens the envelope): complete graphs have a = 1/2, the growing
# multipartite family a = 2/3, and the two random families a <= 1.
BENCH_PLAN = [
    ("complete", "4,5,6,7,8,9", 3.5),
    ("multipartite", "2,3,4,5", 23 / 6),
    ("gnp", "10,14,18,22", 4.5),
    ("geometric", "10,13,16,20", 4.5),
]


def test_criterion_7_scaling_sanity(tmp_path, capsys):
    start = time.perf_counter()
    details = []
    ok = True
    for family, sizes, envelope in BENCH_PLAN:
        out = tmp_path / f"{family}.csv"
        code = main([
            "bench", "--families", family, "--sizes", sizes,
            "--reps", "2", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        points = [(int(r.split(",")[3]), int(r.split(",")[4])) for r in rows]
        slope = fit_loglog_slope(points)
        ok = ok and slope is not None and slope < envelope
        details.append(f"{family}: slope {slope:.2f} < {envelope:.2f}")
    elapsed = time.perf_counter() - start
    capsys.readouterr()  # drop the bench stderr chatter
    with capsys.disabled():
        report(
            7,
            ok and elapsed < 900.0,
            "; ".join(details) + f"; total {elapsed:.0f}s (< 15min)",
        )

import hashlib
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

import treemodulus.vulnerability  # noqa: F401 - loaded for the module handle below
from treemodulus.cli import main
from treemodulus.errors import DisconnectedGraphError, InvariantViolation
from treemodulus.generators import geometric_graph, gnp_graph
from treemodulus.graph import MultiGraph
from treemodulus.modulus import eta_histogram, spanning_tree_modulus
from treemodulus.oracle import brute_modulus, verify_modulus
from treemodulus.polymatroid import cunningham_basis

from brute import peeled_modulus
from conftest import connected_multigraphs, graph_from_pairs


# the package re-exports the function under the same name, so fetch the
# submodule itself for monkeypatching
vuln_mod = sys.modules["treemodulus.vulnerability"]


def cycle(n):
    return graph_from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def check_all(g, result):
    report = verify_modulus(g, result)
    assert report.all_passed, [e for e in report.entries if not e.passed]
    # trace invariants: children never exceed their parent's value, and the
    # peel count is bounded by the edge count
    assert len(result.trace) <= g.edge_count
    for rec in result.trace:
        if rec.parent >= 0:
            assert rec.theta <= result.trace[rec.parent].theta


class TestExamples:
    def test_tree(self, path4):
        result = spanning_tree_modulus(path4)
        assert result.eta == (Fraction(1),) * 3
        assert result.modulus == Fraction(1, 3)
        check_all(path4, result)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycles_single_peel(self, n):
        result = spanning_tree_modulus(cycle(n))
        assert set(result.eta) == {Fraction(n - 1, n)}
        assert result.modulus == Fraction(n, (n - 1) ** 2)
        assert len(result.trace) == 1
        check_all(cycle(n), result)

    def test_k4(self, k4):
        result = spanning_tree_modulus(k4)
        assert set(result.eta) == {Fraction(1, 2)}
        assert result.modulus == Fraction(2, 3)
        check_all(k4, result)

    def test_bridge_triangles(self, bridge_triangles):
        result = spanning_tree_modulus(bridge_triangles)
        assert result.modulus == Fraction(3, 11)
        assert result.eta[3] == 1
        peel_pairs = sorted((rec.theta, len(rec.critical_edges)) for rec in result.trace)
        assert peel_pairs == [(Fraction(2, 3), 3), (Fraction(2, 3), 3), (Fraction(1), 1)]
        check_all(bridge_triangles, result)

    def test_parallel_bundle(self):
        g = graph_from_pairs(2, [(0, 1)] * 3)
        result = spanning_tree_modulus(g)
        assert result.eta == (Fraction(1, 3),) * 3
        assert result.modulus == 3
        check_all(g, result)

    def test_rho_is_eta_times_modulus(self, bridge_triangles):
        result = spanning_tree_modulus(bridge_triangles)
        for eta, rho in zip(result.eta, result.rho):
            assert rho == eta * result.modulus

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            spanning_tree_modulus(graph_from_pairs(4, [(0, 1), (2, 3)]))

    def test_trivial_raises(self):
        with pytest.raises(DisconnectedGraphError):
            spanning_tree_modulus(MultiGraph(1, ()))


class TestHistogram:
    def test_tree_single_bucket(self, path4):
        result = spanning_tree_modulus(path4)
        assert eta_histogram(result) == [(Fraction(1), 3)]

    def test_cycle5(self):
        result = spanning_tree_modulus(cycle(5))
        assert eta_histogram(result) == [(Fraction(4, 5), 5)]

    def test_descending_order(self, bridge_triangles):
        result = spanning_tree_modulus(bridge_triangles)
        assert eta_histogram(result) == [(Fraction(1), 1), (Fraction(2, 3), 6)]


class TestTrace:
    def test_root_record(self, bridge_triangles):
        result = spanning_tree_modulus(bridge_triangles)
        root = result.trace[0]
        assert root.parent == -1
        assert root.vertex_count == 6
        assert root.edge_count == 7
        assert root.critical_edges == (3,)

    def test_children_reference_parent(self, bridge_triangles):
        result = spanning_tree_modulus(bridge_triangles)
        assert [rec.parent for rec in result.trace] == [-1, 0, 0]

    def test_critical_edges_are_root_ids(self, bridge_triangles):
        result = spanning_tree_modulus(bridge_triangles)
        covered = sorted(e for rec in result.trace for e in rec.critical_edges)
        assert covered == list(range(7))


@given(connected_multigraphs(max_vertices=7, max_extra=5))
@settings(max_examples=50, deadline=None)
def test_matches_brute_force_recursion(g):
    result = spanning_tree_modulus(g)
    reference = brute_modulus(g)
    assert result.eta == reference.eta
    assert result.modulus == reference.modulus
    check_all(g, result)


@given(connected_multigraphs(max_vertices=9, max_extra=8))
@example(graph_from_pairs(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]))
@example(graph_from_pairs(7, [(0, 1), (0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (3, 4), (4, 5),
                              (5, 3), (5, 6)]))
@settings(max_examples=300, deadline=None)
def test_levels_give_the_peeled_result(g):
    # the whole result, trace order included, equals top-down peeling with
    # the public vulnerability, on multigraphs with parallel edges and bridges
    assert spanning_tree_modulus(g) == peeled_modulus(g)


def three_k5s():
    # three K5s joined in a path by single edges: the first test cuts
    # those two edges and leaves the three K5s
    k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges = [(a + 5 * i, b + 5 * i) for i in range(3) for a, b in k5]
    return graph_from_pairs(15, edges + [(4, 5), (9, 10)])


FAULT_GRAPHS = [
    ("cycle5", cycle(5)),
    # two triangles joined by a parallel pair: the first test fails, and the
    # triangles and the quotient are swept next
    ("joined_triangles", graph_from_pairs(
        6, [(0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (3, 4), (4, 5), (5, 3)])),
    # the same with a pendant edge, whose bridge is settled before any test
    ("pendant", graph_from_pairs(
        7, [(0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)])),
]


@pytest.mark.parametrize("fault, g, message", [
    *(pytest.param(fault, g, "failed test at ", id=f"{fault}-{name}")
      for fault in ["empty", "no_rise"] for name, g in FAULT_GRAPHS),
    pytest.param("inside", three_k5s(), "cut edge 0 lies inside one piece", id="inside-three_k5s"),
])
def test_planted_faulty_sweep_raises(fault, g, message, monkeypatch, capsys, tmp_path):
    # a sweep that hands back an empty candidate, or a passing test one edge
    # short of every edge, whose quotient would not raise the rate: the
    # strict-rise check raises before any piece is pushed, so the split
    # neither loops nor sweeps a graph without edges.  A failing test whose
    # cut gains an edge inside a piece still raises the rate, and building
    # the quotient raises instead
    real = cunningham_basis
    sweeps = []

    def faulty(graph, p, q):
        sweeps.append(graph)
        assert len(sweeps) <= g.edge_count, "the split does not stop"
        cut = real(graph, p, q)
        every = frozenset(range(graph.edge_count))
        if fault == "empty":
            return frozenset()
        if fault == "no_rise" and cut == every:
            return cut - {min(cut)}
        if fault == "inside" and cut != every:
            return cut | {min(every - cut)}
        return cut

    monkeypatch.setattr(vuln_mod, "cunningham_basis", faulty)
    with pytest.raises(InvariantViolation, match=f"^{message}"):
        spanning_tree_modulus(g)
    path = tmp_path / "g.edges"
    path.write_text(g.to_edge_list_text())
    assert main(["modulus", str(path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def eta_digest(eta):
    text = ",".join(f"{x.numerator}/{x.denominator}" for x in eta)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("make, peels, digest", [
    # the C. elegans stand-in: 453 vertices, 2,708 edges, 5 levels
    (lambda: gnp_graph(453, 1), 5, "ffbb8087840a69a1"),
    # 200 vertices, 2,380 edges, 19 levels, each peel taking 2 to 6 probes
    (lambda: geometric_graph(200, 1), 19, "8f965290332f5d6a"),
], ids=["gnp453", "geo200"])
def test_large_graphs_keep_their_eta(make, peels, digest):
    # the exact usage probabilities of the two largest generated graphs
    # solved so far, pinned by a sha256 of "num/den,..." cut to 16 hex digits
    g = make()
    result = spanning_tree_modulus(g)
    assert verify_modulus(g, result).all_passed
    assert len(result.trace) == peels
    assert eta_digest(result.eta) == digest

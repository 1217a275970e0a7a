import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings

from treemodulus.errors import DisconnectedGraphError
from treemodulus.generators import geometric_graph, gnp_graph
from treemodulus.graph import MultiGraph
from treemodulus.modulus import eta_histogram, spanning_tree_modulus
from treemodulus.oracle import brute_modulus, verify_modulus

from conftest import connected_multigraphs, graph_from_pairs


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

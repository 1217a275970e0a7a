from fractions import Fraction

import pytest
from hypothesis import given, settings

from treemodulus.errors import SizeGuardExceeded
from treemodulus.graph import component_count, theta_of_set
from treemodulus.modulus import ModulusResult, spanning_tree_modulus
from treemodulus.oracle import (
    brute_modulus,
    brute_theta,
    count_spanning_trees,
    minimum_spanning_weight,
    verify_modulus,
)

from brute import (
    brute_basis,
    brute_min_increment,
    component_counts_by_mask,
    enumerate_spanning_trees,
    min_overlap,
    subset_sums_by_mask,
)
from conftest import connected_multigraphs, graph_from_pairs


def cycle(n):
    return graph_from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return graph_from_pairs(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


class TestCounting:
    def test_triangle(self, triangle):
        assert count_spanning_trees(triangle) == 3

    def test_k4(self, k4):
        assert count_spanning_trees(k4) == 16

    def test_cycle5(self):
        assert count_spanning_trees(cycle(5)) == 5

    def test_tree(self, path4):
        assert count_spanning_trees(path4) == 1

    def test_parallel_bundle(self):
        assert count_spanning_trees(graph_from_pairs(2, [(0, 1)] * 4)) == 4

    def test_petersen(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        petersen = graph_from_pairs(10, outer + inner + spokes)
        assert count_spanning_trees(petersen) == 2000

    def test_complete_matches_cayley(self):
        for n in range(2, 8):
            assert count_spanning_trees(complete(n)) == n ** (n - 2)

    def test_disconnected_is_zero(self):
        assert count_spanning_trees(graph_from_pairs(4, [(0, 1), (2, 3)])) == 0


class TestEnumeration:
    def test_triangle(self, triangle):
        trees = enumerate_spanning_trees(triangle)
        assert sorted(sorted(t) for t in trees) == [[0, 1], [0, 2], [1, 2]]

    def test_k4_count(self, k4):
        assert len(enumerate_spanning_trees(k4)) == 16

    def test_tree_single(self, path4):
        assert enumerate_spanning_trees(path4) == [frozenset({0, 1, 2})]

    def test_parallel_edges_distinct(self):
        g = graph_from_pairs(2, [(0, 1), (0, 1)])
        assert sorted(enumerate_spanning_trees(g)) in ([frozenset({0}), frozenset({1})],
                                                       [frozenset({1}), frozenset({0})])

    def test_trees_are_valid(self, k4):
        for tree in enumerate_spanning_trees(k4):
            assert len(tree) == 3
            assert component_count(k4, tree) == 1

    def test_guard_refusal_reports_count(self):
        big = complete(12)  # 12^10 trees, far beyond the guard
        with pytest.raises(SizeGuardExceeded) as err:
            enumerate_spanning_trees(big)
        assert str(12 ** 10) in str(err.value)


class TestBruteTheta:
    def test_triangle(self, triangle):
        value, family = brute_theta(triangle)
        assert value == Fraction(2, 3)
        assert family == [frozenset({0, 1, 2})]

    def test_bridge_triangles(self, bridge_triangles):
        value, family = brute_theta(bridge_triangles)
        assert value == 1
        assert family == [frozenset({3})]

    def test_k4(self, k4):
        value, family = brute_theta(k4)
        assert value == Fraction(1, 2)
        assert frozenset(range(6)) in family

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            brute_theta(complete(8))  # 28 edges


class TestBruteBasis:
    def test_examples(self, triangle, path4):
        g2 = graph_from_pairs(2, [(0, 1)])
        # 2|J| + 3 r(E - J) on the triangle: 6 at J = {} and at J = E
        assert brute_basis(triangle, 2, 3) == (6, frozenset({0, 1, 2}))
        assert brute_basis(triangle, 1, 1) == (2, frozenset())
        assert brute_basis(g2, 5, 1) == (1, frozenset())
        assert brute_basis(path4, 1, 2) == (3, frozenset({0, 1, 2}))

    def test_argmin_tie_break(self, bridge_triangles):
        # at rate 1 the bridge and the empty set both reach |V| - 1 = 5;
        # the union of the tied minimizers is returned
        assert brute_basis(bridge_triangles, 1, 1) == (5, frozenset({3}))


class TestBruteMinIncrement:
    def test_examples(self, triangle):
        g2 = graph_from_pairs(2, [(0, 1)])
        assert brute_min_increment(triangle, [0, 0, 0], 0, 3) == (3, frozenset({0}))
        assert brute_min_increment(g2, [0], 0, 5) == (5, frozenset({0}))
        assert brute_min_increment(triangle, [2, 2, 0], 2, 3) == (2, frozenset({0, 1, 2}))

    def test_argmin_tie_break(self, triangle):
        # with x'=(1,1,1) and q=2 both {0} and the full edge set attain the
        # minimum slack 1; the smaller set wins the tie
        assert brute_min_increment(triangle, [1, 1, 1], 0, 2) == (1, frozenset({0}))


class TestMaskTables:
    @given(connected_multigraphs(max_vertices=5, max_extra=4))
    @settings(max_examples=40, deadline=None)
    def test_component_counts_match_direct(self, g):
        table = component_counts_by_mask(g)
        m = g.edge_count
        for mask in range(1 << m):
            active = [e for e in range(m) if mask >> e & 1]
            assert table[mask] == component_count(g, active)

    def test_subset_sums(self):
        values = [3, 5, 7]
        sums = subset_sums_by_mask(values)
        assert sums[0b000] == 0
        assert sums[0b101] == 10
        assert sums[0b111] == 15


class TestVerifyModulus:
    def test_passes_on_real_result(self, bridge_triangles):
        result = spanning_tree_modulus(bridge_triangles)
        assert verify_modulus(bridge_triangles, result).all_passed

    def test_negative_control(self, bridge_triangles):
        result = spanning_tree_modulus(bridge_triangles)
        corrupted_eta = list(result.eta)
        corrupted_eta[0] += Fraction(1, 100)
        corrupted = ModulusResult(
            eta=tuple(corrupted_eta),
            rho=result.rho,
            modulus=result.modulus,
            trace=result.trace,
        )
        report = verify_modulus(bridge_triangles, corrupted)
        failed = {e.name for e in report.entries if not e.passed}
        assert "normalization" in failed
        assert "mst-energy" in failed
        assert not report.all_passed

    def test_mst_weight_exact(self, bridge_triangles):
        one_third = [Fraction(1, 3)]
        assert minimum_spanning_weight(bridge_triangles, one_third, [0] * 7) == Fraction(5, 3)
        # edges are taken by their value's rank, not by its first appearance:
        # both triangles' 1/4 edges and the bridge
        values, group_of = [Fraction(1, 2), Fraction(1, 4)], [0, 1, 1, 0, 0, 1, 1]
        assert minimum_spanning_weight(bridge_triangles, values, group_of) == Fraction(3, 2)


class TestBruteModulus:
    def test_cycle5(self):
        result = brute_modulus(cycle(5))
        assert set(result.eta) == {Fraction(4, 5)}

    def test_k4(self, k4):
        result = brute_modulus(k4)
        assert set(result.eta) == {Fraction(1, 2)}

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            brute_modulus(complete(7))  # 21 edges > 16


@given(connected_multigraphs(max_vertices=6, max_extra=4))
@settings(max_examples=30, deadline=None)
def test_enumeration_count_matches_kirchhoff(g):
    assert len(enumerate_spanning_trees(g)) == count_spanning_trees(g)


@given(connected_multigraphs(max_vertices=6, max_extra=3))
@settings(max_examples=30, deadline=None)
def test_min_overlap_both_directions(g):
    # the component-count formula agrees with direct minimisation over trees
    trees = enumerate_spanning_trees(g)
    m = g.edge_count
    for mask in range(1, 1 << m):
        subset = frozenset(e for e in range(m) if mask >> e & 1)
        by_trees = min(len(tree & subset) for tree in trees)
        assert min_overlap(g, subset) == by_trees
        assert theta_of_set(g, subset) * len(subset) == by_trees

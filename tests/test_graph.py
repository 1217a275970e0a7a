from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treemodulus.errors import DisconnectedGraphError, ParseError
from treemodulus.graph import (
    MultiGraph,
    bridges,
    component_count,
    decompose_after_removal,
    parse_edge_list,
    theta_of_set,
)

from brute import component_counts_by_mask, enumerate_spanning_trees, graphic_rank, min_overlap
from conftest import connected_multigraphs, graph_from_pairs


class TestParse:
    def test_triangle(self):
        g, warnings = parse_edge_list("0 1\n1 2\n2 0")
        assert g.vertex_count == 3
        assert g.edge_count == 3
        assert warnings == []

    def test_self_loop_dropped_with_warning(self):
        g, warnings = parse_edge_list("0 0\n0 1")
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert len(warnings) == 1
        assert "self-loop" in warnings[0]

    def test_duplicates_kept_as_parallel(self):
        g, _ = parse_edge_list("a b\na b\nb a")
        assert g.vertex_count == 2
        assert g.edge_count == 3

    def test_comments_and_blank_lines(self):
        g, _ = parse_edge_list("# header\n\n0 1  # inline\n1 2\n")
        assert g.edge_count == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("0 1\n0 1 2\n")
        assert err.value.line_number == 2

    def test_first_appearance_numbering(self):
        g, _ = parse_edge_list("x y\ny z\nz x")
        assert g.labels == ("x", "y", "z")
        assert g.edges == ((0, 1), (1, 2), (2, 0))

    def test_bytes_accepted(self):
        g, _ = parse_edge_list(b"0 1\n")
        assert g.edge_count == 1

    def test_karate_fixture(self, karate):
        assert karate.vertex_count == 34
        assert karate.edge_count == 78

    def test_roundtrip_identity(self, karate):
        text = karate.to_edge_list_text()
        again, _ = parse_edge_list(text)
        assert again.vertex_count == karate.vertex_count
        assert again.edges == karate.edges

    def test_non_utf8_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list(b"0 1\n1 2\n2 \xff\n")
        assert err.value.line_number == 3


class TestValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            MultiGraph(2, ((0, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MultiGraph(2, ((0, 2),))


class TestComponentCount:
    def test_triangle_full(self, triangle):
        assert component_count(triangle, range(3)) == 1

    def test_triangle_empty(self, triangle):
        assert component_count(triangle, ()) == 3

    def test_triangle_one_edge(self, triangle):
        assert component_count(triangle, (0,)) == 2


class TestGraphicRank:
    def test_triangle_full(self, triangle):
        assert graphic_rank(triangle, range(3)) == 2

    def test_triangle_empty(self, triangle):
        assert graphic_rank(triangle, ()) == 0

    def test_k4_sub_triangle(self, k4):
        # edges 0=(0,1), 1=(0,2), 3=(1,2) form a triangle
        assert graphic_rank(k4, (0, 1, 3)) == 2


class TestMinOverlap:
    def test_bridge(self, bridge_triangles):
        assert min_overlap(bridge_triangles, (3,)) == 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycle_all_edges(self, n):
        cycle = graph_from_pairs(n, [(i, (i + 1) % n) for i in range(n)])
        assert min_overlap(cycle, range(n)) == n - 1

    def test_triangle_one_edge(self, triangle):
        assert min_overlap(triangle, (0,)) == 0

    def test_disconnected_raises(self):
        g = graph_from_pairs(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            min_overlap(g, (0,))


class TestThetaOfSet:
    def test_triangle_all(self, triangle):
        assert theta_of_set(triangle, range(3)) == Fraction(2, 3)

    def test_empty_is_zero(self, triangle):
        assert theta_of_set(triangle, ()) == 0

    def test_k4_all(self, k4):
        assert theta_of_set(k4, range(6)) == Fraction(1, 2)


class TestDecompose:
    def test_bridge_split(self, bridge_triangles):
        comps = decompose_after_removal(bridge_triangles, (3,))
        assert len(comps) == 2
        for comp in comps:
            assert comp.parent_edge_ids
            assert comp.graph.vertex_count == 3
            assert comp.graph.edge_count == 3

    def test_remove_all_gives_trivial(self, triangle):
        comps = decompose_after_removal(triangle, range(3))
        assert len(comps) == 3
        assert all(not comp.parent_edge_ids for comp in comps)
        assert all(comp.graph.edge_count == 0 for comp in comps)

    def test_karate_critical_edge(self, karate):
        # removing the pendant edge leaves one nontrivial piece plus the
        # degree-one member (label "11")
        pendant_vertex = karate.labels.index("11")
        pendant = next(e for e, (a, b) in enumerate(karate.edges) if pendant_vertex in (a, b))
        comps = decompose_after_removal(karate, (pendant,))
        trivial = [c for c in comps if not c.parent_edge_ids]
        nontrivial = [c for c in comps if c.parent_edge_ids]
        assert len(trivial) == 1 and len(nontrivial) == 1
        assert trivial[0].vertices == (pendant_vertex,)

    def test_vertex_partition(self, bridge_triangles):
        comps = decompose_after_removal(bridge_triangles, (0, 3))
        seen = [v for comp in comps for v in comp.vertices]
        assert sorted(seen) == list(range(6))

    def test_induced_superset_of_component_edges(self, triangle):
        # removing one triangle edge keeps all three vertices connected,
        # and the vertex-induced set recovers the removed edge
        comps = decompose_after_removal(triangle, (0,))
        assert len(comps) == 1
        assert comps[0].parent_edge_ids == (0, 1, 2)
        assert comps[0].graph.edge_count == 3

    def test_parent_edge_map(self, bridge_triangles):
        comp = decompose_after_removal(bridge_triangles, (3,))[1]
        for local, parent in enumerate(comp.parent_edge_ids):
            la, lb = comp.graph.edges[local]
            pa, pb = bridge_triangles.edges[parent]
            assert {comp.vertices[la], comp.vertices[lb]} == {pa, pb}


def least_vertex_labels(g, removed):
    """Each vertex labelled by the least vertex of its component after
    deleting ``removed``, by relaxing every surviving edge until stable."""
    label = list(range(g.vertex_count))
    changed = True
    while changed:
        changed = False
        for e, (a, b) in enumerate(g.edges):
            if e not in removed and label[a] != label[b]:
                label[a] = label[b] = min(label[a], label[b])
                changed = True
    return label


@given(connected_multigraphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_decompose_matches_brute_force(g, data):
    removed = data.draw(st.sets(st.integers(min_value=0, max_value=g.edge_count - 1)))
    comps = decompose_after_removal(g, removed)
    label = least_vertex_labels(g, removed)
    # the parts cover V, ordered by least vertex, each listed in ascending order
    assert [c.vertices for c in comps] == [
        tuple(v for v in range(g.vertex_count) if label[v] == least)
        for least in sorted(set(label))
    ]
    for comp in comps:
        inside = set(comp.vertices)
        assert comp.parent_edge_ids == tuple(
            e for e, (a, b) in enumerate(g.edges) if a in inside and b in inside
        )
        assert comp.graph.vertex_count == len(comp.vertices)
        assert comp.graph.edge_count == len(comp.parent_edge_ids)
        for (la, lb), parent in zip(comp.graph.edges, comp.parent_edge_ids):
            assert (comp.vertices[la], comp.vertices[lb]) == g.edges[parent]
        assert comp.graph.is_connected()


class TestBridges:
    def test_path_all_bridges(self, path4):
        assert bridges(path4) == frozenset({0, 1, 2})

    def test_cycle_none(self, triangle):
        assert bridges(triangle) == frozenset()

    def test_bridge_triangles(self, bridge_triangles):
        assert bridges(bridge_triangles) == frozenset({3})

    def test_parallel_pair_not_bridge(self):
        g = graph_from_pairs(3, [(0, 1), (0, 1), (1, 2)])
        assert bridges(g) == frozenset({2})

    def test_karate_single_bridge(self, karate):
        found = bridges(karate)
        assert len(found) == 1
        (eid,) = found
        a, b = karate.edges[eid]
        assert {karate.label_of(a), karate.label_of(b)} == {"0", "11"}


def brute_force_bridges(g):
    full = range(g.edge_count)
    base = component_count(g, full)
    return frozenset(
        e for e in full if component_count(g, [x for x in full if x != e]) > base
    )


@given(connected_multigraphs())
@settings(max_examples=60, deadline=None)
def test_bridges_match_brute_force(g):
    assert bridges(g) == brute_force_bridges(g)


@given(connected_multigraphs(max_vertices=5, max_extra=4))
@settings(max_examples=40, deadline=None)
def test_polymatroid_axioms_exhaustive(g):
    m = g.edge_count
    qs = component_counts_by_mask(g)
    n = g.vertex_count
    rank = [n - q for q in qs]
    for mask in range(1 << m):
        assert rank[mask] <= mask.bit_count()
    for mask in range(1 << m):
        low = mask & -mask
        if mask:
            assert rank[mask ^ low] <= rank[mask]  # monotone under removal
    for a in range(1 << m):
        for b in range(1 << m):
            assert rank[a | b] + rank[a & b] <= rank[a] + rank[b]


def test_polymatroid_axioms_ten_edges():
    # fixed 10-edge instance, full pairwise submodularity sweep
    g = graph_from_pairs(
        6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (0, 4), (1, 5), (2, 4)]
    )
    qs = component_counts_by_mask(g)
    rank = [g.vertex_count - q for q in qs]
    m = g.edge_count
    for a in range(1 << m):
        rank_a = rank[a]
        for b in range(a, 1 << m):
            assert rank[a | b] + rank[a & b] <= rank_a + rank[b]


@given(connected_multigraphs(max_vertices=6, max_extra=4))
@settings(max_examples=30, deadline=None)
def test_min_overlap_matches_tree_enumeration(g):
    trees = enumerate_spanning_trees(g)
    m = g.edge_count
    for mask in range(1, 1 << m):
        subset = frozenset(i for i in range(m) if mask >> i & 1)
        expected = min(len(tree & subset) for tree in trees)
        assert min_overlap(g, subset) == expected
        assert theta_of_set(g, subset) * len(subset) == expected

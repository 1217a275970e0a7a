from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from treemodulus import polymatroid
from treemodulus.flow import dinic
from treemodulus.graph import (
    MultiGraph,
    _DisjointSet,
    decompose_after_removal,
    quotient,
    theta_of_set,
)
from treemodulus.polymatroid import _merge_set, cunningham_basis

from brute import brute_basis, brute_greedy_pass, graphic_rank, polymatroid_violation
from conftest import basis_total, connected_multigraphs, graph_from_pairs


def spy_dinic(monkeypatch):
    """Record every network the sweep hands to dinic, as the tuple
    (node count, source, sink, {node: signed terminal capacity}, sorted
    capacities between parts, source-side node count).

    A source arc s -> A of capacity c is read as terminal -c and a sink arc
    A -> t as terminal c, which is c_A in either case; every node has at
    most one of them.  An arc pair between two parts carries the same
    capacity both ways, and no such pair touches k or the sink.
    """
    calls = []

    def spy(node_count, source, sink, to, adj, cap):
        terminal, pairs = {}, []
        for a in range(0, len(to), 2):
            u, v = to[a + 1], to[a]
            assert source != v and sink != u
            if cap[a] == cap[a + 1]:
                assert source != u and sink != v
                pairs.append(cap[a])
            else:
                assert cap[a + 1] == 0 and (u == source) != (v == sink)
                node = v if u == source else u
                assert node not in terminal
                terminal[node] = -cap[a] if u == source else cap[a]
        value, level = dinic(node_count, source, sink, to, adj, cap)
        side = sum(level[v] != -1 for v in range(node_count) if v != source)
        calls.append((node_count, source, sink, terminal, sorted(pairs), side))
        return value, level

    monkeypatch.setattr(polymatroid, "dinic", spy)
    return calls


def finest_partition(g, p, q):
    """Part label of every vertex in the finest partition minimizing
    q(n - |P|) + p|δ(P)|: the components left by the largest minimizing J."""
    _total, largest = brute_basis(g, p, q)
    parts = _DisjointSet(g.vertex_count)
    for e, (a, b) in enumerate(g.edges):
        if e not in largest:
            parts.union(a, b)
    return [parts.find(v) for v in range(g.vertex_count)]


def merge_state(g, before, k):
    """What the sweep holds at vertex k when ``before`` labels the parts of
    vertices 0..k-1: k's edge count to each part, and every part's edge
    count to each other part."""
    to_k = {}
    links = {before[v]: {} for v in range(k)}
    for a, b in g.edges:
        if max(a, b) > k:
            continue
        if k in (a, b):
            if a != b:
                part = before[a + b - k]
                to_k[part] = to_k.get(part, 0) + 1
        elif before[a] != before[b]:
            for x, y in ((before[a], before[b]), (before[b], before[a])):
                links[x][y] = links[x].get(y, 0) + 1
    return to_k, links


def smallest_merge(to_k, links, p, q):
    """The smallest set S of parts minimizing 2q|S| - 2p(e(S, S) + e(S, k)),
    by enumeration: the meet of every minimizer."""
    best = meet = None
    for size in range(len(links) + 1):
        for subset in combinations(sorted(links), size):
            inner = sum(links[a].get(b, 0) for a, b in combinations(subset, 2))
            value = 2 * q * size - 2 * p * (inner + sum(to_k.get(a, 0) for a in subset))
            if best is None or value < best:
                best, meet = value, set(subset)
            elif value == best:
                meet &= set(subset)
    return sorted(meet)


def expected_calls(g, p, q):
    """The dinic calls of the sweep as ``spy_dinic`` records them, derived
    from brute force: before vertex k the parts are the finest optimum of
    the graph induced by 0..k-1, and k merges with exactly the parts that
    share its part in the finest optimum of the graph induced by 0..k."""
    calls = []
    before = []
    for k in range(g.vertex_count):
        induced = MultiGraph(k + 1, tuple((a, b) for a, b in g.edges if a <= k and b <= k))
        after = finest_partition(induced, p, q)
        to_k, links = merge_state(g, before, k)
        # a part joins k only if p(e(A, other parts) + e(A, k)) > q; the
        # network holds the parts of that kind that reach from k through
        # each other, and the edges to the others leave the terminals
        def kept(part):
            return p * (sum(links.get(part, {}).values()) + to_k.get(part, 0)) > q

        component = {part for part in to_k if kept(part)}
        frontier = list(component)
        while frontier:
            for other in links.get(frontier.pop(), {}):
                if kept(other) and other not in component:
                    component.add(other)
                    frontier.append(other)
        terminal = [
            2 * q - p * (
                sum(count for other, count in links.get(part, {}).items() if other in component)
                + 2 * to_k.get(part, 0)
            )
            for part in component
        ]
        joined = {before[v] for v in range(k) if after[v] == after[k]}
        if p * sum(to_k.values()) > q and min(terminal, default=0) < 0:
            c = len(component)
            order = sorted(component)
            pairs = sorted(
                p * links[x][y] for x, y in combinations(order, 2) if y in links.get(x, {})
            )
            calls.append((c + 2, 0, 1, sorted(t for t in terminal if t), pairs, len(joined)))
        else:
            assert not joined  # no cut runs, and k starts a part of its own
        before = after
    return calls


class TestMergeNetwork:
    def test_single_edge_unit(self, monkeypatch):
        g = graph_from_pairs(2, [(0, 1)])
        calls = spy_dinic(monkeypatch)
        # at p = q = 1 vertex 1's one edge cannot pay for a merge: no cut
        assert cunningham_basis(g, 1, 1) == frozenset({0})
        assert calls == []
        # at 2/1 the part {0} gets c = 2q - 2p = -2: an arc from vertex 1
        # and no sink arc, so the part joins vertex 1
        assert cunningham_basis(g, 2, 1) == frozenset()
        assert calls == [(3, 0, 1, {2: -2}, [], 1)]

    def test_incident_sums_on_source_arcs(self, monkeypatch):
        # a path 0-1-2-3 with a doubled middle edge, then vertex 4 joined
        # to 0 and 3; each part A in the network gets c_A = 2q - p(e(A,
        # parts in the network) + 2e(A, k)), an arc from k when negative
        # and to the sink when positive
        g = graph_from_pairs(5, [(0, 1), (1, 2), (1, 2), (2, 3), (4, 0), (4, 3)])
        calls = spy_dinic(monkeypatch)
        cut = cunningham_basis(g, 2, 3)
        # vertex 1 and vertex 3 have one edge back, 2 <= q: no cut.  Vertex
        # 2 sees part {1} twice and through it part {0}, whose one edge
        # cannot pay for a merge (2 * 1 <= q), so it stays out of the
        # network: node 2 gets 6 - 2(0 + 2*2) = -2, and {1} is the source
        # side.  Vertex 4 sees {0} and {3} once each and {1, 2} through
        # them: 6 - 2(1 + 2) = 0 twice and 6 - 2*2 = 2, no arc from vertex 4
        assert calls == [(3, 0, 1, {2: -2}, [], 1)]
        assert cut == frozenset({0, 3, 4, 5})
        assert basis_total(g, cut, 2, 3) == 3 * 1 + 2 * 4
        # at 3/2 every vertex merges with the one part before it
        calls.clear()
        assert cunningham_basis(g, 3, 2) == frozenset()
        assert [call[3] for call in calls] == [{2: -2}, {2: -8}, {2: -2}, {2: -8}]


def merge_set(to_k, links, p, q):
    """``_merge_set`` with each part's degree summed from ``links``, as the
    sweep keeps it."""
    degree = [0] * (max(links, default=-1) + 1)
    for label, side in links.items():
        degree[label] = sum(side.values())
    return _merge_set(to_k, links, degree, p, q)


class TestMergeSet:
    """The sweep's step at vertex k: the parts k joins are the smallest set
    S of earlier parts minimizing 2q|S| - 2p(e(S, S) + e(S, k)), and the
    total rises by p times k's edges back plus half that minimum.  Parts
    are given by label, with k's edge count to each (``to_k``) and their
    edge counts to each other (``links``)."""

    def test_triangle_zero(self):
        # vertex 2 of the triangle against {0} and {1}, nothing merged
        # before it: S = {0} scores 2q - 2p and S = {0, 1} scores 4q - 6p
        to_k, links = {0: 1, 1: 1}, {0: {1: 1}, 1: {0: 1}}
        assert sorted(merge_set(to_k, links, 1, 1)) == [0, 1]
        assert merge_set(to_k, links, 2, 3) == []  # tied with S empty
        assert merge_set(to_k, links, 1, 2) == []

    def test_single_edge(self):
        # vertex 1 of one edge: S = {0} scores 2q - 2p
        to_k, links = {0: 1}, {0: {}}
        assert merge_set(to_k, links, 2, 1) == [0]
        assert merge_set(to_k, links, 1, 1) == []  # tied with S empty
        assert merge_set(to_k, links, 1, 5) == []

    def test_triangle_partial(self):
        # vertex 2 of the triangle once {0, 1} is one part, which the
        # finest optimum holds when p > q: S = {0} scores 2q - 4p < 0
        to_k, links = {0: 2}, {0: {}}
        for p, q in [(2, 1), (3, 2), (5, 4)]:
            assert merge_set(to_k, links, p, q) == [0]

    def test_agrees_with_brute_force_examples(self, triangle, k4, bridge_triangles, path4):
        # every step of the sweep, from the finest optimum of the vertices
        # before k: the smallest minimizing S, and the parts that share k's
        # part in the finest optimum of the vertices up to k
        doubled = graph_from_pairs(5, [(0, 1), (1, 2), (1, 2), (2, 3), (4, 0), (4, 3)])
        for g in [triangle, k4, bridge_triangles, path4, doubled]:
            for p, q in [(1, 1), (2, 3), (1, 2), (3, 2), (5, 7)]:
                before = []
                for k in range(g.vertex_count):
                    to_k, links = merge_state(g, before, k)
                    got = sorted(merge_set(to_k, links, p, q))
                    assert got == smallest_merge(to_k, links, p, q)
                    induced = MultiGraph(
                        k + 1, tuple((a, b) for a, b in g.edges if a <= k and b <= k)
                    )
                    after = finest_partition(induced, p, q)
                    assert set(got) == {before[v] for v in range(k) if after[v] == after[k]}
                    before = after


class TestCunninghamBasis:
    def test_triangle_2_3(self, triangle):
        cut = cunningham_basis(triangle, 2, 3)
        assert basis_total(triangle, cut, 2, 3) == 6 == 3 * (3 - 1)
        # J = E and J = {} both reach 6: the largest minimizer is E
        assert cut == frozenset({0, 1, 2})

    def test_triangle_5_9(self, triangle):
        cut = cunningham_basis(triangle, 5, 9)
        assert basis_total(triangle, cut, 5, 9) == 15 < 18
        assert cut == frozenset({0, 1, 2})

    def test_single_edge(self):
        g = graph_from_pairs(2, [(0, 1)])
        cut = cunningham_basis(g, 1, 1)
        assert basis_total(g, cut, 1, 1) == 1
        assert cut == frozenset({0})

    def test_candidate_entries_hit_the_cap(self, bridge_triangles):
        # a greedy pass raises every edge of a minimizing J to its cap p,
        # so the candidate must minimize, and every edge outside it must
        # lie in no minimizer
        for p, q in [(1, 2), (2, 3), (1, 1), (3, 4), (3, 2)]:
            cut = cunningham_basis(bridge_triangles, p, q)
            assert (basis_total(bridge_triangles, cut, p, q), cut) == brute_basis(
                bridge_triangles, p, q
            )

    def test_tightness_at_exit(self, bridge_triangles):
        for p, q in [(1, 2), (2, 3), (5, 7)]:
            cut = cunningham_basis(bridge_triangles, p, q)
            tight_set = frozenset(range(bridge_triangles.edge_count)) - cut
            got = basis_total(bridge_triangles, cut, p, q) - p * len(cut)
            assert got == q * graphic_rank(bridge_triangles, tight_set)


@given(connected_multigraphs(max_vertices=6, max_extra=4),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_feasible_throughout_and_monotone(g, p, q):
    # Cunningham's greedy pass, by brute force: every vector lies in the
    # polymatroid of q times the rank and none falls; it ends at the
    # sweep's total, with every edge of the candidate raised to the cap p
    cut = cunningham_basis(g, p, q)
    before = [0] * g.edge_count
    for after in brute_greedy_pass(g, p, q):
        assert all(x2 >= x1 for x1, x2 in zip(before, after))
        assert polymatroid_violation(g, after, q) is None
        before = after
    assert sum(before) == basis_total(g, cut, p, q)
    assert all(before[e] == p for e in cut)


@given(connected_multigraphs(max_vertices=6, max_extra=4),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_merge_cut_gains_are_even_and_sum_to_the_total(g, p, q):
    # the cut around {k} + S exceeds the cut around k alone by
    # 2q|S| - 2p(e(S, S) + e(S, k)), twice what the total gains over
    # p times k's edges back when k joins S: so each minimum cut differs
    # from the cut around k by an even amount, never a positive one, and
    # the halves add up to the total less p|E|
    gains = []

    def spy(node_count, source, sink, to, adj, cap):
        around_k = sum(cap[a] for a in adj[source])
        value, level = dinic(node_count, source, sink, to, adj, cap)
        gains.append(value - around_k)
        return value, level

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(polymatroid, "dinic", spy)
        total = basis_total(g, cunningham_basis(g, p, q), p, q)
    assert all(gain % 2 == 0 and gain <= 0 for gain in gains)
    assert total == p * g.edge_count + sum(gain // 2 for gain in gains)


def relabelled(g, rnd):
    """g with its vertices renamed and its edges reordered at random, and
    the new id of every old edge."""
    names = list(range(g.vertex_count))
    rnd.shuffle(names)
    order = list(range(g.edge_count))
    rnd.shuffle(order)
    edges = tuple((names[g.edges[e][0]], names[g.edges[e][1]]) for e in order)
    new_id = {old: new for new, old in enumerate(order)}
    return MultiGraph(g.vertex_count, edges), new_id


@given(connected_multigraphs(max_vertices=6, max_extra=6),
       st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_basis_total_law_and_order_invariance(g, p, q, rnd):
    cut = cunningham_basis(g, p, q)
    assert (basis_total(g, cut, p, q), cut) == brute_basis(g, p, q)
    # the sweep visits vertices in id order; the largest minimizer does not
    # depend on it
    other, new_id = relabelled(g, rnd)
    cut2 = cunningham_basis(other, p, q)
    assert basis_total(other, cut2, p, q) == basis_total(g, cut, p, q)
    assert cut2 == frozenset(new_id[e] for e in cut)


@st.composite
def disconnected_multigraphs(draw):
    """Two or three connected multigraphs or lone vertices side by side,
    with their vertices interleaved at random."""
    pieces = draw(st.lists(
        st.one_of(st.just(MultiGraph(1, ())), connected_multigraphs(max_vertices=4, max_extra=2)),
        min_size=2,
        max_size=3,
    ))
    n = sum(piece.vertex_count for piece in pieces)
    names = draw(st.permutations(range(n)))
    edges, offset = [], 0
    for piece in pieces:
        edges += [(names[a + offset], names[b + offset]) for a, b in piece.edges]
        offset += piece.vertex_count
    return MultiGraph(n, tuple(edges))


@given(disconnected_multigraphs(),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@example(MultiGraph(1, ()), 1, 1)
@example(graph_from_pairs(4, [(0, 1), (2, 3)]), 1, 2)
@settings(max_examples=60, deadline=None)
def test_sweep_needs_no_connectivity(g, p, q):
    # the sweep is defined on any multigraph: on a disconnected one, or a
    # lone vertex, it still gives the brute-force total and largest minimizer
    cut = cunningham_basis(g, p, q)
    assert (basis_total(g, cut, p, q), cut) == brute_basis(g, p, q)


@given(connected_multigraphs(max_vertices=6, max_extra=6),
       st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_candidate_splits_into_connected_parts(g, p, q):
    # the candidate is exactly the cut of the parts it leaves, so removing
    # it keeps every other edge inside a connected part
    candidate = cunningham_basis(g, p, q)
    inside = set()
    for comp in decompose_after_removal(g, candidate):
        assert comp.graph.is_connected()
        assert candidate.isdisjoint(comp.parent_edge_ids)
        inside.update(comp.parent_edge_ids)
    assert inside == set(range(g.edge_count)) - candidate


rates = st.builds(
    Fraction, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)
)


@given(connected_multigraphs(max_vertices=10, max_extra=6), rates, rates)
@example(graph_from_pairs(7, [
    (0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (2, 6), (4, 6), (5, 0), (1, 0), (4, 1), (1, 0),
]), Fraction(6, 11), Fraction(5, 8))
@settings(max_examples=100, deadline=None)
def test_finest_partition_coarsens_and_the_quotient_sweep_agrees(g, r1, r2):
    # the finest minimizing partition at a higher rate is coarser, so the
    # sweep on the quotient by the lower rate's partition, whose edges are
    # its candidate, finds the same largest minimizer, with q per vertex
    # contracted away added to its total
    assume(r1 != r2)
    r1, r2 = sorted((r1, r2))
    p, q = r2.numerator, r2.denominator
    low = cunningham_basis(g, r1.numerator, r1.denominator)
    high = cunningham_basis(g, p, q)
    # every piece at r1 lies inside one piece at r2
    low_pieces = decompose_after_removal(g, low)
    high_pieces = decompose_after_removal(g, high)
    piece_at_r2 = {v: i for i, piece in enumerate(high_pieces) for v in piece.vertices}
    for piece in low_pieces:
        assert len({piece_at_r2[v] for v in piece.vertices}) == 1
    sub, ids = quotient(g, low_pieces, low)
    assert sub.vertex_count == len(low_pieces)
    run = cunningham_basis(sub, p, q)
    assert frozenset(ids[e] for e in run) == high
    contracted = g.vertex_count - sub.vertex_count
    assert q * contracted + basis_total(sub, run, p, q) == basis_total(g, high, p, q)
    assert (basis_total(g, high, p, q), high) == brute_basis(g, p, q)


@given(connected_multigraphs(max_vertices=7, max_extra=6))
@example(graph_from_pairs(6, [(0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (3, 4), (4, 5), (5, 3)]))
@settings(max_examples=80, deadline=None)
def test_mean_rate_test_passes_or_hands_its_quotient_a_higher_mean_rate(g):
    # the step ``vulnerability.rise`` takes: at a graph's own mean
    # rate (n - 1)/m the test passes, totalling q(n - 1), exactly when its
    # candidate is every edge; otherwise the quotient by its finest
    # partition has the candidate's ratio as its mean rate, above (n - 1)/m
    n, m = g.vertex_count, g.edge_count
    rate = Fraction(n - 1, m)
    p, q = rate.numerator, rate.denominator
    cut = cunningham_basis(g, p, q)
    passes = brute_basis(g, p, q)[0] == q * (n - 1)
    assert (cut == frozenset(range(m))) == passes
    if not passes:
        sub, _ids = quotient(g, decompose_after_removal(g, cut), cut)
        assert Fraction(sub.vertex_count - 1, sub.edge_count) == theta_of_set(g, cut)
        assert theta_of_set(g, cut) > rate


@given(connected_multigraphs(max_vertices=7, max_extra=8),
       st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_networks_have_at_most_n_plus_one_nodes(g, p, q):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = spy_dinic(monkeypatch)
        cunningham_basis(g, p, q)
    # one cut per vertex but the first, on at most the parts before it, the
    # vertex itself and the sink
    assert len(calls) <= g.vertex_count - 1
    assert all(call[0] <= g.vertex_count + 1 for call in calls)


@given(connected_multigraphs(max_vertices=6, max_extra=5),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@example(graph_from_pairs(5, [(0, 1), (1, 2), (1, 2), (2, 3), (4, 0), (4, 3)]), 1, 3)
@settings(max_examples=60, deadline=None)
def test_merge_networks_match_brute_force(g, p, q):
    # each vertex's cut: the network built from the finest optimum of the
    # vertices before it, and the parts it merges with
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = spy_dinic(monkeypatch)
        cunningham_basis(g, p, q)
    got = [(n, s, t, sorted(terminal.values()), pairs, side)
           for n, s, t, terminal, pairs, side in calls]
    assert got == expected_calls(g, p, q)


@given(connected_multigraphs(max_vertices=6, max_extra=5),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
# only {1, 2} is too dense
@example(graph_from_pairs(3, [(0, 1), (1, 2), (1, 2)]), 3, 5)
@settings(max_examples=80, deadline=None)
def test_total_is_p_m_exactly_when_no_set_is_too_dense(g, p, q):
    # p on every edge lies in the polymatroid of q times the rank exactly
    # when the test at p/q totals p|E|, which the first probe of an ascent
    # reads at theta(E)
    n, m = g.vertex_count, g.edge_count
    whole = Fraction(n - 1, m)
    for p, q in [(p, q), (whole.numerator, whole.denominator)]:
        dense = any(
            p * sum(a in part and b in part for a, b in g.edges) > q * (len(part) - 1)
            for size in range(2, n + 1)
            for part in map(set, combinations(range(n), size))
        )
        total = basis_total(g, cunningham_basis(g, p, q), p, q)
        assert total == brute_basis(g, p, q)[0]
        assert (total == p * m) == (not dense)

from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from treemodulus import polymatroid
from treemodulus.errors import DisconnectedGraphError, InvariantViolation
from treemodulus.flow import dinic
from treemodulus.graph import MultiGraph, graphic_rank
from treemodulus.polymatroid import _SubproblemSolver, cunningham_basis, density_violation

from brute import brute_basis_total, brute_min_increment, polymatroid_violation
from conftest import connected_multigraphs, graph_from_pairs, handed_flow, record_greedy_pass


def solver_at(g, values, q):
    """Subproblem workspace tracking the increment vector ``values``."""
    solver = _SubproblemSolver(g, q)
    for e, value in enumerate(values):
        solver.raise_edge(e, value)
    return solver


class DinicCall(NamedTuple):
    """One dinic call: the network as handed in, the cut value (the flow
    carried into the sink plus what dinic augments) and whether it stopped
    before a full cut."""

    node_count: int
    source: int
    sink: int
    to: list[int]
    cap: list[int]
    value: int
    stopped: bool


def spy_dinic(monkeypatch):
    """Record a DinicCall for every dinic call the solver makes."""
    calls = []

    def spy(node_count, source, sink, to, adj, cap, enough=None):
        network = (node_count, source, sink, list(to), cap.copy())
        carried = handed_flow(*network)
        value, level = dinic(node_count, source, sink, to, adj, cap, enough=enough)
        calls.append(DinicCall(*network, carried + value, level is None))
        return value, level

    monkeypatch.setattr(polymatroid, "dinic", spy)
    return calls


def exact_solve(solver, j):
    """(increment, constraint set) at edge j: the cap q + 1 is above every
    increment, since the set {j} alone leaves q - x'(j)."""
    epsilon = solver.solve(j, solver.q + 1)
    return epsilon, solver.tight_set()


def aux_network(g, values, j, q, monkeypatch):
    """The network solve(j) hands to dinic, as {tag: (capacity, is_infinite)}.

    Tags are ("edge", e), ("source", v) and ("sink", v); the arc endpoints
    are checked against the tag on the way, and each capacity is read as
    half its arc pair's residual sum.  A capacity counts as infinite when it
    exceeds the sum of every capacity other than the two source arcs to the
    endpoints of j.
    """
    calls = spy_dinic(monkeypatch)
    try:
        exact_solve(solver_at(g, values, q), j)
    except InvariantViolation:
        pass  # an infeasible vector still builds the network
    (node_count, source, sink, to, cap, *_rest), = calls
    n, m = g.vertex_count, g.edge_count
    assert (node_count, source, sink) == (n + 2, n, n + 1)
    tags = [("edge", e) for e in range(m)]
    tags += [("source", v) for v in range(n)] + [("sink", v) for v in range(n)]
    assert len(to) == 2 * len(tags)
    capacity = [(cap[2 * i] + cap[2 * i + 1]) // 2 for i in range(len(tags))]
    finite = sum(
        capacity[i] for i, (kind, x) in enumerate(tags)
        if not (kind == "source" and x in g.edges[j])
    )
    net = {}
    for i, (kind, x) in enumerate(tags):
        ends = g.edges[x] if kind == "edge" else (source if kind == "source" else sink, x)
        assert (to[2 * i + 1], to[2 * i]) == ends
        net[(kind, x)] = (capacity[i], capacity[i] > finite)
    return net


class TestBuildAuxNetwork:
    def test_triangle_zero_vector(self, triangle, monkeypatch):
        caps = aux_network(triangle, [0, 0, 0], 0, 3, monkeypatch)
        for v in range(3):
            assert caps[("sink", v)] == (6, False)
        # j = edge 0 joins vertices 0 and 1
        assert caps[("source", 0)][1] is True
        assert caps[("source", 1)][1] is True
        assert caps[("source", 2)] == (0, False)
        for e in range(3):
            assert caps[("edge", e)] == (0, False)

    def test_single_edge_unit(self, monkeypatch):
        g = graph_from_pairs(2, [(0, 1)])
        caps = aux_network(g, [1], 0, 1, monkeypatch)
        assert caps[("sink", 0)][0] == 2 and caps[("sink", 1)][0] == 2
        assert caps[("source", 0)][1] and caps[("source", 1)][1]
        assert caps[("edge", 0)] == (1, False)

    def test_k4_zero_vector(self, k4, monkeypatch):
        caps = aux_network(k4, [0] * 6, 0, 2, monkeypatch)
        assert sum(1 for e in range(6) if caps[("edge", e)] == (0, False)) == 6
        assert sum(1 for v in range(4) if caps[("sink", v)] == (4, False)) == 4
        infinite = [v for v in range(4) if caps[("source", v)][1]]
        zero = [v for v in range(4) if caps[("source", v)] == (0, False)]
        assert infinite == [0, 1] and zero == [2, 3]

    def test_incident_sums_on_source_arcs(self, triangle, monkeypatch):
        # r joins each vertex off j with x' summed over the edges meeting it
        caps = aux_network(triangle, [2, 1, 0], 1, 3, monkeypatch)
        assert caps[("source", 0)] == (2, False)
        assert [caps[("edge", e)][0] for e in range(3)] == [2, 1, 0]


class TestMinTightIncrement:
    def test_triangle_zero(self, triangle):
        assert exact_solve(solver_at(triangle, [0, 0, 0], 3), 0) == (3, frozenset({0}))

    def test_single_edge(self):
        g = graph_from_pairs(2, [(0, 1)])
        assert exact_solve(solver_at(g, [0], 5), 0) == (5, frozenset({0}))

    def test_triangle_partial(self, triangle):
        assert exact_solve(solver_at(triangle, [2, 2, 0], 3), 2) == (2, frozenset({0, 1, 2}))

    def test_agrees_with_brute_force_examples(self, triangle):
        for values, j, q in [([0, 0, 0], 0, 3), ([2, 2, 0], 2, 3), ([1, 0, 1], 1, 2)]:
            eps, tight = exact_solve(solver_at(triangle, values, q), j)
            want_eps, _ = brute_min_increment(triangle, values, j, q)
            assert eps == want_eps
            # the returned set need not equal the brute argmin, but must be
            # tight at the same value and contain j
            assert j in tight
            assert q * graphic_rank(triangle, tight) - sum(values[e] for e in tight) == eps


class TestCunninghamBasis:
    def test_triangle_2_3(self, triangle):
        res, steps = record_greedy_pass(triangle, 2, 3)
        assert steps[-1].after == [2, 2, 2]
        assert res.total == 6 == 3 * (3 - 1)
        assert res.candidate == frozenset({0, 1, 2})

    def test_triangle_5_9(self, triangle):
        res, steps = record_greedy_pass(triangle, 5, 9)
        assert steps[-1].after == [5, 5, 5]
        assert res.total == 15 < 18
        assert res.candidate == frozenset({0, 1, 2})

    def test_single_edge(self):
        g = graph_from_pairs(2, [(0, 1)])
        res, steps = record_greedy_pass(g, 1, 1)
        assert steps[-1].after == [1]
        assert res.total == 1
        assert res.candidate == frozenset({0})

    def test_disconnected_rejected(self):
        g = graph_from_pairs(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            cunningham_basis(g, 1, 2)

    def test_trivial_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            cunningham_basis(MultiGraph(1, ()), 1, 1)

    def test_candidate_entries_hit_the_cap(self, bridge_triangles):
        for p, q in [(1, 2), (2, 3), (1, 1), (3, 4)]:
            res, steps = record_greedy_pass(bridge_triangles, p, q)
            for e in res.candidate:
                assert steps[-1].after[e] == p

    def test_tightness_at_exit(self, bridge_triangles):
        for p, q in [(1, 2), (2, 3), (5, 7)]:
            res, steps = record_greedy_pass(bridge_triangles, p, q)
            tight_set = frozenset(range(bridge_triangles.edge_count)) - res.candidate
            got = sum(steps[-1].after[e] for e in tight_set)
            assert got == q * graphic_rank(bridge_triangles, tight_set)


@given(connected_multigraphs(max_vertices=6, max_extra=4),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_feasible_throughout_and_monotone(g, p, q):
    res, steps = record_greedy_pass(g, p, q)
    assert [step.edge for step in steps] == list(range(g.edge_count))
    for step in steps:
        assert all(x2 >= x1 for x1, x2 in zip(step.before, step.after))
        assert polymatroid_violation(g, step.after, q) is None
        if step.bound < step.cap:
            assert step.edge in step.bound_set
    assert sum(steps[-1].after) == res.total


@given(connected_multigraphs(max_vertices=6, max_extra=4),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_basis_total_law_and_order_invariance(g, p, q, rnd):
    expected = brute_basis_total(g, p, q)
    res = cunningham_basis(g, p, q)
    assert res.total == expected
    # the pass visits edges in id order, so permuting the edge tuple
    # permutes the visit order
    edges = list(g.edges)
    rnd.shuffle(edges)
    res2 = cunningham_basis(MultiGraph(g.vertex_count, tuple(edges)), p, q)
    assert res2.total == expected


@given(connected_multigraphs(max_vertices=6, max_extra=4),
       st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_subproblem_matches_brute_force_mid_run(g, p, q):
    _res, steps = record_greedy_pass(g, p, q, exact=True)
    assert len(steps) == g.edge_count
    for step in steps:
        eps, _argmin = brute_min_increment(g, step.before, step.edge, q)
        assert step.bound == eps
        # returned constraint set attains the same slack
        slack = q * graphic_rank(g, step.bound_set) - sum(
            step.before[e] for e in step.bound_set
        )
        assert slack == eps


@given(connected_multigraphs(max_vertices=6, max_extra=4),
       st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=40, deadline=None)
def test_subproblem_cut_value_is_always_even(g, q, data):
    j = data.draw(st.integers(min_value=0, max_value=g.edge_count - 1))
    values = [data.draw(st.integers(min_value=0, max_value=q)) for _ in range(g.edge_count)]
    # parity is structural (every cut is 2(x'(E) - x'(E(U))) + 2q|U|), so it
    # must hold whether or not the vector is feasible
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = spy_dinic(monkeypatch)
        try:
            exact_solve(solver_at(g, values, q), j)
        except InvariantViolation as err:
            assert "odd" not in str(err)
    (call,) = calls
    assert not call.stopped
    assert call.value % 2 == 0


@given(connected_multigraphs(max_vertices=6, max_extra=4),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_warm_solve_matches_cold_solve(g, p, q):
    # each solve of a pass starts from the flow the previous one left; a
    # fresh solver at the same vector starts from the zero graph flow
    _res, steps = record_greedy_pass(g, p, q, exact=True)
    for step in steps:
        cold = exact_solve(solver_at(g, step.before, q), step.edge)
        assert (step.bound, step.bound_set) == cold


@given(connected_multigraphs(max_vertices=6, max_extra=4),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_capped_solve_matches_brute_force(g, p, q):
    # the pass as it runs: each solve returns min(increment, cap), and a
    # solve below its cap gives the constraint set of an exact solve
    res, steps = record_greedy_pass(g, p, q)
    for step in steps:
        eps, _argmin = brute_min_increment(g, step.before, step.edge, q)
        assert step.bound == min(eps, step.cap)
        if step.bound < step.cap:
            cold = exact_solve(solver_at(g, step.before, q), step.edge)
            assert (step.bound, step.bound_set) == cold
    exact_res, _steps = record_greedy_pass(g, p, q, exact=True)
    assert res == exact_res


def test_karate_pass_carries_flow(karate, monkeypatch):
    calls = spy_dinic(monkeypatch)
    n, m = karate.vertex_count, karate.edge_count
    _res, steps = record_greedy_pass(karate, n - 1, m)
    assert len(steps) == m
    graph_flow = [
        any(call.cap[a] != call.cap[a + 1] for a in range(0, 2 * m, 2))
        for call in calls
    ]
    assert not graph_flow[0]
    assert any(graph_flow[1:])
    # every way out of a solve is taken: no max-flow, a stopped one, a full cut
    stopped = sum(call.stopped for call in calls)
    assert len(calls) < m
    assert 0 < stopped < len(calls)
    assert len(calls) - stopped == sum(step.bound < step.cap for step in steps)


@given(connected_multigraphs(max_vertices=6, max_extra=5),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
# only {1, 2} is too dense, so only the last cut can see it
@example(graph_from_pairs(3, [(0, 1), (1, 2), (1, 2)]), 3, 5)
@settings(max_examples=80, deadline=None)
def test_density_test_matches_greedy_total_and_brute_force(g, p, q):
    n, m = g.vertex_count, g.edge_count
    whole = Fraction(n - 1, m)
    for p, q in [(p, q), (whole.numerator, whole.denominator)]:
        dense = density_violation(g, p, q)
        assert (dense is None) == (cunningham_basis(g, p, q).total == p * m)
        assert (dense is None) == (polymatroid_violation(g, [p] * m, q) is None)
        if dense is not None:
            inside = [e for e, (a, b) in enumerate(g.edges) if a in dense and b in dense]
            assert p * len(inside) > q * (len(dense) - 1)


@given(connected_multigraphs(max_vertices=6, max_extra=5),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@example(graph_from_pairs(3, [(0, 1), (1, 2), (1, 2)]), 3, 5)
@settings(max_examples=60, deadline=None)
def test_density_cuts_force_their_vertices(g, p, q):
    """Every network the density test hands to dinic: x' = p on every edge,
    r joined to one vertex i with infinite capacity and to every other
    vertex v with p deg(v), s joined to 0..i-1 with infinite capacity and
    to the rest with 2q; the carried flow is feasible.  The cuts move up
    one vertex at a time, and a short one is the last."""
    n, m = g.vertex_count, g.edge_count
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = spy_dinic(monkeypatch)
        dense = density_violation(g, p, q)
    target = 2 * (p * m + q)
    forced = []
    for call in calls:
        cap = call.cap
        capacity = [(cap[2 * i] + cap[2 * i + 1]) // 2 for i in range(m + 2 * n)]
        source_arcs, sink_arcs = capacity[m:m + n], capacity[m + n:]
        assert capacity[:m] == [p] * m
        (i,) = [v for v in range(n) if source_arcs[v] != p * len(g.incidence[v])]
        infinite = source_arcs[i]
        assert sink_arcs == [infinite] * i + [2 * q] * (n - i)
        assert infinite > sum(capacity) - (i + 1) * infinite
        forced.append(i)
        assert call.stopped == (call.value >= target)
    assert forced == sorted(set(forced))
    assert all(i < n - 1 for i in forced)
    if dense is None:
        assert all(call.stopped for call in calls)
    else:
        assert calls and not calls[-1].stopped
        assert all(call.stopped for call in calls[:-1])
        assert min(dense) == forced[-1]

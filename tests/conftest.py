import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from treemodulus.graph import MultiGraph, parse_edge_list
from treemodulus.polymatroid import _SubproblemSolver, cunningham_basis

FIXTURES = Path(__file__).parent / "fixtures"


def graph_from_pairs(n, pairs):
    return MultiGraph(n, tuple(tuple(e) for e in pairs))


def handed_flow(node_count, source, sink, to, cap):
    """Check the flow the residual array ``cap`` carries and return its value.

    Flow edge i owns arcs 2i and 2i+1, whose residuals are c - f and c + f
    for its capacity c and its flow f along arc 2i.  The flow must keep
    |f| <= c on every pair, be conserved at every node but the source and
    the sink, and leave no source-v-sink path with room on both arcs.
    """
    inflow = [0] * node_count
    for a in range(0, len(cap), 2):
        assert cap[a] >= 0 and cap[a + 1] >= 0
        assert (cap[a + 1] - cap[a]) % 2 == 0
        f = (cap[a + 1] - cap[a]) // 2
        inflow[to[a]] += f
        inflow[to[a + 1]] -= f
    assert all(inflow[v] == 0 for v in range(node_count) if v not in (source, sink))
    assert inflow[sink] == -inflow[source] >= 0
    from_source = {to[a]: cap[a] for a in range(len(to)) if to[a ^ 1] == source}
    into_sink = {to[a ^ 1]: cap[a] for a in range(len(to)) if to[a] == sink}
    assert all(min(room, into_sink.get(v, 0)) == 0 for v, room in from_source.items())
    return inflow[sink]


class PassStep(NamedTuple):
    """One edge visit of a greedy pass; vectors are x' at scale q.

    ``bound`` is what solve returned for ``cap``, and ``bound_set`` the
    constraint set when the bound is below the cap (None otherwise).
    """

    edge: int
    before: list[int]
    cap: int
    bound: int
    bound_set: frozenset[int] | None
    applied: int
    after: list[int]


def record_greedy_pass(g, p, q, exact=False):
    """Run cunningham_basis(g, p, q) and return (result, its PassStep per edge).

    Spies on the solver: solve(j, cap) gives the edge, its cap and bound,
    tight_set the constraint set, raise_edge the applied increment, and x'
    is read from the capacities of the graph edges, which the solver keeps
    equal to the tracked vector: half of each arc pair's residual sum,
    whatever flow the pair carries.  After each solve the carried flow must
    certify the bound: a cut value of exactly 2(x'(E) + q + bound) below the
    cap, at least 2(x'(E) + q + cap) at it, since every cut is at least the
    value of any feasible flow.

    With ``exact`` each solve gets the cap q + 1 instead, which is above
    every increment (the set {j} alone leaves q - x'(j)), so ``bound`` is
    the exact increment and ``bound_set`` its constraint set; the pass
    still receives min(bound, cap).
    """
    steps = []
    solve, raise_edge = _SubproblemSolver.solve, _SubproblemSolver.raise_edge

    def edge_vector(solver):
        cap = solver.cap
        return [(cap[a] + cap[a + 1]) // 2 for a in range(0, 2 * solver.m, 2)]

    def spy_solve(solver, j, cap):
        before = edge_vector(solver)
        limit = solver.q + 1 if exact else cap
        bound = solve(solver, j, limit)
        carried = handed_flow(solver.n + 2, solver.source, solver.sink, solver.to, solver.cap)
        assert carried == solver.flow
        floor = 2 * (solver.x_total + solver.q + bound)
        if bound < limit:
            assert carried == floor
            bound_set = solver.tight_set()
        else:
            assert bound == limit and carried >= floor
            bound_set = None
        steps.append([j, before, cap, bound, bound_set])
        return min(bound, cap)

    def spy_raise_edge(solver, edge, delta):
        raise_edge(solver, edge, delta)
        assert steps[-1][0] == edge
        steps[-1] = PassStep(*steps[-1], delta, edge_vector(solver))

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_SubproblemSolver, "solve", spy_solve)
        monkeypatch.setattr(_SubproblemSolver, "raise_edge", spy_raise_edge)
        result = cunningham_basis(g, p, q)
    return result, steps


@pytest.fixture
def triangle():
    return graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k4():
    return graph_from_pairs(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


@pytest.fixture
def bridge_triangles():
    # two triangles joined by one bridge (edge id 3)
    return graph_from_pairs(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])


@pytest.fixture
def path4():
    return graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture(scope="session")
def karate():
    g, warnings = parse_edge_list((FIXTURES / "karate.edges").read_bytes())
    assert not warnings
    return g


@pytest.fixture(scope="session")
def corpus():
    payload = json.loads((FIXTURES / "small_corpus.json").read_text())
    return [
        (entry["name"], graph_from_pairs(entry["vertices"], entry["edges"]))
        for entry in payload["graphs"]
    ]


@st.composite
def connected_multigraphs(draw, max_vertices=7, max_extra=5):
    """Random connected multigraph: a spanning tree plus extra edges
    (which may duplicate existing pairs)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = []
    for v in range(1, n):
        edges.append((draw(st.integers(min_value=0, max_value=v - 1)), v))
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda ab: ab[0] != ab[1]),
            max_size=max_extra,
        )
    )
    edges.extend(extras)
    return MultiGraph(n, tuple(edges))


def frac(p, q=1):
    return Fraction(p, q)

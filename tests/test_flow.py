import random
from itertools import combinations

from hypothesis import assume, example, given, settings, strategies as st

from treemodulus.flow import dinic

INF = None  # stands for a capacity above every finite cut


def build_arcs(node_count, edges):
    """Arc arrays for undirected (u, v, cap) edges, carrying zero flow.

    Edge i owns arcs 2i (u->v) and 2i+1 (v->u); an INF capacity becomes one
    more than the sum of the finite ones.  Returns (to, adj, residual
    capacities, resolved edge capacities).
    """
    infinite = sum(c for _u, _v, c in edges if c is not INF) + 1
    caps = [infinite if c is INF else c for _u, _v, c in edges]
    to, cap = [], []
    adj = [[] for _ in range(node_count)]
    for (u, v, _c), c in zip(edges, caps):
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(c)
    return to, adj, cap, caps


def source_side(level):
    return frozenset(v for v, lv in enumerate(level) if lv != -1)


def run_dinic(node_count, source, sink, edges):
    """Run dinic from zero flow on undirected (u, v, cap) edges.

    Returns (flow, source side, crossing edge ids, resolved capacities).
    """
    to, adj, cap, caps = build_arcs(node_count, edges)
    value, level = dinic(node_count, source, sink, to, adj, cap)
    side = source_side(level)
    crossing = tuple(i for i, (u, v, _c) in enumerate(edges) if (u in side) != (v in side))
    return value, side, crossing, caps


def brute_min_cut(node_count, source, sink, edges):
    """Minimum crossing capacity over all source/sink bipartitions, and the
    minimal minimum cut: the intersection of every minimum source side."""
    infinite = sum(c for _u, _v, c in edges if c is not INF) + 1
    others = [v for v in range(node_count) if v not in (source, sink)]
    best = minimal = None
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            side = {source, *extra}
            value = sum(
                infinite if c is INF else c
                for u, v, c in edges
                if (u in side) != (v in side)
            )
            if best is None or value < best:
                best, minimal = value, frozenset(side)
            elif value == best:
                minimal &= side
    return best, minimal


def push_random_flow(source, sink, to, adj, cap, rnd):
    """Push random amounts along random residual source-sink paths, in place.

    Paths may run against earlier flow, so the result need not be acyclic
    or maximal; it stays feasible.  Returns the flow value.
    """
    value = 0
    for _ in range(rnd.randint(1, 4)):
        parent = {source: None}
        stack = [source]
        while stack and sink not in parent:
            v = stack.pop()
            arcs = list(adj[v])
            rnd.shuffle(arcs)
            for a in arcs:
                if cap[a] > 0 and to[a] not in parent:
                    parent[to[a]] = a
                    stack.append(to[a])
        if sink not in parent:
            break
        path = []
        v = sink
        while v != source:
            path.append(parent[v])
            v = to[parent[v] ^ 1]
        amount = rnd.randint(1, min(cap[a] for a in path))
        for a in path:
            cap[a] -= amount
            cap[a ^ 1] += amount
        value += amount
    return value


def test_single_edge():
    value, side, crossing, _caps = run_dinic(2, 0, 1, [(0, 1, 5)])
    assert value == 5
    assert side == frozenset({0})
    assert crossing == (0,)


def test_two_parallel_paths():
    # r-a-s with caps (3,4) plus r-b-s with caps (2,2): enumeration gives 5
    edges = [(0, 2, 3), (2, 1, 4), (0, 3, 2), (3, 1, 2)]
    value, _side, _crossing, _caps = run_dinic(4, 0, 1, edges)
    assert value == 5
    assert value == brute_min_cut(4, 0, 1, edges)[0]


def test_triangle_aux_network():
    # a triangle a, b, c with empty edges, a source joined to a and b with
    # infinite capacity and a sink joined to all three at 2q, q=3;
    # enumerating bipartitions gives value 12 with a and b on the source side
    q = 3
    edges = [
        (0, 1, 0), (1, 2, 0), (0, 2, 0),  # original edges
        (3, 0, INF), (3, 1, INF), (3, 2, 0),  # source side
        (4, 0, 2 * q), (4, 1, 2 * q), (4, 2, 2 * q),  # sink side
    ]
    assert brute_min_cut(5, 3, 4, edges) == (12, frozenset({3, 0, 1}))
    value, side, _crossing, _caps = run_dinic(5, 3, 4, edges)
    assert value == 12
    assert side == frozenset({3, 0, 1})


def test_cut_result_invariants():
    edges = [(0, 1, 3), (0, 2, 2), (1, 2, 1), (1, 3, 2), (2, 3, 3)]
    value, side, crossing, caps = run_dinic(4, 0, 3, edges)
    assert value == sum(caps[e] for e in crossing)
    assert 0 in side
    assert 3 not in side


def test_infinite_edges_never_cross():
    # the infinite edge forces vertex 2 onto the source side
    edges = [(0, 2, INF), (2, 1, 4), (0, 1, 1)]
    value, side, crossing, _caps = run_dinic(4, 0, 1, edges)
    assert value == 5
    assert 2 in side
    assert 0 not in crossing


def test_deterministic():
    edges = [(a, b, (a + 2 * b) % 5 + 1) for a in range(5) for b in range(a + 1, 6)]
    assert run_dinic(6, 0, 5, edges) == run_dinic(6, 0, 5, edges)


@st.composite
def small_networks(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.integers(min_value=0, max_value=3)) == 0:
                continue
            cap = draw(st.one_of(st.integers(min_value=0, max_value=20), st.just(INF)))
            edges.append((a, b, cap))
    return n, edges


# max flow 3 needs a later path to cancel the flow 0-1-4-6 put on edge 1-4
CANCELLING = (7, [(0, 1, 1), (0, 3, INF), (1, 4, 1), (1, 5, INF), (3, 4, INF), (4, 6, 1), (5, 6, INF)])


@given(small_networks())
@example(CANCELLING)
@settings(max_examples=200, deadline=None)
def test_matches_exhaustive_cut_enumeration(network):
    n, edges = network
    value, side, crossing, caps = run_dinic(n, 0, n - 1, edges)
    assert (value, side) == brute_min_cut(n, 0, n - 1, edges)
    # the cut read off the final levels certifies the flow
    assert 0 in side and n - 1 not in side
    assert value == sum(caps[e] for e in crossing)


@given(small_networks(), st.randoms(use_true_random=False))
@example(CANCELLING, random.Random(0))
@settings(max_examples=200, deadline=None)
def test_warm_start_from_feasible_flow(network, rnd):
    n, edges = network
    to, adj, cap, _caps = build_arcs(n, edges)
    start = push_random_flow(0, n - 1, to, adj, cap, rnd)
    assume(start > 0)
    assert min(cap) >= 0
    value, level = dinic(n, 0, n - 1, to, adj, cap)
    best, minimal = brute_min_cut(n, 0, n - 1, edges)
    assert start + value == best
    # the last BFS labels the minimal minimum cut, whatever flow came in
    assert source_side(level) == minimal

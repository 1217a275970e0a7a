from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from treemodulus.flow import dinic

INF = None  # stands for a capacity above every finite cut


def run_dinic(node_count, source, sink, edges):
    """Build the arc arrays for undirected (u, v, cap) edges and run dinic.

    Edge i owns arcs 2i (u->v) and 2i+1 (v->u); an INF capacity becomes one
    more than the sum of the finite ones.  Returns (flow, source side,
    crossing edge ids, resolved capacities).
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
    value, level = dinic(node_count, source, sink, to, adj, cap)
    side = frozenset(v for v in range(node_count) if level[v] != -1)
    crossing = tuple(i for i, (u, v, _c) in enumerate(edges) if (u in side) != (v in side))
    return value, side, crossing, caps


def brute_min_cut_value(node_count, source, sink, edges):
    """Minimum crossing capacity over all source/sink bipartitions."""
    infinite = sum(c for _u, _v, c in edges if c is not INF) + 1
    others = [v for v in range(node_count) if v not in (source, sink)]
    best = None
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            side = {source, *extra}
            value = sum(
                infinite if c is INF else c
                for u, v, c in edges
                if (u in side) != (v in side)
            )
            if best is None or value < best:
                best = value
    return best


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
    assert value == brute_min_cut_value(4, 0, 1, edges)


def test_triangle_aux_network():
    # the subproblem network for a triangle with zero increments, q=3,
    # j joining a and b; enumerating bipartitions gives value 12 with the
    # endpoints of j on the source side
    q = 3
    edges = [
        (0, 1, 0), (1, 2, 0), (0, 2, 0),  # original edges
        (3, 0, INF), (3, 1, INF), (3, 2, 0),  # source side
        (4, 0, 2 * q), (4, 1, 2 * q), (4, 2, 2 * q),  # sink side
    ]
    assert brute_min_cut_value(5, 3, 4, edges) == 12
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
    assert value == brute_min_cut_value(n, 0, n - 1, edges)
    # the cut read off the final levels certifies the flow
    assert 0 in side and n - 1 not in side
    assert value == sum(caps[e] for e in crossing)

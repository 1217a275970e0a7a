"""Integer-arithmetic greedy basis computation on the graphic polymatroid.

For a target rate p/q the greedy pass keeps a per-edge integer vector that
is q times a polymatroid point, raising each edge in turn by the largest
feasible increment.  The increment subproblem (tightest constraint through
a given edge) is solved as a minimum cut on an auxiliary network; one
residual array serves the whole pass, and each cut starts from the maximum
flow the previous one left behind.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .flow import dinic
from .graph import EdgeSubset, MultiGraph, component_count, require_connected


@dataclass(frozen=True)
class BasisResult:
    """Outcome of one greedy pass.

    ``candidate`` is the complement of the accumulated tight set: the edges
    whose entry reached the cap p.  ``total`` is the vector summed over all
    edges, the quantity the threshold test reads.  ``vector`` holds the
    per-edge integers at scale q: q times the polymatroid point reached.
    """

    vector: list[int]
    tight_set: EdgeSubset
    candidate: EdgeSubset
    total: int


class _SubproblemSolver:
    """Min-cut workspace for one greedy pass, carrying its flow from cut to cut.

    The increment subproblem at edge j is a minimum cut on an auxiliary
    network: the graph vertices plus a source r and sink s; every graph
    edge with capacity x'(e); s joined to each vertex with capacity 2q; r
    joined to the endpoints of j with infinite capacity and to every other
    vertex v with capacity x'(δ(v)), x' summed over the edges meeting v.

    The auxiliary network's topology is fixed for a given graph and only the
    capacities follow the increment vector, so the arc structure and one
    residual array serve the whole pass.  ``raise_edge`` widens a graph edge
    and keeps its flow; ``solve`` re-routes the terminal arcs around the
    carried graph flow and lets ``dinic`` augment from there, so each cut
    starts from the previous cut's maximum flow (the warm start of
    parametric max-flow: Gallo, Grigoriadis and Tarjan, SIAM J. Comput. 18,
    1989).  Every maximum flow leaves the same source side reachable in its
    residual network, the minimal minimum cut, so the answers do not depend
    on the flow carried in.  Flow edge layout: [0, m) original edges,
    [m, m+n) source-to-vertex, [m+n, m+2n) sink-to-vertex; flow edge i owns
    arcs 2i and 2i+1, whose residuals sum to twice its capacity.
    """

    def __init__(self, g: MultiGraph, q: int):
        n = g.vertex_count
        m = g.edge_count
        self.g = g
        self.q = q
        self.n = n
        self.m = m
        self.source = n
        self.sink = n + 1
        to: list[int] = []
        adj: list[list[int]] = [[] for _ in range(n + 2)]

        def add_arc_pair(u: int, v: int) -> None:
            a = len(to)
            to.append(v)
            to.append(u)
            adj[u].append(a)
            adj[v].append(a + 1)

        for u, v in g.edges:
            add_arc_pair(u, v)
        for v in range(n):
            add_arc_pair(self.source, v)
        for v in range(n):
            add_arc_pair(self.sink, v)
        self.to = to
        self.adj = adj
        # zero flow at x' = 0: only the sink arcs have capacity
        cap = [0] * len(to)
        for v in range(n):
            a = 2 * (m + n + v)
            cap[a] = cap[a + 1] = 2 * q
        self.cap = cap
        self.incident = [0] * n  # x'(δ(v))
        self.stale: list[int] = []
        self.flow = 0  # value of the carried flow
        self.x_total = 0

    def raise_edge(self, edge: int, delta: int) -> None:
        """Reflect x'(edge) += delta; the flow carried on the edge stays feasible."""
        if delta == 0:
            return
        cap = self.cap
        a = 2 * edge
        cap[a] += delta
        cap[a + 1] += delta
        u, v = self.g.edges[edge]
        self.incident[u] += delta
        self.incident[v] += delta
        self.stale += (u, v)
        self.x_total += delta

    def solve(self, j: int) -> tuple[int, EdgeSubset]:
        """Largest integer increment of the tracked vector at edge j that
        stays inside the scaled polymatroid, with a constraint set attaining it.

        Decoded from the min cut: with U the graph vertices on the source
        side, the tight set is every edge with both endpoints in U, and the
        increment is cut/2 - x'(E) - q.  Both endpoints of j always land in
        U, so j itself is in the returned set.

        The carried flow leaves each vertex v a net graph outflow b(v), read
        off its terminal arcs as (flow from r) - (flow to s).  The terminal
        arcs are set to send min(2q, c_v - b(v)) to s and that plus b(v)
        from r, c_v being v's source capacity; b(v) lies in
        [-2q, x'(δ(v))], so this flow is feasible.  The previous maximum
        flow saturates one terminal arc of every vertex, which is that
        setting already, so only the ends of j and the vertices whose c_v
        changed since (``stale``: the ends of raised edges and of the
        previous j) are re-set.
        """
        cap = self.cap
        m, n = self.m, self.n
        two_q = 2 * self.q
        # strictly larger than the sum of every finite capacity
        infinite = 3 * self.x_total + two_q * n + 1
        ja, jb = self.g.edges[j]
        incident = self.incident
        flow = self.flow
        for v in {*self.stale, ja, jb}:
            a = 2 * (m + v)  # source -> v
            b = 2 * (m + n + v) + 1  # v -> sink
            to_sink = (cap[b - 1] - cap[b]) // 2
            outflow = (cap[a + 1] - cap[a]) // 2 - to_sink
            flow -= to_sink
            c = infinite if v == ja or v == jb else incident[v]
            to_sink = min(two_q, c - outflow)
            from_source = to_sink + outflow
            if not (0 <= to_sink <= two_q and 0 <= from_source <= c):
                raise InvariantViolation(
                    f"infeasible carried flow at vertex {v}: "
                    f"source arc {from_source}/{c}, sink arc {to_sink}/{two_q}"
                )
            cap[a] = c - from_source
            cap[a + 1] = c + from_source
            cap[b - 1] = two_q + to_sink
            cap[b] = two_q - to_sink
            flow += to_sink
        self.stale = [ja, jb]
        value, level = dinic(n + 2, self.source, self.sink, self.to, self.adj, cap)
        value += flow
        self.flow = value
        if value % 2 != 0:
            raise InvariantViolation(f"odd cut value {value}")
        u_side = [False] * n
        for v in range(n):
            if level[v] != -1:
                u_side[v] = True
        tight = frozenset(
            eid for eid, (a, b) in enumerate(self.g.edges) if u_side[a] and u_side[b]
        )
        epsilon = value // 2 - self.x_total - self.q
        if epsilon < 0 or j not in tight:
            raise InvariantViolation(
                f"bad subproblem decode at edge {j}: epsilon={epsilon}"
            )
        return epsilon, tight


def cunningham_basis(g: MultiGraph, p: int, q: int) -> BasisResult:
    """One greedy pass at target rate p/q, visiting each edge once.

    Every edge j is raised by min(subproblem increment, p - x'(j)); the
    subproblem's constraint set is accumulated into the tight set only when
    its increment is strictly smaller than the cap.  The returned total is
    independent of the visit order; the tight set need not be.
    """
    require_connected(g, nontrivial=True)
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    m = g.edge_count
    x = [0] * m
    solver = _SubproblemSolver(g, q)
    tight: set[int] = set()
    for j in range(m):
        bound, bound_set = solver.solve(j)
        cap = p - x[j]
        if bound < cap:
            tight |= bound_set
            applied = bound
        else:
            applied = cap
        x[j] += applied
        solver.raise_edge(j, applied)
    tight_frozen = frozenset(tight)
    candidate = frozenset(range(m)) - tight_frozen
    total = sum(x)
    rank = g.vertex_count - component_count(g, tight_frozen)
    if sum(x[e] for e in tight_frozen) != q * rank:
        raise InvariantViolation("accumulated tight set is not tight at exit")
    return BasisResult(vector=x, tight_set=tight_frozen, candidate=candidate, total=total)

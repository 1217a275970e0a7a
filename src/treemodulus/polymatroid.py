"""Integer-arithmetic greedy basis computation on the graphic polymatroid.

For a target rate p/q the greedy pass keeps a per-edge integer vector that
is q times a polymatroid point, raising each edge in turn by the largest
feasible increment.  The increment subproblem (tightest constraint through
a given edge) is solved as a minimum cut on an auxiliary network; one
residual array serves the whole pass, each cut starts from the flow the
previous one left behind, and a cut stops as soon as its flow proves the
edge's cap.

The same network also tests whether the uniform point p on every edge
lies in the polymatroid, with one cut per vertex instead of one per edge
(``density_violation``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .flow import dinic
from .graph import EdgeSubset, MultiGraph, graphic_rank, require_connected


@dataclass(frozen=True)
class BasisResult:
    """Outcome of one greedy pass.

    ``candidate`` is the complement of the accumulated tight set: the edges
    whose entry reached the cap p.  ``total`` is the per-edge vector at
    scale q (q times the polymatroid point reached) summed over all edges,
    the quantity the threshold test reads.
    """

    candidate: EdgeSubset
    total: int


class _SubproblemSolver:
    """Min-cut workspace for one greedy pass or one density test, carrying
    its flow from cut to cut.

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
    starts from the flow the previous one left (the warm start of
    parametric max-flow: Gallo, Grigoriadis and Tarjan, SIAM J. Comput. 18,
    1989).  That flow is feasible but need not be maximal, since a solve
    stops once its flow proves the cap.  Every maximum flow leaves the same
    source side reachable in its residual network, the minimal minimum
    cut, so the answers do not depend on the flow carried in.

    The density test keeps x' = p on every edge and moves the infinite
    capacities instead: its cut i joins r to vertex i and joins vertices
    0..i-1 to s with infinite capacity, every other terminal arc keeping its
    capacity above.

    The carried flow keeps one terminal arc of every vertex saturated:
    ``set_terminals``, the one place terminal capacities change, re-sets
    them that way, and an augmenting path only fills terminal arcs (it
    never enters r or leaves s), whether ``dinic`` runs to the end or stops
    early.  Flow edge layout: [0, m) original edges,
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
        self.level: list[int] | None = None  # BFS levels of the last full cut

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

    def solve(self, j: int, cap: int) -> int:
        """min(increment, cap): the increment being the largest integer
        raise of the tracked vector at edge j that stays inside the scaled
        polymatroid.

        The increment is decoded from the min cut as cut/2 - x'(E) - q, so
        it reaches ``cap`` exactly when the cut reaches 2(x'(E) + q + cap).
        Every feasible flow bounds the cut from below, so ``solve`` returns
        ``cap`` without a max-flow when the carried flow already reaches
        that value, and otherwise lets ``dinic`` stop once it does.  Only a
        flow that stays below it runs to the full cut; the increment is then
        below ``cap`` and ``tight_set`` reads its constraint set.

        The terminal arcs of a vertex v are re-set by ``set_terminals``
        with source capacity c_v and sink capacity 2q; the carried net graph
        outflow b(v) lies in [-2q, x'(δ(v))], so the flow stays feasible.
        Every vertex already has one saturated terminal arc, which is that
        setting, so only the ends of j and the vertices whose c_v changed
        since (``stale``: the ends of raised edges and of the previous j)
        are re-set.
        """
        two_q = 2 * self.q
        infinite = self.infinite()
        ja, jb = self.g.edges[j]
        incident = self.incident
        set_terminals = self.set_terminals
        for v in {*self.stale, ja, jb}:
            set_terminals(v, infinite if v == ja or v == jb else incident[v], two_q)
        self.stale = [ja, jb]
        level = self.reach(2 * (self.x_total + self.q + cap))
        if level is None:
            return cap
        value = self.flow
        if value % 2 != 0:
            raise InvariantViolation(f"odd cut value {value}")
        epsilon = value // 2 - self.x_total - self.q
        if not 0 <= epsilon < cap or level[ja] == -1 or level[jb] == -1:
            raise InvariantViolation(
                f"bad subproblem decode at edge {j}: epsilon={epsilon}"
            )
        return epsilon

    def infinite(self) -> int:
        """A capacity strictly larger than the sum of every finite one."""
        return 3 * self.x_total + 2 * self.q * self.n + 1

    def set_terminals(self, v: int, source_cap: int, sink_cap: int) -> None:
        """Give vertex v's terminal arcs these capacities around the carried flow.

        The carried flow leaves v a net graph outflow b(v), read off its
        terminal arcs as (flow from r) - (flow to s).  The arcs are set to
        send min(sink_cap, source_cap - b(v)) to s and that plus b(v) from
        r, which keeps the flow feasible whenever b(v) lies in
        [-sink_cap, source_cap], and leaves one of the two arcs saturated.
        """
        res = self.cap
        a = 2 * (self.m + v)  # source -> v
        b = 2 * (self.m + self.n + v) + 1  # v -> sink
        to_sink = (res[b - 1] - res[b]) // 2
        outflow = (res[a + 1] - res[a]) // 2 - to_sink
        self.flow -= to_sink
        to_sink = min(sink_cap, source_cap - outflow)
        from_source = to_sink + outflow
        if not (0 <= to_sink <= sink_cap and 0 <= from_source <= source_cap):
            raise InvariantViolation(
                f"infeasible carried flow at vertex {v}: "
                f"source arc {from_source}/{source_cap}, sink arc {to_sink}/{sink_cap}"
            )
        res[a] = source_cap - from_source
        res[a + 1] = source_cap + from_source
        res[b - 1] = sink_cap + to_sink
        res[b] = sink_cap - to_sink
        self.flow += to_sink

    def reach(self, target: int) -> list[int] | None:
        """Augment the carried flow until its value reaches ``target``.

        Returns None once it does, without a max-flow when the carried flow
        already reaches it.  Otherwise the flow is maximal short of
        ``target``, and the BFS levels of its last search, which mark the
        minimal minimum cut, are returned and kept for ``tight_set``.
        """
        self.level = None
        need = target - self.flow
        if need <= 0:
            return None
        value, level = dinic(
            self.n + 2, self.source, self.sink, self.to, self.adj, self.cap, enough=need
        )
        self.flow += value
        self.level = level
        return level

    def tight_set(self) -> EdgeSubset:
        """Constraint set attaining the last solve's increment, which must
        have been below its cap: with U the graph vertices on the source
        side of the min cut, every edge with both endpoints in U.  Both
        endpoints of j land in U, so j itself is in the set."""
        level = self.level
        return frozenset(
            eid
            for eid, (a, b) in enumerate(self.g.edges)
            if level[a] != -1 and level[b] != -1
        )


def cunningham_basis(g: MultiGraph, p: int, q: int) -> BasisResult:
    """One greedy pass at target rate p/q, visiting each edge once.

    ``g`` must be connected with at least two vertices, which is checked
    here.  Every edge j is raised by min(subproblem increment, p - x'(j));
    the subproblem's constraint set is accumulated into the tight set only
    when its increment is strictly smaller than the cap.  The returned
    total is independent of the visit order; the candidate set need not be.
    """
    require_connected(g, nontrivial=True)
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    m = g.edge_count
    x = [0] * m
    solver = _SubproblemSolver(g, q)
    tight: set[int] = set()
    for j in range(m):
        cap = p - x[j]
        applied = solver.solve(j, cap)
        if applied < cap:
            tight |= solver.tight_set()
        x[j] += applied
        solver.raise_edge(j, applied)
    if sum(x[e] for e in tight) != q * graphic_rank(g, tight):
        raise InvariantViolation("accumulated tight set is not tight at exit")
    return BasisResult(candidate=frozenset(range(m)) - tight, total=sum(x))


def density_violation(g: MultiGraph, p: int, q: int) -> frozenset[int] | None:
    """Test whether x' = p on every edge lies in the polymatroid of q times
    the graphic rank, with one capped min-cut per vertex but the last.

    That holds exactly when p|E[U]| <= q(|U| - 1) for every vertex set U,
    E[U] being the edges with both ends in U (Cunningham, "Testing
    membership in matroid polyhedra", JCTB 36, 1984).  A source side {r} + U
    of the auxiliary network cuts 2(x'(E) + q|U| - x'(E[U])), so the
    constraints of the sets U whose smallest vertex is i hold exactly when
    the minimum cut that forces i to the source side and 0..i-1 to the sink
    side reaches 2(x'(E) + q).  Each cut stops once its flow does; a single
    vertex always satisfies its constraint, so the last vertex needs no cut.

    Returns None when every constraint holds, and otherwise the graph
    vertices of the minimal source side of the first cut that falls short:
    a set U with p|E[U]| > q(|U| - 1).
    """
    n = g.vertex_count
    solver = _SubproblemSolver(g, q)
    for e in range(g.edge_count):
        solver.raise_edge(e, p)
    target = 2 * (solver.x_total + q)
    infinite = solver.infinite()
    incident = solver.incident
    two_q = 2 * q
    set_terminals = solver.set_terminals
    for v in range(1, n):
        set_terminals(v, incident[v], two_q)
    for i in range(n - 1):
        if i:
            set_terminals(i - 1, incident[i - 1], infinite)
        set_terminals(i, infinite, two_q)
        level = solver.reach(target)
        if level is not None:
            return frozenset(v for v in range(n) if level[v] != -1)
    return None

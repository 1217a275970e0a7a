"""Integer-arithmetic greedy basis computation on the graphic polymatroid.

For a target rate p/q the greedy pass keeps a per-edge integer vector that
is q times a polymatroid point, raising each edge in turn by the largest
feasible increment.  The increment subproblem (tightest constraint through
a given edge) is solved as a minimum cut on an auxiliary network.
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
    """Reusable min-cut workspace for one greedy pass.

    The increment subproblem at edge j is a minimum cut on an auxiliary
    network: the graph vertices plus a source r and sink s; every graph
    edge with capacity x'(e); s joined to each vertex with capacity 2q; r
    joined to the endpoints of j with infinite capacity and to every other
    vertex v with capacity x' summed over the edges meeting v.

    The auxiliary network's topology is fixed for a given graph, only the
    capacities follow the increment vector, so the arc structure is built
    once and each solve works on a copied capacity array.  Flow edge layout:
    [0, m) original edges, [m, m+n) source-to-vertex, [m+n, m+2n)
    sink-to-vertex; flow edge i owns arcs 2i and 2i+1.
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
        base = [0] * len(to)
        for v in range(n):
            a = 2 * (m + n + v)
            base[a] = base[a + 1] = 2 * q
        self.base = base
        self.x_total = 0

    def raise_edge(self, edge: int, delta: int) -> None:
        """Reflect x'(edge) += delta in the capacity template."""
        if delta == 0:
            return
        base = self.base
        a = 2 * edge
        base[a] += delta
        base[a + 1] += delta
        u, v = self.g.edges[edge]
        for vertex in (u, v):
            a = 2 * (self.m + vertex)
            base[a] += delta
            base[a + 1] += delta
        self.x_total += delta

    def solve(self, j: int) -> tuple[int, EdgeSubset]:
        """Largest integer increment of the tracked vector at edge j that
        stays inside the scaled polymatroid, with a constraint set attaining it.

        Decoded from the min cut: with U the graph vertices on the source
        side, the tight set is every edge with both endpoints in U, and the
        increment is cut/2 - x'(E) - q.  Both endpoints of j always land in
        U, so j itself is in the returned set.
        """
        caps = self.base.copy()
        # strictly larger than the sum of every finite capacity
        infinite = 3 * self.x_total + 2 * self.q * self.n + 1
        ja, jb = self.g.edges[j]
        for vertex in (ja, jb):
            a = 2 * (self.m + vertex)
            caps[a] = caps[a + 1] = infinite
        value, level = dinic(self.n + 2, self.source, self.sink, self.to, self.adj, caps)
        if value % 2 != 0:
            raise InvariantViolation(f"odd cut value {value}")
        u_side = [False] * self.n
        for v in range(self.n):
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

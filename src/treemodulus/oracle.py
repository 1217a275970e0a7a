"""Independent brute-force and algebraic oracles.

Everything here recomputes quantities by enumeration or classical linear
algebra, deliberately avoiding the flow/greedy stack, so the main pipeline
can be pinned against it; the test-only ones live in ``tests/brute.py``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SizeGuardExceeded
from .graph import (
    EdgeSubset,
    MultiGraph,
    _DisjointSet,
    bridges,
    decompose_after_removal,
    require_connected,
)
from .modulus import ModulusResult, PeelRecord

BRUTE_THETA_MAX_EDGES = 21  # enough for the complete graph on 7 vertices
BRUTE_MODULUS_MAX_EDGES = 16


def _partition_scan(g: MultiGraph) -> tuple[list[int], list[int]]:
    """For every edge mask, the id of the vertex partition it induces.

    Partitions are canonical tuples (every vertex labelled by the smallest
    vertex of its part) discovered lazily; transitions are memoised per
    (partition, edge), so the 2^|E| sweep costs a few list lookups per mask.
    Returns (partition id per mask, component count per partition id).
    """
    n = g.vertex_count
    m = g.edge_count
    edge_pairs = g.edges
    init = tuple(range(n))
    state_index: dict[tuple[int, ...], int] = {init: 0}
    states = [init]
    q_of_state = [n]
    trans: list[list[int | None]] = [[None] * m]
    ids = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        prev = ids[mask ^ low]
        e = low.bit_length() - 1
        t = trans[prev][e]
        if t is None:
            labels = states[prev]
            u, v = edge_pairs[e]
            a, b = labels[u], labels[v]
            if a == b:
                t = prev
            else:
                lo, hi = (a, b) if a < b else (b, a)
                merged = tuple(lo if x == hi else x for x in labels)
                t = state_index.get(merged)
                if t is None:
                    t = len(states)
                    state_index[merged] = t
                    states.append(merged)
                    q_of_state.append(q_of_state[prev] - 1)
                    trans.append([None] * m)
            trans[prev][e] = t
        ids[mask] = t
    return ids, q_of_state


def brute_theta(g: MultiGraph) -> tuple[Fraction, list[EdgeSubset]]:
    """Exhaustive vulnerability: max over all nonempty edge subsets of
    (components after removal - 1) / size, with the full argmax family."""
    require_connected(g, nontrivial=True)
    m = g.edge_count
    if m > BRUTE_THETA_MAX_EDGES:
        raise SizeGuardExceeded(f"{m} edges exceeds brute-force guard {BRUTE_THETA_MAX_EDGES}")
    ids, q_of_state = _partition_scan(g)
    full = (1 << m) - 1
    best_p, best_q = 0, 1
    for comp_mask in range(full):  # complement of J; J = full ^ comp_mask is nonempty
        overlap = q_of_state[ids[comp_mask]] - 1
        size = m - comp_mask.bit_count()
        if overlap * best_q > best_p * size:
            best_p, best_q = overlap, size
    family = []
    for comp_mask in range(full):
        overlap = q_of_state[ids[comp_mask]] - 1
        size = m - comp_mask.bit_count()
        if overlap * best_q == best_p * size:
            j_mask = full ^ comp_mask
            family.append(frozenset(i for i in range(m) if j_mask >> i & 1))
    family.sort(key=lambda s: (len(s), sorted(s)))
    return Fraction(best_p, best_q), family


def count_spanning_trees(g: MultiGraph) -> int:
    """Exact spanning tree count via a fraction-free integer determinant of
    a Laplacian minor (Kirchhoff)."""
    n = g.vertex_count
    if n == 0:
        return 0
    if n == 1:
        return 1
    dim = n - 1
    lap = [[0] * dim for _ in range(dim)]
    for a, b in g.edges:
        if a > 0:
            lap[a - 1][a - 1] += 1
        if b > 0:
            lap[b - 1][b - 1] += 1
        if a > 0 and b > 0:
            lap[a - 1][b - 1] -= 1
            lap[b - 1][a - 1] -= 1
    # Bareiss elimination: every division below is exact
    sign = 1
    prev = 1
    for k in range(dim - 1):
        if lap[k][k] == 0:
            for i in range(k + 1, dim):
                if lap[i][k] != 0:
                    lap[k], lap[i] = lap[i], lap[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = lap[k][k]
        row_k = lap[k]
        for i in range(k + 1, dim):
            row_i = lap[i]
            factor = row_i[k]
            for col in range(k + 1, dim):
                row_i[col] = (row_i[col] * pivot - factor * row_k[col]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * lap[dim - 1][dim - 1]


def minimum_spanning_weight(
    g: MultiGraph, values: Sequence[Fraction], group_of: Sequence[int]
) -> Fraction:
    """Exact-rational minimum spanning tree weight (Kruskal) when edge e
    weighs ``values[group_of[e]]``.  Edges are ordered by their value's
    rank, ties by id, and the tree's weight is summed once per value."""
    require_connected(g)
    rank = {k: r for r, k in enumerate(sorted(range(len(values)), key=values.__getitem__))}
    dsu = _DisjointSet(g.vertex_count)
    taken = [0] * len(values)
    for eid in sorted(range(g.edge_count), key=[rank[k] for k in group_of].__getitem__):
        a, b = g.edges[eid]
        if dsu.union(a, b):
            taken[group_of[eid]] += 1
    return sum((value * count for value, count in zip(values, taken)), Fraction(0))


def brute_modulus(g: MultiGraph) -> ModulusResult:
    """The peeling recursion with exhaustive vulnerability in place of the
    greedy/flow stack; the independent reference for usage probabilities."""
    require_connected(g, nontrivial=True)
    m = g.edge_count
    eta: list[Fraction | None] = [None] * m
    trace: list[PeelRecord] = []
    queue: deque[tuple[MultiGraph, tuple[int, ...], int]] = deque()
    queue.append((g, tuple(range(m)), -1))
    while queue:
        sub, root_ids, parent_idx = queue.popleft()
        if sub.edge_count > BRUTE_MODULUS_MAX_EDGES:
            raise SizeGuardExceeded(
                f"{sub.edge_count} edges exceeds brute-force guard {BRUTE_MODULUS_MAX_EDGES}"
            )
        theta, family = brute_theta(sub)
        critical = family[0]  # deterministic: smallest by (size, ids)
        record = PeelRecord(
            index=len(trace),
            parent=parent_idx,
            vertex_count=sub.vertex_count,
            edge_count=sub.edge_count,
            theta=theta,
            critical_edges=tuple(sorted(root_ids[e] for e in critical)),
        )
        trace.append(record)
        for e in critical:
            eta[root_ids[e]] = theta
        for comp in decompose_after_removal(sub, critical):
            if not comp.parent_edge_ids:
                continue
            queue.append(
                (comp.graph, tuple(root_ids[pe] for pe in comp.parent_edge_ids), record.index)
            )
    eta_final = tuple(eta)  # type: ignore[arg-type]
    energy = sum(value * value for value in eta_final)
    modulus = 1 / energy
    rho = tuple(value * modulus for value in eta_final)
    return ModulusResult(eta=eta_final, rho=rho, modulus=modulus, trace=tuple(trace))


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ModulusReport:
    entries: tuple[CheckEntry, ...]

    @property
    def all_passed(self) -> bool:
        return all(entry.passed for entry in self.entries)


def verify_modulus(g: MultiGraph, result: ModulusResult) -> ModulusReport:
    """Exact-arithmetic consistency report for a modulus result.

    Every sum and range check runs once per distinct usage probability,
    and the minimum tree ranks those values, so no Fraction is added or
    multiplied per edge.
    """
    n = g.vertex_count
    eta = result.eta
    # the distinct values, in order of first appearance, and each edge's one
    index: dict[Fraction, int] = {}
    group_of = [index.setdefault(value, len(index)) for value in eta]
    values = list(index)
    counts = Counter(group_of)
    total = sum(values[k] * count for k, count in counts.items())
    energy = sum(values[k] * values[k] * count for k, count in counts.items())
    density = [value * result.modulus for value in values]
    bad_bridges = [b for b in sorted(bridges(g)) if eta[b] != 1]
    mst = minimum_spanning_weight(g, values, group_of)
    return ModulusReport((
        CheckEntry("usage-sum", total == n - 1, f"sum(eta) = {total}, expected {n - 1}"),
        CheckEntry(
            "normalization",
            result.modulus * energy == 1,
            f"modulus * sum(eta^2) = {result.modulus * energy}",
        ),
        CheckEntry(
            "density-ratio",
            all(rho == density[k] for rho, k in zip(result.rho, group_of, strict=True)),
            "rho must equal eta * modulus on every edge",
        ),
        CheckEntry(
            "usage-range", all(0 < value <= 1 for value in values), "every eta must lie in (0, 1]"
        ),
        CheckEntry("bridge-usage", not bad_bridges, f"bridges with eta != 1: {bad_bridges}"),
        CheckEntry(
            "mst-energy", mst == energy, f"minimum tree weight {mst} vs sum(eta^2) {energy}"
        ),
    ))

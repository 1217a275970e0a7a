"""Brute-force references that only the test suite uses.

Each recomputes a quantity by enumeration, without the flow and sweep stack,
so the pipeline's pieces can be pinned against it on small instances.
``treemodulus.oracle`` keeps the references the package itself runs
(``treemod check``, ``treemod stats`` and ``verify_modulus``).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from treemodulus.errors import SizeGuardExceeded
from treemodulus.graph import (
    EdgeSubset,
    MultiGraph,
    _DisjointSet,
    component_count,
    decompose_after_removal,
    require_connected,
)
from treemodulus.modulus import ModulusResult, PeelRecord
from treemodulus.oracle import _partition_scan, count_spanning_trees
from treemodulus.vulnerability import vulnerability

ENUMERATION_GUARD = 1_000_000
MASK_MAX_EDGES = 16


def min_overlap(g: MultiGraph, subset: Iterable[int]) -> int:
    """Minimum number of edges any spanning tree must share with the subset.

    Equals the component count after deleting the subset, minus one.
    """
    require_connected(g)
    removed = frozenset(subset)
    rest = (e for e in range(g.edge_count) if e not in removed)
    return component_count(g, rest) - 1


def graphic_rank(g: MultiGraph, subset: Iterable[int]) -> int:
    """Rank of an edge set in the graphic matroid: |V| minus its component count."""
    return g.vertex_count - component_count(g, subset)


def component_counts_by_mask(g: MultiGraph, max_edges: int = MASK_MAX_EDGES) -> list[int]:
    """Connected-component count of (V, mask) for every edge mask."""
    if g.edge_count > max_edges:
        raise SizeGuardExceeded(f"{g.edge_count} edges exceeds mask-enumeration guard {max_edges}")
    ids, q_of_state = _partition_scan(g)
    return [q_of_state[i] for i in ids]


def subset_sums_by_mask(values: Sequence[int]) -> list[int]:
    """Sum of ``values`` over the bits of every mask."""
    m = len(values)
    sums = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def brute_min_increment(
    g: MultiGraph, x_values: Sequence[int], j: int, q: int
) -> tuple[int, EdgeSubset]:
    """Exhaustive minimum of q*rank(J') - x'(J') over subsets containing j.

    The argmin reported is the smallest by (cardinality, sorted edge ids).
    """
    m = g.edge_count
    qs = component_counts_by_mask(g)
    sums = subset_sums_by_mask(list(x_values))
    n = g.vertex_count
    jbit = 1 << j
    best = None
    best_masks: list[int] = []
    for mask in range(1 << m):
        if not mask & jbit:
            continue
        value = q * (n - qs[mask]) - sums[mask]
        if best is None or value < best:
            best = value
            best_masks = [mask]
        elif value == best:
            best_masks.append(mask)
    members = [frozenset(i for i in range(m) if mask >> i & 1) for mask in best_masks]
    members.sort(key=lambda s: (len(s), sorted(s)))
    return best, members[0]


def brute_greedy_pass(g: MultiGraph, p: int, q: int) -> list[list[int]]:
    """Cunningham's greedy pass at rate p/q, by enumeration: from zero, raise
    each edge in id order by the least of p and its minimum increment, and
    keep the vector after each edge.  Its last vector totals
    min over J of p|J| + q*rank(complement of J) (Edmonds' min-max)."""
    x = [0] * g.edge_count
    steps = []
    for j in range(g.edge_count):
        x = x.copy()
        x[j] += min(p, brute_min_increment(g, x, j, q)[0])
        steps.append(x)
    return steps


def polymatroid_violation(g: MultiGraph, x_values: Sequence[int], q: int) -> EdgeSubset | None:
    """First subset violating x'(J) <= q*rank(J), or None if feasible."""
    m = g.edge_count
    qs = component_counts_by_mask(g)
    sums = subset_sums_by_mask(list(x_values))
    n = g.vertex_count
    for mask in range(1 << m):
        if sums[mask] > q * (n - qs[mask]):
            return frozenset(i for i in range(m) if mask >> i & 1)
    return None


def brute_basis(g: MultiGraph, p: int, q: int) -> tuple[int, EdgeSubset]:
    """min over subsets J of p*|J| + q*rank(complement of J), and the
    largest minimizing J: the union of every minimizer, which minimizes too."""
    m = g.edge_count
    qs = component_counts_by_mask(g)
    n = g.vertex_count
    full = (1 << m) - 1
    best = union = None
    for mask in range(1 << m):
        value = p * mask.bit_count() + q * (n - qs[full ^ mask])
        if best is None or value < best:
            best, union = value, mask
        elif value == best:
            union |= mask
    return best, frozenset(i for i in range(m) if union >> i & 1)


def enumerate_spanning_trees(g: MultiGraph) -> list[EdgeSubset]:
    """All spanning trees as edge-id sets, each exactly once.

    Contraction/deletion recursion; parallel edges yield distinct trees.
    Refuses graphs with more than ENUMERATION_GUARD trees.
    """
    require_connected(g)
    total = count_spanning_trees(g)
    if total > ENUMERATION_GUARD:
        raise SizeGuardExceeded(
            f"graph has {total} spanning trees, enumeration guard is {ENUMERATION_GUARD}"
        )
    if g.vertex_count == 1:
        return [frozenset()]
    out: list[EdgeSubset] = []
    edges = [(a, b, eid) for eid, (a, b) in enumerate(g.edges)]
    _span_rec(edges, g.vertex_count, (), out)
    assert len(out) == total, (len(out), total)
    return out


def _connected_labelled(edges: list[tuple[int, int, int]], n: int) -> bool:
    labels: dict[int, int] = {}
    for a, b, _ in edges:
        labels.setdefault(a, len(labels))
        labels.setdefault(b, len(labels))
    if len(labels) != n:
        return False
    dsu = _DisjointSet(n)
    for a, b, _ in edges:
        dsu.union(labels[a], labels[b])
    return dsu.count == 1


def _span_rec(
    edges: list[tuple[int, int, int]], n: int, chosen: tuple[int, ...], out: list[EdgeSubset]
) -> None:
    if n == 1:
        out.append(frozenset(chosen))
        return
    if len(edges) < n - 1:
        return
    u, v, eid = edges[0]
    # include: contract v into u, dropping the loops this creates
    contracted = []
    for a, b, i in edges[1:]:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            contracted.append((a2, b2, i))
    _span_rec(contracted, n - 1, chosen + (eid,), out)
    # exclude: viable only if the rest still spans
    rest = edges[1:]
    if _connected_labelled(rest, n):
        _span_rec(rest, n, chosen, out)


def peeled_modulus(g: MultiGraph) -> ModulusResult:
    """The modulus by top-down critical-set peeling, as the paper states it:
    each round finds the vulnerability and the largest critical set of the
    current subgraph with ``vulnerability``, assigns that value to the
    critical edges, and queues every component left by removing them."""
    m = g.edge_count
    peel_of = [-1] * m
    trace: list[PeelRecord] = []
    queue: deque[tuple[MultiGraph, tuple[int, ...], int]] = deque([(g, tuple(range(m)), -1)])
    while queue:
        sub, root_ids, parent = queue.popleft()
        found = vulnerability(sub)
        critical = tuple(sorted(root_ids[e] for e in found.critical))
        trace.append(PeelRecord(len(trace), parent, sub.vertex_count, sub.edge_count,
                                found.theta, critical))
        for e in critical:
            assert peel_of[e] == -1
            peel_of[e] = len(trace) - 1
        for comp in decompose_after_removal(sub, found.critical):
            if comp.parent_edge_ids:
                ids = tuple(root_ids[pe] for pe in comp.parent_edge_ids)
                queue.append((comp.graph, ids, len(trace) - 1))
    thetas = [rec.theta for rec in trace]
    modulus = 1 / sum(theta * theta * len(rec.critical_edges) for theta, rec in zip(thetas, trace))
    eta = tuple(thetas[k] for k in peel_of)
    return ModulusResult(eta, tuple(x * modulus for x in eta), modulus, tuple(trace))

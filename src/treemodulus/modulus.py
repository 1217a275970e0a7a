"""Spanning tree modulus by recursive critical-set peeling.

Each round finds the vulnerability and a critical set of the current
subgraph; the optimal edge-usage probability equals that value on the
critical edges.  Removing them splits the subgraph, and every nontrivial
component is processed the same way until all edges are assigned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation
from .graph import MultiGraph, decompose_after_removal
from .vulnerability import vulnerability


@dataclass(frozen=True)
class PeelRecord:
    index: int
    parent: int  # index of the peel that produced this subgraph, -1 for the root
    vertex_count: int
    edge_count: int
    theta: Fraction
    critical_edges: tuple[int, ...]  # ids in the root graph


@dataclass(frozen=True)
class ModulusResult:
    eta: tuple[Fraction, ...]  # optimal usage probability per edge
    rho: tuple[Fraction, ...]  # optimal density per edge
    modulus: Fraction
    trace: tuple[PeelRecord, ...]


def spanning_tree_modulus(g: MultiGraph) -> ModulusResult:
    """Optimal usage probabilities, optimal density and modulus of the
    spanning-tree family, all in exact rationals."""
    m = g.edge_count
    peel_of = [-1] * m  # index of the peel that assigned each edge
    trace: list[PeelRecord] = []
    queue: deque[tuple[MultiGraph, tuple[int, ...], int]] = deque()
    queue.append((g, tuple(range(m)), -1))
    while queue:
        sub, root_ids, parent_idx = queue.popleft()
        found = vulnerability(sub)  # rejects a disconnected or trivial root
        if len(trace) >= m:
            raise InvariantViolation("peeling did not terminate within |E| rounds")
        if parent_idx >= 0 and found.theta > trace[parent_idx].theta:
            raise InvariantViolation(
                f"component vulnerability {found.theta} exceeds parent {trace[parent_idx].theta}"
            )
        critical_root = tuple(sorted(root_ids[e] for e in found.critical))
        record = PeelRecord(
            index=len(trace),
            parent=parent_idx,
            vertex_count=sub.vertex_count,
            edge_count=sub.edge_count,
            theta=found.theta,
            critical_edges=critical_root,
        )
        trace.append(record)
        for root_eid in critical_root:
            if peel_of[root_eid] >= 0:
                raise InvariantViolation(f"edge {root_eid} assigned twice")
            peel_of[root_eid] = record.index
        for comp in decompose_after_removal(sub, found.critical):
            if not comp.parent_edge_ids:
                continue
            if not found.critical.isdisjoint(comp.parent_edge_ids):
                # a critical set never reaches inside a surviving component
                raise InvariantViolation("critical set intersects an induced component")
            child_root_ids = tuple(root_ids[pe] for pe in comp.parent_edge_ids)
            queue.append((comp.graph, child_root_ids, record.index))

    if -1 in peel_of:
        raise InvariantViolation("peeling finished with unassigned edges")
    # every edge of a peel holds that peel's value, so the sums run over peels
    total = sum(rec.theta * len(rec.critical_edges) for rec in trace)
    if total != g.vertex_count - 1:
        raise InvariantViolation(f"usage probabilities sum to {total}, not |V|-1")
    if any(not (0 < rec.theta <= 1) for rec in trace):
        raise InvariantViolation("usage probability outside (0, 1]")
    energy = sum(rec.theta * rec.theta * len(rec.critical_edges) for rec in trace)
    modulus = 1 / energy
    thetas = [rec.theta for rec in trace]
    density = {theta: theta * modulus for theta in set(thetas)}
    peel_rho = [density[theta] for theta in thetas]
    eta = tuple(thetas[k] for k in peel_of)
    rho = tuple(peel_rho[k] for k in peel_of)
    return ModulusResult(eta=eta, rho=rho, modulus=modulus, trace=tuple(trace))


def eta_histogram(result: ModulusResult) -> list[tuple[Fraction, int]]:
    """Distinct usage-probability values with multiplicities, largest first."""
    counts: dict[Fraction, int] = {}
    for value in result.eta:
        counts[value] = counts.get(value, 0) + 1
    return sorted(counts.items(), key=lambda kv: kv[0], reverse=True)

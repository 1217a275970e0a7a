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
from .graph import MultiGraph, decompose_after_removal, require_connected
from .vulnerability import vulnerability


@dataclass(frozen=True)
class PeelRecord:
    index: int
    parent: int  # index of the peel that produced this subgraph, -1 for the root
    vertex_count: int
    edge_count: int
    theta: Fraction
    critical_edges: tuple[int, ...]  # ids in the root graph
    used_fallback: bool


@dataclass(frozen=True)
class ModulusResult:
    eta: tuple[Fraction, ...]  # optimal usage probability per edge
    rho: tuple[Fraction, ...]  # optimal density per edge
    modulus: Fraction
    trace: tuple[PeelRecord, ...]


def spanning_tree_modulus(g: MultiGraph) -> ModulusResult:
    """Optimal usage probabilities, optimal density and modulus of the
    spanning-tree family, all in exact rationals."""
    require_connected(g, nontrivial=True)
    m = g.edge_count
    eta: list[Fraction | None] = [None] * m
    trace: list[PeelRecord] = []
    queue: deque[tuple[MultiGraph, tuple[int, ...], int]] = deque()
    queue.append((g, tuple(range(m)), -1))
    while queue:
        sub, root_ids, parent_idx = queue.popleft()
        if len(trace) >= m:
            raise InvariantViolation("peeling did not terminate within |E| rounds")
        found = vulnerability(sub)
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
            used_fallback=found.used_fallback,
        )
        trace.append(record)
        for root_eid in critical_root:
            if eta[root_eid] is not None:
                raise InvariantViolation(f"edge {root_eid} assigned twice")
            eta[root_eid] = found.theta
        decomposition = decompose_after_removal(sub, found.critical)
        for comp in decomposition.components:
            if comp.trivial:
                continue
            if comp.induced_edges & found.critical:
                # a critical set never reaches inside a surviving component
                raise InvariantViolation("critical set intersects an induced component")
            child_root_ids = tuple(root_ids[pe] for pe in comp.parent_edge_ids)
            queue.append((comp.graph, child_root_ids, record.index))

    if any(value is None for value in eta):
        raise InvariantViolation("peeling finished with unassigned edges")
    eta_final = tuple(eta)  # type: ignore[arg-type]
    total = sum(eta_final)
    if total != g.vertex_count - 1:
        raise InvariantViolation(f"usage probabilities sum to {total}, not |V|-1")
    if any(not (0 < value <= 1) for value in eta_final):
        raise InvariantViolation("usage probability outside (0, 1]")
    energy = sum(value * value for value in eta_final)
    modulus = 1 / energy
    rho = tuple(value * modulus for value in eta_final)
    return ModulusResult(eta=eta_final, rho=rho, modulus=modulus, trace=tuple(trace))


def eta_histogram(result: ModulusResult) -> list[tuple[Fraction, int]]:
    """Distinct usage-probability values with multiplicities, largest first."""
    counts: dict[Fraction, int] = {}
    for value in result.eta:
        counts[value] = counts.get(value, 0) + 1
    return sorted(counts.items(), key=lambda kv: kv[0], reverse=True)

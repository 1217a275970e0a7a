"""Spanning tree modulus by divide and conquer over rates.

The optimal edge-usage probabilities η are found first, all at once, by
a work stack of connected graphs.  Each is swept once at its own mean
rate r = (n - 1)/m (``vulnerability.rise``).  A test that cuts every
edge makes the graph a leaf: every η in it is r.  Otherwise its parts'
induced subgraphs, whose η all lie below r, and its quotient, whose η
all lie above r, go back on the stack.  A tree or a two-vertex bundle is
a leaf without a test, and the bridges, of rate 1, may be settled first.

The peel trace is then read off the levels, the distinct leaf rates:
each peel's critical set is its edges at its highest level, and removing
them splits it into the components peeled next, as in the paper's
recursive critical-set peeling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolation
from .graph import MultiGraph, bridges, decompose_after_removal, require_connected
from .vulnerability import rise


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
    require_connected(g, nontrivial=True)
    m = g.edge_count
    leaf_of = [-1] * m  # the leaf holding each edge
    leaf_rates: list[tuple[int, int]] = []  # each leaf's rate as (n - 1, m)

    def settle(ids: Sequence[int], p: int, q: int) -> None:
        for root_eid in ids:
            if leaf_of[root_eid] >= 0:
                raise InvariantViolation(f"edge {root_eid} assigned twice")
            leaf_of[root_eid] = len(leaf_rates)
        leaf_rates.append((p, q))

    # connected graphs still to split, each with the root id of each edge
    work: list[tuple[MultiGraph, Sequence[int]]] = [(g, range(m))]
    # a bridge lies in every spanning tree, so its rate is 1, and the pieces
    # left by removing every bridge have none; one search settles them when
    # a pendant vertex shows there are some, and the sweeps settle the rest
    cut = bridges(g) if any(len(at) == 1 for at in g.incidence) else ()
    if cut:
        settle(cut, 1, 1)
        work = [(c.graph, c.parent_edge_ids) for c in decompose_after_removal(g, cut)]
    while work:
        h, ids = work.pop()
        n_h, m_h = h.vertex_count, h.edge_count
        if m_h == 0:
            continue
        # a tree or a two-vertex bundle is uniformly dense without a test
        step = None if n_h == 2 or m_h == n_h - 1 else rise(h)
        if step is None:
            settle(ids, n_h - 1, m_h)
            continue
        sub, kept = step
        work.append((sub, [ids[e] for e in kept]))
        for comp in decompose_after_removal(h, kept):
            work.append((comp.graph, [ids[e] for e in comp.parent_edge_ids]))
    if -1 in leaf_of:
        raise InvariantViolation("splitting finished with unassigned edges")
    # sorting the distinct rates once hashes a Fraction per leaf, not per edge
    rates = [Fraction(p, q) for p, q in leaf_rates]
    levels = sorted(set(rates))
    rank = {rate: k for k, rate in enumerate(levels)}
    leaf_level = [rank[rate] for rate in rates]
    level_of = [leaf_level[k] for k in leaf_of]

    peel_of = [-1] * m  # index of the peel that assigned each edge
    trace: list[PeelRecord] = []
    queue: deque[tuple[MultiGraph, Sequence[int], int]] = deque()
    queue.append((g, range(m), -1))
    while queue:
        sub, root_ids, parent_idx = queue.popleft()
        top = max(level_of[e] for e in root_ids)
        theta = levels[top]
        critical = frozenset(i for i, e in enumerate(root_ids) if level_of[e] == top)
        comps = decompose_after_removal(sub, critical)
        # the critical set's ratio, theta_of_set(sub, critical), read off
        # the components it leaves
        if Fraction(len(comps) - 1, len(critical)) != theta:
            raise InvariantViolation(
                f"extracted set is not critical: theta({sorted(critical)}) != {theta}"
            )
        if theta < Fraction(sub.vertex_count - 1, sub.edge_count) or theta > 1:
            raise InvariantViolation(f"vulnerability {theta} outside its provable range")
        if parent_idx >= 0 and theta > trace[parent_idx].theta:
            raise InvariantViolation(
                f"component vulnerability {theta} exceeds parent {trace[parent_idx].theta}"
            )
        critical_root = tuple(sorted(root_ids[e] for e in critical))
        record = PeelRecord(
            index=len(trace),
            parent=parent_idx,
            vertex_count=sub.vertex_count,
            edge_count=sub.edge_count,
            theta=theta,
            critical_edges=critical_root,
        )
        trace.append(record)
        for root_eid in critical_root:
            if peel_of[root_eid] >= 0:
                raise InvariantViolation(f"edge {root_eid} assigned twice")
            peel_of[root_eid] = record.index
        for comp in comps:
            if not comp.parent_edge_ids:
                continue
            if not critical.isdisjoint(comp.parent_edge_ids):
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

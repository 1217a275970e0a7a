"""Cunningham's threshold test at a rate p/q, as a finest-partition sweep.

A greedy pass over the graphic polymatroid at rate p/q totals
min over edge sets J of p|J| + q r(E - J) (Edmonds' min-max; Cunningham,
"Optimal attack and reinforcement of a network", J. ACM 32, 1985).  A
minimizing J is the cut δ(P) of a vertex partition P whose parts stay
connected, so the total is min over P of q(n - |P|) + p|δ(P)|: half of
the sum over parts A of f(A) = p d(A) - 2q, plus qn, with d(A) the edges
leaving A.  That is the Dilworth truncation of f.

The optimal-cooperation sweep of Anglès d'Auriac, Iglói, Preissmann and
Sebő (J. Phys. A 35, 2002) minimizes it one vertex at a time over the
graph induced by the vertices seen so far: the optimum on the first k + 1
vertices merges vertex k with some parts of the optimum on the first k
and keeps every other part, and which parts is one min-cut on the graph
those parts contract to.  Taking the minimal source side at every step
keeps the finest optimum, whose cut is the largest minimizing J.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .flow import dinic
from .graph import EdgeSubset, MultiGraph


@dataclass(frozen=True)
class BasisResult:
    """Outcome of one threshold test at rate p/q.

    ``part`` labels each vertex with its part in the finest partition
    minimizing q(n - |P|) + p|cut|, a label being the id of one member of
    the part, and ``candidate`` is its cut: the largest edge set J that
    minimizes p|J| + q r(E - J).
    """

    candidate: EdgeSubset
    part: tuple[int, ...]


def cunningham_basis(g: MultiGraph, p: int, q: int) -> BasisResult:
    """The threshold test at rate p/q, with at most one min-cut per vertex.

    The sweep is defined on any multigraph, connected or not; callers that
    need a connected graph check it themselves.  Among the vertices swept
    so far, ``part[v]`` labels v's part, ``members[A]`` lists part A,
    ``links[A]`` counts the edges from A to each other part and
    ``degree[A]`` sums those counts.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    n = g.vertex_count
    edges = g.edges
    part = list(range(n))
    members = [[v] for v in range(n)]
    links: dict[int, dict[int, int]] = {}
    degree = [0] * n
    for k in range(n):
        to_k: dict[int, int] = {}
        for e in g.incidence[k]:
            a, b = edges[e]
            w = a + b - k
            if w < k:
                label = part[w]
                to_k[label] = to_k.get(label, 0) + 1
        merged = _merge_set(to_k, links, degree, p, q) if p * sum(to_k.values()) > q else []
        for other, count in to_k.items():
            degree[other] += count
        # contract k and the merged parts into the largest of them
        merged.append(k)
        label = max(merged, key=lambda old: len(members[old]))
        joined = to_k
        for old in merged:
            for other, count in links.pop(old, {}).items():
                joined[other] = joined.get(other, 0) + count
            if old != label:
                for v in members[old]:
                    part[v] = label
                members[label] += members[old]
        for old in merged:
            joined.pop(old, None)
        for other, count in joined.items():
            side = links[other]
            for old in merged:
                side.pop(old, None)
            side[label] = count
        links[label] = joined
        degree[label] = sum(joined.values())
    candidate = frozenset(e for e, (a, b) in enumerate(edges) if part[a] != part[b])
    return BasisResult(candidate=candidate, part=tuple(part))


def _merge_set(
    to_k: dict[int, int],
    links: dict[int, dict[int, int]],
    degree: Sequence[int],
    p: int,
    q: int,
) -> list[int]:
    """The parts that vertex k joins: the smallest set S of parts that
    minimizes 2q|S| - 2p(e(S, S) + e(S, k)), e(S, S) counting the edges
    between distinct parts of S; ``degree[A]`` is e(A, other parts).

    Adding a part A to any S changes that by at least 2q - 2p(e(A, other
    parts) + e(A, k)), so A never joins when this is not negative.  A
    piece of S tied neither to k nor to the rest of S adds at least 2q,
    since merging the piece alone would not have lowered the optimum over
    the vertices before k.  So the network holds only the parts that can
    join, as far as they reach from k through each other in the contracted
    graph.  It has k as node 0 and the sink as node 1, joins each pair of
    parts with capacity p times their edge count, and gives part A the one
    terminal value c_A = 2q - p(e(A, parts in the network) + 2e(A, k)), a
    sink arc when positive and -c_A as an arc from k when negative.  A
    source side {k} + S then cuts the quantity above plus a constant, so
    the minimal minimum cut is the smallest minimizing S.  Without an arc
    from k that cut is {k} alone, and no network is built.
    """
    source, sink = 0, 1
    node: dict[int, int] = {}  # a part's node, or -1 when it never joins
    order: list[int] = []  # the part at node i + 2
    terminal: list[int] = []  # c_A, in node order

    def enter(label: int) -> int:
        if p * (degree[label] + to_k.get(label, 0)) <= q:
            node[label] = -1
        else:
            node[label] = len(order) + 2
            order.append(label)
        return node[label]

    for label in to_k:
        enter(label)
    for label in order:  # breadth-first
        inner = 0
        for other, count in links[label].items():
            if (node.get(other) or enter(other)) > 0:  # no node is 0
                inner += count
        terminal.append(2 * q - p * (inner + 2 * to_k.get(label, 0)))
    if min(terminal, default=0) >= 0:
        return []
    to: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(len(order) + 2)]
    for i, label in enumerate(order, 2):
        for other, count in links[label].items():
            j = node[other]
            if j > i:  # one arc pair per pair of parts, p * count each way
                adj[i].append(len(to))
                adj[j].append(len(to) + 1)
                to += (j, i)
                cap += (p * count, p * count)
        c_i = terminal[i - 2]
        if c_i:
            u, v = (i, sink) if c_i > 0 else (source, i)
            adj[u].append(len(to))
            adj[v].append(len(to) + 1)
            to += (v, u)
            cap += (abs(c_i), 0)
    _value, level = dinic(len(adj), source, sink, to, adj, cap)
    return [label for i, label in enumerate(order, 2) if level[i] != -1]

"""Integer-capacity max-flow / min-cut kernel.

Uses Dinic's algorithm (level graph + blocking flow) on an arc structure
built by the caller.  Undirected edges are realised as a pair of
antiparallel arcs that share capacity; the caller stands in for an
infinite capacity with a value above the sum of all finite capacities,
which no finite cut can reach.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def dinic(
    node_count: int,
    source: int,
    sink: int,
    to: Sequence[int],
    adj: Sequence[Sequence[int]],
    cap: list[int],
) -> tuple[int, list[int]]:
    """Max flow on an arc structure where arc a and arc a^1 are reverses.

    ``cap`` holds residual capacities and is updated in place.  It may
    already carry a feasible flow; Dinic then augments from there, and the
    returned value is the flow added on top of it.  Returns that value and
    the final BFS levels (-1 marks nodes unreachable from the source in the
    residual network, i.e. the sink side of a minimum cut).  Every maximum
    flow leaves the same reachable set, the minimal minimum cut, so the
    levels' -1 pattern does not depend on the flow passed in.

    Each phase's BFS stops once the sink has a level: no other node at that
    level lies on a shortest path.  The last, failing BFS labels everything
    reachable.
    """
    n = node_count
    level = [-1] * n
    total_flow = 0
    while True:
        # BFS: label residual distance from the source
        for i in range(n):
            level[i] = -1
        level[source] = 0
        queue = deque([source])
        push = queue.append
        pop = queue.popleft
        while queue:
            v = pop()
            next_level = level[v] + 1
            for a in adj[v]:
                w = to[a]
                if cap[a] > 0 and level[w] == -1:
                    level[w] = next_level
                    push(w)
            if level[sink] != -1:
                break
        if level[sink] == -1:
            return total_flow, level

        # blocking flow: iterative DFS with current-arc pointers
        it = [0] * n
        path: list[int] = []
        v = source
        while True:
            if v == sink:
                bottleneck = cap[path[0]]
                for a in path:
                    residual = cap[a]
                    if residual < bottleneck:
                        bottleneck = residual
                total_flow += bottleneck
                retreat = -1
                for idx, a in enumerate(path):
                    cap[a] -= bottleneck
                    cap[a ^ 1] += bottleneck
                    if retreat < 0 and cap[a] == 0:
                        retreat = idx  # first saturated arc
                del path[retreat:]
                v = to[path[-1]] if path else source
                continue
            advanced = False
            adj_v = adj[v]
            deg = len(adj_v)
            iv = it[v]
            target = level[v] + 1
            while iv < deg:
                a = adj_v[iv]
                w = to[a]
                if cap[a] > 0 and level[w] == target:
                    it[v] = iv
                    path.append(a)
                    v = w
                    advanced = True
                    break
                iv += 1
            if not advanced:
                it[v] = iv
                if v == source:
                    break
                level[v] = -1  # dead end, prune
                last = path.pop()
                v = to[last ^ 1]
                it[v] += 1


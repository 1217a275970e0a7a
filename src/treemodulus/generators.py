"""Deterministic graph generators for the benchmark families.

Randomness comes from splitmix64, a fixed 64-bit generator, so a given
(family, parameters, seed) triple produces the same edge list on every
platform.  Random families reject disconnected samples and redraw from
the same stream, up to an attempt cap.
"""

from __future__ import annotations

import math

from .errors import GeneratorError
from .graph import MultiGraph

ATTEMPT_CAP = 200
PARALLEL_PROB = 0.25  # chance that an extra edge of random_connected_multigraph is parallel

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: x += 0x9E3779B97F4A7C15; z = x; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
    z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound


def complete_graph(n: int) -> MultiGraph:
    if n < 2:
        raise ValueError("need n >= 2")
    edges = tuple((a, b) for a in range(n) for b in range(a + 1, n))
    return MultiGraph(n, edges)


def multipartite_graph(k: int) -> MultiGraph:
    """Parts of sizes 1, 2, ..., k; consecutive parts completely joined."""
    if k < 2:
        raise ValueError("need k >= 2")
    starts = []
    total = 0
    for i in range(1, k + 1):
        starts.append(total)
        total += i
    edges = []
    for i in range(1, k):
        part_a = range(starts[i - 1], starts[i - 1] + i)
        part_b = range(starts[i], starts[i] + i + 1)
        for a in part_a:
            for b in part_b:
                edges.append((a, b))
    return MultiGraph(total, tuple(edges))


def gnp_graph(n: int, seed: int) -> MultiGraph:
    """Erdos-Renyi sample with edge probability 2*ln(n)/n, resampled until
    connected."""
    if n < 2:
        raise ValueError("need n >= 2")
    p = 2.0 * math.log(n) / n
    rng = SplitMix64(seed)
    for _ in range(ATTEMPT_CAP):
        edges = tuple(
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.uniform() < p
        )
        g = MultiGraph(n, edges)
        if g.is_connected():
            return g
    raise GeneratorError(
        f"no connected sample in {ATTEMPT_CAP} attempts; try a larger n"
    )


def geometric_graph(n: int, seed: int) -> MultiGraph:
    """Random geometric sample: n points uniform in the unit square, edges
    between pairs at Euclidean distance below 3/sqrt(n), resampled until
    connected."""
    if n < 2:
        raise ValueError("need n >= 2")
    radius_sq = 9.0 / n
    rng = SplitMix64(seed)
    for _ in range(ATTEMPT_CAP):
        points = [(rng.uniform(), rng.uniform()) for _ in range(n)]
        edges = []
        for a in range(n):
            xa, ya = points[a]
            for b in range(a + 1, n):
                xb, yb = points[b]
                if (xa - xb) ** 2 + (ya - yb) ** 2 < radius_sq:
                    edges.append((a, b))
        g = MultiGraph(n, tuple(edges))
        if g.is_connected():
            return g
    raise GeneratorError(
        f"no connected sample in {ATTEMPT_CAP} attempts; try a larger n or radius"
    )


def random_connected_multigraph(n: int, extra_edges: int, seed: int) -> MultiGraph:
    """Small connected multigraph: a random spanning tree plus extra edges,
    each of which duplicates an existing one with probability
    ``PARALLEL_PROB`` to exercise parallel handling."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = SplitMix64(seed)
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        edges.append((rng.below(v), v))
    for _ in range(extra_edges):
        if edges and rng.uniform() < PARALLEL_PROB:
            edges.append(edges[rng.below(len(edges))])
        else:
            a = rng.below(n)
            b = rng.below(n - 1)
            if b >= a:
                b += 1
            edges.append((a, b))
    return MultiGraph(n, tuple(edges))

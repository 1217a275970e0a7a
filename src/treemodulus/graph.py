"""Undirected multigraph with stable integer edge ids.

Edge ids are positions in the edge sequence and never change, so subsets
of edges are plain frozensets of ints.  Parallel edges are allowed,
self-loops are not (they are stripped at parse time).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DisconnectedGraphError, InvariantViolation, ParseError

EdgeSubset = frozenset[int]


@dataclass(frozen=True)
class MultiGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None  # original vertex labels, parse order

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        for eid, (a, b) in enumerate(self.edges):
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise ValueError(f"edge {eid} endpoint out of range: ({a}, {b})")
            if a == b:
                raise ValueError(f"edge {eid} is a self-loop at vertex {a}")
        if self.labels is not None and len(self.labels) != self.vertex_count:
            raise ValueError("labels length must equal vertex_count")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids incident to each vertex."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for eid, (a, b) in enumerate(self.edges):
            inc[a].append(eid)
            inc[b].append(eid)
        # a tuple of a list, not of a generator: CPython starts a tuple from a
        # generator at a guessed size and resizes it, so it is freed onto
        # another size's free list, which then grows with every graph built
        return tuple([tuple(v) for v in inc])

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def is_connected(self) -> bool:
        return self.vertex_count >= 1 and component_count(self, range(self.edge_count)) == 1

    def to_edge_list_text(self) -> str:
        lines = [f"{self.label_of(a)} {self.label_of(b)}" for a, b in self.edges]
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class Component:
    """One connected piece left after removing an edge set.

    ``vertices[i]`` is the parent vertex of local vertex i and
    ``parent_edge_ids[k]`` the parent id of local edge k.  The parent edges
    are all those with both endpoints inside the piece (the vertex-induced
    set), not only the edges that survived the removal.
    """

    vertices: tuple[int, ...]
    graph: MultiGraph
    parent_edge_ids: tuple[int, ...]


def parse_edge_list(text: str | bytes) -> tuple[MultiGraph, list[str]]:
    """Parse edge-list text: one edge per line, two whitespace-separated
    vertex labels, ``#`` starts a comment.

    Vertices are densely renumbered in order of first appearance.
    Self-loops are dropped (with a warning); duplicate lines become
    parallel edges.  Bytes must be UTF-8.  Returns (graph, warnings).
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(text.count(b"\n", 0, err.start) + 1, "not valid UTF-8") from None
    index: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int]] = []
    warnings: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected 2 vertex labels, got {len(tokens)}")
        a_lab, b_lab = tokens
        if a_lab == b_lab:
            warnings.append(f"line {lineno}: dropped self-loop at '{a_lab}'")
            continue
        ids = []
        for lab in (a_lab, b_lab):
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
            ids.append(index[lab])
        edges.append((ids[0], ids[1]))
    g = MultiGraph(len(labels), tuple(edges), tuple(labels))
    return g, warnings


class _DisjointSet:
    __slots__ = ("parent", "count")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.count -= 1
        return True


def component_count(g: MultiGraph, active: Iterable[int]) -> int:
    """Number of connected components of (V, active); isolated vertices count."""
    dsu = _DisjointSet(g.vertex_count)
    for eid in active:
        a, b = g.edges[eid]
        dsu.union(a, b)
    return dsu.count


def require_connected(g: MultiGraph, nontrivial: bool = False) -> None:
    if not g.is_connected():
        raise DisconnectedGraphError(
            f"graph with {g.vertex_count} vertices, {g.edge_count} edges is not connected"
        )
    if nontrivial and g.vertex_count < 2:
        raise DisconnectedGraphError("graph is trivial (fewer than 2 vertices)")


def theta_of_set(g: MultiGraph, subset: Iterable[int]) -> Fraction:
    """Vulnerability of an edge subset: min tree overlap over subset size (0
    for empty).  ``g`` must be connected, which the caller checks; the min
    overlap is then the component count after deleting the subset, less one."""
    subset = frozenset(subset)
    if not subset:
        return Fraction(0)
    rest = (e for e in range(g.edge_count) if e not in subset)
    return Fraction(component_count(g, rest) - 1, len(subset))


def decompose_after_removal(g: MultiGraph, removed: Iterable[int]) -> tuple[Component, ...]:
    """Connected components left after deleting ``removed``.

    Each component carries its vertex-induced edge set from the parent and
    an unlabelled sub-multigraph on locally renumbered vertices.  Components
    are ordered by smallest member vertex; a lone vertex has no parent edges.
    """
    removed = frozenset(removed)
    dsu = _DisjointSet(g.vertex_count)
    for eid, (a, b) in enumerate(g.edges):
        if eid not in removed:
            dsu.union(a, b)
    root_of = [dsu.find(v) for v in range(g.vertex_count)]
    # root -> (vertices, local edges, parent edge ids), all filled in id order
    parts: dict[int, tuple[list[int], list[tuple[int, int]], list[int]]] = {}
    local = []
    for v, root in enumerate(root_of):
        vs = parts.setdefault(root, ([], [], []))[0]
        local.append(len(vs))
        vs.append(v)
    for eid, (a, b) in enumerate(g.edges):
        if root_of[a] == root_of[b]:
            _vs, sub_edges, parent_ids = parts[root_of[a]]
            sub_edges.append((local[a], local[b]))
            parent_ids.append(eid)
    # a tuple of a list, as in MultiGraph.incidence: a tuple started from a
    # generator is resized and freed onto another size's free list
    return tuple([
        Component(tuple(vs), MultiGraph(len(vs), tuple(es)), tuple(ids))
        for vs, es, ids in parts.values()
    ])


def quotient(
    g: MultiGraph, pieces: Sequence[Component], cut: Iterable[int]
) -> tuple[MultiGraph, tuple[int, ...]]:
    """The graph with each piece made one vertex, in piece order.

    ``pieces`` are what ``decompose_after_removal(g, cut)`` leaves.  The
    quotient's edges are ``cut``, in id order, and each must join two
    pieces.  Returns the quotient and the id in ``g`` of each of its edges.
    """
    piece_of = {v: index for index, piece in enumerate(pieces) for v in piece.vertices}
    ids = tuple(sorted(cut))
    edges = tuple([(piece_of[a], piece_of[b]) for a, b in (g.edges[e] for e in ids)])
    for e, (a, b) in zip(ids, edges):
        if a == b:
            raise InvariantViolation(f"cut edge {e} lies inside one piece")
    return MultiGraph(len(pieces), edges), ids


def bridges(g: MultiGraph) -> EdgeSubset:
    """Edges whose removal disconnects their component.

    A parallel pair is never a bridge: the DFS skips only the single arc it
    entered on, so the twin edge acts as a back edge.
    """
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    out: list[int] = []
    timer = 0
    for start in range(n):
        if disc[start] != -1:
            continue
        # stack entries: (vertex, incoming edge id, iterator over incident edges)
        disc[start] = low[start] = timer
        timer += 1
        stack: list[tuple[int, int, Iterator[int]]] = [(start, -1, iter(g.incidence[start]))]
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for eid in it:
                if eid == in_edge:
                    continue
                a, b = g.edges[eid]
                w = b if a == v else a
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(g.incidence[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        out.append(in_edge)
        # loop continues with remaining stack frames
    return frozenset(out)

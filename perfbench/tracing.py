"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces the functions one layer calls in the next
(module attributes, looked up at call time) with wrappers that record a
span per call; ``Tracer.remove`` puts the originals back.  Spans live in
memory as [name, start, end, parent, graph] and are written out once, at
the end of the traced run.
"""

from __future__ import annotations

import sys
from time import perf_counter

ROOT_SPAN = "modulus.spanning_tree_modulus"

# (module holding the name, name looked up there, span name)
HOOKS = (
    ("treemodulus.modulus", "vulnerability", "modulus.vulnerability"),
    ("treemodulus.modulus", "decompose_after_removal", "modulus.decompose_after_removal"),
    ("treemodulus.vulnerability", "cunningham_basis", "vulnerability.cunningham_basis"),
    ("treemodulus.vulnerability", "bridges", "vulnerability.bridges"),
    ("treemodulus.vulnerability", "theta_of_set", "vulnerability.theta_of_set"),
    ("treemodulus.polymatroid", "dinic", "polymatroid.dinic"),
)


def _dinic_network(args):
    """Read (nodes, arcs, q, x_total) from a dinic call before it runs.

    Relies on the auxiliary network layout of polymatroid._SubproblemSolver:
    flow edges [0, m) carry x'(e), [m, m+n) join the source to each vertex
    (the endpoints of j at the "infinite" value 3 x'(E) + 2qn + 1), and
    [m+n, m+2n) join the sink to each vertex at 2q; flow edge i owns arcs
    2i and 2i+1.  Returns q = None when the layout does not match.
    """
    node_count, _source, _sink, to, _adj, cap = args[:6]
    n = node_count - 2
    m = len(to) // 2 - 2 * n
    q = x_total = None
    if n > 0 and m > 0 and len(cap) == len(to):
        two_q = cap[2 * (m + n)]
        total = sum(cap[0 : 2 * m : 2])
        infinite = 3 * total + two_q * n + 1
        if two_q % 2 == 0 and cap[2 * m : 2 * (m + n) : 2].count(infinite) == 2:
            q, x_total = two_q // 2, total
    return node_count, len(to), q, x_total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.graph = -1
        self.flow: dict[int, tuple[int, int, bool | None]] = {}  # span -> nodes, arcs, zero
        self.fallbacks = 0
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.graph]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn):
        call = self.call
        if name == "polymatroid.dinic":
            def wrapper(*args, **kwargs):
                idx = len(self.spans)
                nodes, arcs, q, x_total = _dinic_network(args)
                value, level = call(name, fn, *args, **kwargs)
                zero = None if q is None else value // 2 - x_total - q == 0
                self.flow[idx] = (nodes, arcs, zero)
                return value, level
        elif name == "modulus.vulnerability":
            def wrapper(*args, **kwargs):
                found = call(name, fn, *args, **kwargs)
                self.fallbacks += bool(found.used_fallback)
                return found
        else:
            def wrapper(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        for module_name, attr, span_name in HOOKS:
            module = sys.modules.get(module_name)
            if module is None or not callable(getattr(module, attr, None)):
                self.missing.append(span_name)
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def counts(self) -> dict[str, int]:
        """Work counts, which repeat exactly for a given list of graphs."""
        names = [s[0] for s in self.spans]
        flow = list(self.flow.values())
        return {
            "graphs": names.count(ROOT_SPAN),
            "peels": names.count("modulus.vulnerability"),
            "passes": names.count("vulnerability.cunningham_basis"),
            "mincuts": names.count("polymatroid.dinic"),
            "nodes": sum(f[0] for f in flow),
            "arcs": sum(f[1] for f in flow),
            "zero_increments": sum(f[2] is True for f in flow),
            "undecoded_mincuts": sum(f[2] is None for f in flow),
            "fallbacks": self.fallbacks,
        }

    def times(self) -> dict[str, float]:
        """Busy and self seconds per span name, plus the root-peel search time.

        Self time is a span's duration minus the time its child spans
        cover; children of one span run one after another, never
        overlapping, so that is the sum of their durations.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _graph in spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        root_peel = 0.0
        for i, (name, start, end, parent, _graph) in enumerate(spans):
            busy[name] = busy.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + end - start - child[i]
            # spans are stored in start order, so a root's first child follows it
            if name == "modulus.vulnerability" and parent == i - 1 and spans[parent][0] == ROOT_SPAN:
                root_peel += end - start
        times = {f"busy:{k}": v for k, v in busy.items()}
        times.update({f"self:{k}": v for k, v in own.items()})
        times["root_peel"] = root_peel
        return times


def layer_metrics(counts: dict[str, int], times: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""

    def ratio(a, b):
        return a / b if b else 0.0

    def t(key):
        return times.get(key, 0.0)

    mincuts = counts["mincuts"]
    decoded = mincuts - counts["undecoded_mincuts"]
    return {
        "flow.mincuts": (mincuts, "count"),
        "flow.busy_s": (t("busy:polymatroid.dinic"), "s"),
        "flow.s_per_mincut": (ratio(t("busy:polymatroid.dinic"), mincuts), "s"),
        "flow.nodes_per_mincut": (ratio(counts["nodes"], mincuts), "count"),
        "flow.arcs_per_mincut": (ratio(counts["arcs"], mincuts), "count"),
        "polymatroid.passes": (counts["passes"], "count"),
        "polymatroid.mincuts_per_pass": (ratio(mincuts, counts["passes"]), "count"),
        "polymatroid.self_s": (t("self:vulnerability.cunningham_basis"), "s"),
        "polymatroid.zero_increment_share": (ratio(counts["zero_increments"], decoded), "share"),
        "vulnerability.passes_per_peel": (ratio(counts["passes"], counts["peels"]), "count"),
        "vulnerability.root_s": (t("root_peel"), "s"),
        "vulnerability.self_s": (t("self:modulus.vulnerability"), "s"),
        "vulnerability.fallbacks": (counts["fallbacks"], "count"),
        "graph.bridges_s": (t("busy:vulnerability.bridges"), "s"),
        "graph.extract_check_s": (t("busy:vulnerability.theta_of_set"), "s"),
        "graph.decompose_s": (t("busy:modulus.decompose_after_removal"), "s"),
        "modulus.peels": (counts["peels"], "count"),
        "modulus.self_s": (t(f"self:{ROOT_SPAN}"), "s"),
    }

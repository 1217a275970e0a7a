"""Seeded workloads for the spanning-tree-modulus benchmark.

Each workload is a list of graphs built only from the seed.  ``setup``
imports the package afresh and builds the list, which is the set-up cost
a user pays before the first solve.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
KARATE = ROOT / "tests" / "fixtures" / "karate.edges"
CORPUS = ROOT / "tests" / "fixtures" / "small_corpus.json"

DEFAULT_SEED = 20260809

# batch-small follows the recipe of scripts/make_corpus.py without running
# it (the script rewrites the committed fixture): the same fixed families,
# then random graphs drawn from one splitmix64 stream.  At DEFAULT_SEED the
# first 214 graphs are the committed corpus.  The list is long enough that
# a 30 s run on a 2-core 2.1 GHz Xeon does not wrap around.
SMALL_MAX_VERTICES = 8
SMALL_MAX_EDGES = 14
SMALL_COUNT = 18000

# multilevel: karate (bridged root, five peels), then random connected
# multigraphs whose roots mostly carry a bridge and that peel 4-6 times.
MULTILEVEL_VERTICES = 30
MULTILEVEL_EXTRA_EDGES = 45
MULTILEVEL_COUNT = 200

# dense-geometric: random geometric graphs with |E|/|V| about 6, where
# min-cuts on the largest networks of the three workloads dominate.
GEOMETRIC_VERTICES = 16
GEOMETRIC_COUNT = 300

WORKLOADS = ("batch-small", "multilevel", "dense-geometric")


def _batch_small(tm, seed: int) -> list:
    gen = tm.generators
    MultiGraph = tm.MultiGraph
    graphs = []
    for n in range(3, SMALL_MAX_VERTICES + 1):
        graphs.append(MultiGraph(n, tuple((i, (i + 1) % n) for i in range(n))))
    for n in range(3, SMALL_MAX_VERTICES + 1):
        g = gen.complete_graph(n)
        if g.edge_count <= SMALL_MAX_EDGES:
            graphs.append(g)
    for k in range(2, 5):
        g = gen.multipartite_graph(k)
        if g.vertex_count <= SMALL_MAX_VERTICES and g.edge_count <= SMALL_MAX_EDGES:
            graphs.append(g)
    for k in range(2, 5):
        graphs.append(MultiGraph(2, tuple((0, 1) for _ in range(k))))
    rng = gen.SplitMix64(seed)
    while len(graphs) < SMALL_COUNT:
        n = 3 + rng.below(SMALL_MAX_VERTICES - 2)
        extra = rng.below(SMALL_MAX_EDGES - (n - 1) + 1)
        g = gen.random_connected_multigraph(n, extra, rng.next_u64())
        if g.edge_count <= SMALL_MAX_EDGES:
            graphs.append(g)
    return graphs


def _multilevel(tm, seed: int) -> list:
    karate, _warnings = tm.parse_edge_list(KARATE.read_text())
    rng = tm.generators.SplitMix64(seed)
    return [karate] + [
        tm.generators.random_connected_multigraph(
            MULTILEVEL_VERTICES, MULTILEVEL_EXTRA_EDGES, rng.next_u64()
        )
        for _ in range(MULTILEVEL_COUNT - 1)
    ]


def _dense_geometric(tm, seed: int) -> list:
    rng = tm.generators.SplitMix64(seed)
    return [
        tm.generators.geometric_graph(GEOMETRIC_VERTICES, rng.next_u64())
        for _ in range(GEOMETRIC_COUNT)
    ]


_BUILDERS = {
    "batch-small": _batch_small,
    "multilevel": _multilevel,
    "dense-geometric": _dense_geometric,
}


def require_sources() -> None:
    """Fail with a message when the checkout lacks what the benchmark solves."""
    for needed in (SRC / "treemodulus" / "__init__.py", KARATE):
        if not needed.is_file():
            raise FileNotFoundError(f"benchmark needs {needed.relative_to(ROOT)}")


def fresh_import():
    """Import treemodulus from the checkout's sources, dropping any earlier copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "treemodulus" or m.startswith("treemodulus.")]:
        del sys.modules[name]
    tm = importlib.import_module("treemodulus")
    importlib.import_module("treemodulus.generators")
    return tm


def build(workload: str, seed: int):
    """Import the package and build the workload's graphs: one set-up."""
    tm = fresh_import()
    return tm, _BUILDERS[workload](tm, seed)


def eta_digest(eta) -> str:
    """Short digest of an exact usage-probability vector."""
    text = ",".join(f"{x.numerator}/{x.denominator}" for x in eta)
    return hashlib.sha256(text.encode()).hexdigest()[:16]

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from treemodulus.graph import MultiGraph, decompose_after_removal, parse_edge_list

FIXTURES = Path(__file__).parent / "fixtures"


def graph_from_pairs(n, pairs):
    return MultiGraph(n, tuple(tuple(e) for e in pairs))


def basis_total(g, cut, p, q):
    """What a threshold test's cut totals, min over J of p|J| + q r(E - J):
    q(n - |P|) + p|cut| for its finest partition P, the pieces the cut leaves."""
    return q * (g.vertex_count - len(decompose_after_removal(g, cut))) + p * len(cut)


@pytest.fixture
def triangle():
    return graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k4():
    return graph_from_pairs(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


@pytest.fixture
def bridge_triangles():
    # two triangles joined by one bridge (edge id 3)
    return graph_from_pairs(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])


@pytest.fixture
def path4():
    return graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture(scope="session")
def karate():
    g, warnings = parse_edge_list((FIXTURES / "karate.edges").read_bytes())
    assert not warnings
    return g


@pytest.fixture(scope="session")
def corpus():
    payload = json.loads((FIXTURES / "small_corpus.json").read_text())
    return [
        (entry["name"], graph_from_pairs(entry["vertices"], entry["edges"]))
        for entry in payload["graphs"]
    ]


@st.composite
def connected_multigraphs(draw, max_vertices=7, max_extra=5):
    """Random connected multigraph: a spanning tree plus extra edges
    (which may duplicate existing pairs)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = []
    for v in range(1, n):
        edges.append((draw(st.integers(min_value=0, max_value=v - 1)), v))
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda ab: ab[0] != ab[1]),
            max_size=max_extra,
        )
    )
    edges.extend(extras)
    return MultiGraph(n, tuple(edges))


def frac(p, q=1):
    return Fraction(p, q)

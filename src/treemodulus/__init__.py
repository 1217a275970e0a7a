"""Exact-arithmetic graph vulnerability and spanning tree modulus."""

from .errors import (
    DisconnectedGraphError,
    GeneratorError,
    GraphError,
    InvariantViolation,
    ParseError,
    SizeGuardExceeded,
)
from .graph import MultiGraph, parse_edge_list
from .modulus import ModulusResult, PeelRecord, eta_histogram, spanning_tree_modulus
from .oracle import verify_modulus
from .vulnerability import CriticalSetResult, vulnerability

__all__ = [
    "CriticalSetResult",
    "DisconnectedGraphError",
    "GeneratorError",
    "GraphError",
    "InvariantViolation",
    "ModulusResult",
    "MultiGraph",
    "ParseError",
    "PeelRecord",
    "SizeGuardExceeded",
    "eta_histogram",
    "parse_edge_list",
    "spanning_tree_modulus",
    "verify_modulus",
    "vulnerability",
]

__version__ = "0.1.0"

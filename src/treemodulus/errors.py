"""Exception types shared across the package.

Each maps to a distinct CLI exit code, see cli.py.
"""


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GraphError):
    """Malformed edge-list input."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DisconnectedGraphError(GraphError):
    """Operation requires a connected, nontrivial graph."""


class SizeGuardExceeded(GraphError):
    """A brute-force routine refused an input that is too large."""


class InvariantViolation(GraphError):
    """An internal exact-arithmetic invariant failed; indicates a bug."""


class GeneratorError(GraphError):
    """A random-graph generator could not satisfy its constraints."""

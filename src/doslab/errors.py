"""Exception types shared across the package."""
from __future__ import annotations


class BudgetExceeded(RuntimeError):
    """An enumeration or allocation would exceed its budget.

    The point budget is the process-wide ``DOSLAB_BUDGET`` (see
    :mod:`doslab.budget`); a dense eigensolve of one operator block also
    has an entry ceiling, charged just before its n x n arrays are
    allocated.  Raised before the oversized allocation; nothing is silently
    truncated, and no partial result is carried.
    """

    def __init__(self, message: str, requested: int | None = None,
                 allowed: int | None = None):
        super().__init__(message)
        self.requested = requested
        self.allowed = allowed


class GraphParseError(ValueError):
    """Malformed edge-list input; ``line_number`` is 1-based."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ConfigError(ValueError):
    """Configuration rejected before any computation.

    ``path`` is a dotted field path into the offending config entry,
    e.g. ``"hamiltonian.potential.kind"``.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class PreconditionFailed(RuntimeError):
    """A documented precondition of an operation does not hold."""


class NotEstablished(RuntimeError):
    """A numerical limit the caller relies on did not stabilise."""

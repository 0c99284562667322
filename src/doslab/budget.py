"""The process-wide point budget and the dense entry ceiling.

Every operation that materialises lattice points, graph nodes or group
elements charges its total before allocating.  The limit is one number
for the whole process: ``DOSLAB_BUDGET`` when set (the CLI's ``--budget``
writes it), 50 M points otherwise.  A dense n x n array is charged against
its own entry ceiling (``charge_entries``) where it is allocated.
"""
from __future__ import annotations

import os

from .errors import BudgetExceeded, ConfigError

DEFAULT_POINT_BUDGET = 50_000_000
ENV_VAR = "DOSLAB_BUDGET"

# Dense arrays have their own ceiling (entries, not points): one block can
# legitimately hold ~1e8 float64 entries while the point budget guards much
# larger enumerations.
DEFAULT_ENTRY_BUDGET = 250_000_000


def point_budget() -> int:
    """The active point budget: ``DOSLAB_BUDGET`` if set, else the default."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_POINT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"not an integer: {raw!r}", ENV_VAR) from None
    if value <= 0:
        raise ConfigError("budget must be positive", ENV_VAR)
    return value


def charge(count: int, what: str) -> None:
    """Raise ``BudgetExceeded`` if ``count`` points would overrun the budget."""
    budget = point_budget()
    if count > budget:
        raise BudgetExceeded(
            f"{what} needs {count} points, budget is {budget}",
            requested=int(count), allowed=int(budget))


def charge_entries(count: int, what: str) -> None:
    """Raise ``BudgetExceeded`` if ``count`` dense entries would overrun
    ``DEFAULT_ENTRY_BUDGET``."""
    if count > DEFAULT_ENTRY_BUDGET:
        raise BudgetExceeded(f"{what} needs {count} entries, entry budget is "
                             f"{DEFAULT_ENTRY_BUDGET}", requested=int(count),
                             allowed=DEFAULT_ENTRY_BUDGET)

"""Shared error types and resource-guard defaults.

Every guard is explicit: exceeding one raises :class:`GuardError` instead of
silently approximating, and verification drivers convert guard hits into
first-class "skipped" outcomes so reports stay honest about coverage. The
Hochster and Taylor budgets are all tested by the one helper
:func:`check_guard`.
"""

from __future__ import annotations

import os

# Maximum number of ring variables for a Hochster-style subset sweep.
DEFAULT_HOCHSTER_GUARD = 18
# Maximum number of generators for the Taylor-complex Betti oracle.
DEFAULT_TAYLOR_GUARD = 12
# Maximum number of vertices for exhaustive labeled-graph enumeration.
DEFAULT_ENUM_GUARD = 7

# Truthy values of this environment variable permit the CLI to raise guards
# above the defaults; lowering them never needs permission.
GUARD_OVERRIDE_ENV = "COVERDEPTH_GUARD_OVERRIDE"


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class ParseError(ToolkitError):
    """A graph/ideal/report file or literal could not be parsed."""


class InputError(ToolkitError):
    """An operation precondition was violated (bad mathematical input)."""


class GuardError(ToolkitError):
    """A computation would exceed a configured resource guard."""


class ConsistencyError(ToolkitError):
    """Two independent computation routes disagreed: an internal bug."""


def guard_override_enabled() -> bool:
    """Whether the guard-override environment variable of this process is
    truthy."""
    value = os.environ.get(GUARD_OVERRIDE_ENV, "").strip().lower()
    return value in {"1", "true", "yes", "on"}


def check_guard(cost: int, limit: int | None, default: int, message: str) -> None:
    """Raise :class:`GuardError` with `message` formatted on `cost` and the
    budget in force (`limit`, or `default` when None) when `cost` exceeds
    that budget."""
    limit = default if limit is None else limit
    if cost > limit:
        raise GuardError(message.format(cost=cost, limit=limit))

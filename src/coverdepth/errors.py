"""Shared error types, resource-guard defaults and the base of the value
classes (:class:`Frozen`).

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


class Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in `_fields`, in constructor order, and its
    `__init__` sets them with `object.__setattr__`. Equality (against the
    same class only), hashing and the `Name(field=value, ...)` repr read
    `_fields` alone, so other attributes set the same way (`Graph.adj`) stay
    out of them. Instances keep their `__dict__`, which pickle restores
    without calling `__setattr__`. Not a dataclass: importing `dataclasses`
    loads `inspect` and about 15 ms of modules into every process."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        d = self.__dict__
        args = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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

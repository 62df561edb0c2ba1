"""Runtime binding of ``?`` placeholders.

A prepared statement's compiled closures and cached physical plan are
shared across executions and threads, so parameter *values* can never
live on the plan itself. Instead each execution binds its values into a
:class:`contextvars.ContextVar` for exactly the duration of the
statement (:func:`bind` … :func:`unbind`), and everything compiled from a
:class:`~repro.sql.ast_nodes.Parameter` node resolves through
:func:`resolve` when it actually runs. Context variables are
per-thread (and per-async-task), so two sessions executing the same
cached plan concurrently each see their own values.

The planner uses :class:`ParamMarker` as a plan-time stand-in wherever
a parameter is sargable — e.g. the key of a point lookup — and the scan
operators resolve the marker at ``batches()`` time, inside the
execution's binding scope.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Any

from repro.errors import ExecutionError

_ACTIVE: ContextVar[tuple | None] = ContextVar("sql_params", default=None)


class ParamMarker:
    """Plan-time placeholder for a parameter absorbed into an access path."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"?{self.index + 1}"


def resolve(index: int) -> Any:
    """The value bound for placeholder ``index`` in this execution."""
    values = _ACTIVE.get()
    if values is None or index >= len(values):
        raise ExecutionError(
            f"statement references parameter ?{index + 1} but only "
            f"{0 if values is None else len(values)} value(s) are bound — "
            "execute it through a prepared statement with params"
        )
    return values[index]


def bound_values() -> tuple:
    """Every value bound for this execution (empty when none are)."""
    return _ACTIVE.get() or ()


def resolve_maybe(value: Any) -> Any:
    """Pass literals through; resolve :class:`ParamMarker` stand-ins."""
    if isinstance(value, ParamMarker):
        return resolve(value.index)
    return value


#: ``token = bind(values_tuple)`` makes the values active until
#: ``unbind(token)``; the ContextVar's own methods, so no Python frame
bind, unbind = _ACTIVE.set, _ACTIVE.reset

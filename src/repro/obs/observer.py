"""The observer: one bundle of tracer + metrics + decision log.

An :class:`Observer` is what the rest of the code base talks to.  It is
installed *ambiently* — :func:`install` makes it the process-wide active
observer and :func:`active` retrieves it.  An observer is never absent:
with nothing installed, :func:`active` returns one quiet default
(``Observer(spans=False, decisions=False)``) whose tracer hands out the
shared no-op span and whose counters are live but unread.  Instrumented
code therefore calls ``obs.span(...)`` and ``obs.metrics.inc(...)``
unconditionally; only building a decision event is guarded, by
``obs.decisions.enabled``.

:func:`observing` is the ergonomic front door::

    with observing(jsonl_path="out.jsonl") as obs:
        compile_and_measure("sieve", replication="jumps")
    # out.jsonl now holds spans, metrics and the decision log

Observers are process-local.  A cell records into the observer of the
process that runs it; a worker process of the parallel execution layer
installs one per cell and ships its :meth:`Observer.snapshot` back
beside the result, and the parent folds it in with
:meth:`Observer.merge_snapshot`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List, Optional, Union

from .decisions import DecisionLog
from .metrics import MetricsRegistry
from .sink import write_events
from .tracer import Tracer

__all__ = [
    "Observer",
    "install",
    "deactivate",
    "active",
    "observing",
]

class Observer:
    """Tracer + metrics + replication decision log, as one unit."""

    def __init__(self, spans: bool = True, decisions: bool = True) -> None:
        self.tracer = Tracer(enabled=spans)
        self.metrics = MetricsRegistry()
        self.decisions = DecisionLog(enabled=decisions)

    # Convenience pass-throughs so call sites read naturally.

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    # --- export / merge -------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything collected so far, as plain pickle/JSON-safe data."""
        return {
            "spans": self.tracer.as_dicts(),
            "metrics": self.metrics.snapshot(),
            "decisions": self.decisions.as_dicts(),
        }

    def merge_snapshot(self, snap: Optional[dict]) -> None:
        """Fold a worker's :meth:`snapshot` into this observer."""
        if not snap:
            return
        self.tracer.merge_dicts(snap.get("spans"))
        self.metrics.merge_snapshot(snap.get("metrics"))
        self.decisions.merge_dicts(snap.get("decisions"))

    def events(self) -> List[dict]:
        """The collected data as a flat JSONL-ready event list."""
        rows: List[dict] = [
            {"event": "span", **span} for span in self.tracer.as_dicts()
        ]
        rows.extend(
            {"event": "replication.decision", **decision}
            for decision in self.decisions.as_dicts()
        )
        if not self.metrics.is_empty():
            rows.append({"event": "metrics", "data": self.metrics.snapshot()})
        return rows

    def write_jsonl(
        self, destination: Union[str, os.PathLike], label: str = ""
    ) -> int:
        """Write the trace as JSONL; returns the number of events."""
        return write_events(destination, self.events(), label=label)


# --- ambient installation ------------------------------------------------------

#: What :func:`active` returns with nothing installed: no spans, no
#: decisions, counters nobody reads.
_DEFAULT = Observer(spans=False, decisions=False)
_ACTIVE: Observer = _DEFAULT


def install(observer: Observer) -> Observer:
    """Make ``observer`` the process-wide active observer."""
    global _ACTIVE
    _ACTIVE = observer
    return observer


def deactivate() -> Observer:
    """Restore the quiet default; returns what was installed."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, _DEFAULT
    return previous


def active() -> Observer:
    """The installed observer, or the quiet default — never ``None``."""
    return _ACTIVE


@contextmanager
def observing(
    jsonl_path: Optional[Union[str, os.PathLike]] = None,
    spans: bool = True,
    decisions: bool = True,
    label: str = "",
) -> Iterator[Observer]:
    """Install a fresh observer for the duration of the block.

    The previously active observer is restored on exit, and the
    trace is written to ``jsonl_path`` when given — also on exceptions,
    so a crashed run still leaves its trace behind.
    """
    global _ACTIVE
    previous = _ACTIVE
    observer = Observer(spans=spans, decisions=decisions)
    _ACTIVE = observer
    try:
        yield observer
    finally:
        _ACTIVE = previous
        if jsonl_path is not None:
            observer.write_jsonl(jsonl_path, label=label)

"""The zero-dependency span tracer.

A :class:`Span` is one timed region of work — a front-end phase, an
optimizer pass, one of the six JUMPS steps — with a name, monotonic
start/duration, free-form attributes and a parent, so spans nest into a
tree.  A :class:`Tracer` hands out spans as context managers::

    tracer = Tracer()
    with tracer.span("opt.function", function="main"):
        with tracer.span("opt.dead_code") as span:
            ...
            span.set(changed=True)

Completed spans are plain dataclasses of ints/floats/strings/dicts, so a
whole trace travels unharmed through ``pickle`` (the parallel execution
layer ships worker traces back beside each result) and serializes to
JSON without custom encoders.

A disabled tracer (``Tracer(enabled=False)``) hands out a shared no-op
span, records nothing and drops merged worker spans.  The quiet default
observer (:func:`repro.obs.active` with nothing installed) carries one,
so every instrumented region opens ``obs.span(...)`` unconditionally and
pays only for that no-op enter and exit when spans are off.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "NULL_SPAN"]


@dataclass
class Span:
    """One completed (or in-flight) timed region."""

    #: Dotted region name, e.g. ``"opt.dead_code"`` or ``"jumps.step3"``.
    name: str
    #: Span id, unique within one tracer.
    span_id: int
    #: Id of the enclosing span, or ``None`` for a root span.
    parent_id: Optional[int]
    #: Seconds since the tracer's epoch (monotonic clock).
    start: float
    #: Wall seconds; filled in when the span closes.
    duration: float = 0.0
    #: Free-form attributes (JSON-safe values only, by convention).
    attrs: Dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> dict:
        return asdict(self)


class _NullSpan:
    """Shared no-op stand-in handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context-manager wrapper closing a :class:`Span` on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._span)

    def set(self, **attrs: Any) -> Span:
        return self._span.set(**attrs)


class Tracer:
    """Collects nested spans against one monotonic epoch."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.epoch = perf_counter()
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0

    def span(self, name: str, **attrs: Any):
        """Open a nested span; use as a context manager."""
        if not self.enabled:
            return NULL_SPAN
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            start=perf_counter() - self.epoch,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span.span_id)
        return _ActiveSpan(self, span)

    def _close(self, span: Span) -> None:
        span.duration = (perf_counter() - self.epoch) - span.start
        # Close any spans left open below this one (defensive: an
        # exception may have skipped their __exit__).
        while self._stack and self._stack[-1] != span.span_id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()

    # --- export / merge -------------------------------------------------------

    def as_dicts(self) -> List[dict]:
        """Completed spans as plain dictionaries (JSON/pickle friendly)."""
        return [span.as_dict() for span in self.spans]

    def merge_dicts(self, rows: Optional[List[dict]]) -> None:
        """Graft spans exported by another tracer (e.g. a worker process).

        Ids are re-based so they cannot collide with local spans; the
        merged spans keep their relative tree structure and become roots
        under the currently open span, if any.  A disabled tracer drops
        them, as it drops its own spans.
        """
        if not self.enabled or not rows:
            return
        base = self._next_id
        attach_to = self._stack[-1] if self._stack else None
        remap = {row["span_id"]: base + i for i, row in enumerate(rows)}
        for row in rows:
            parent = row.get("parent_id")
            self.spans.append(
                Span(
                    name=row["name"],
                    span_id=remap[row["span_id"]],
                    parent_id=remap.get(parent, attach_to),
                    start=row["start"],
                    duration=row["duration"],
                    attrs=dict(row.get("attrs") or {}),
                )
            )
        self._next_id = base + len(rows)

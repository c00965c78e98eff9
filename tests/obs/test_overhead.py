"""Overhead budget of the observability layer.

The acceptance bar: with tracing *disabled* (no ambient observer — the
normal state for every measurement run), the instrumentation hooks must
add less than 5% wall time to the compile-optimize-measure pipeline.

The pre-instrumentation pipeline no longer exists to diff against, so
the bound is established constructively: every disabled hook costs one
``repro.obs.active()`` call returning ``None`` (plus a ``None`` check),
so total overhead <= (hook executions) x (cost of one ``active()``
call).  The test counts the hook executions of a real run by tracing it
once, times the bare ``active()`` call, and asserts the product —
with a generous safety factor — stays under the 5% budget.
"""

from __future__ import annotations

from time import perf_counter

from repro.api import compile_and_measure
from repro.obs import active, observing

PROGRAM = "queens"
ROUNDS = 3
#: Headroom multiplier on the estimated hook count: some call sites
#: check ``active()`` more than once per recorded event, counters
#: incremented with ``amount > 1`` are estimated as one touch, and
#: future instrumentation should not immediately bust the budget.
SAFETY_FACTOR = 10


def _pipeline_seconds() -> float:
    start = perf_counter()
    compile_and_measure(PROGRAM, replication="jumps")
    return perf_counter() - start


def _hook_executions() -> int:
    """Estimate of the observability touch points one pipeline run executes.

    Each span costs an enter and an exit; each decision and histogram
    observation one touch.  Counter values are *not* summed — a counter
    incremented by 769193 dynamic instructions is still one ``inc()``
    call — so counters are estimated at the invocation-heavy ceiling,
    ``opt.pass_invocations``-style once-per-recorded-event, via the
    pass-invocation counter plus one touch per counter name.
    """
    with observing() as obs:
        compile_and_measure(PROGRAM, replication="jumps")
    snap = obs.snapshot()
    counters = snap["metrics"]["counters"]
    counter_touches = int(counters.get("opt.pass_invocations", 0)) * 2 + len(
        counters
    )
    histogram_touches = sum(
        h["count"] for h in snap["metrics"]["histograms"].values()
    )
    return (
        2 * len(snap["spans"])
        + len(snap["decisions"])
        + counter_touches
        + histogram_touches
    )


def test_disabled_tracing_overhead_under_5_percent():
    assert active() is None, "overhead baseline needs no ambient observer"
    _pipeline_seconds()  # warm imports and in-process caches

    pipeline = min(_pipeline_seconds() for _ in range(ROUNDS))
    hooks = _hook_executions()

    # Time the disabled hook: one active() call returning None.
    n = 200_000
    start = perf_counter()
    for _ in range(n):
        active()
    per_hook = (perf_counter() - start) / n

    overhead = hooks * SAFETY_FACTOR * per_hook
    assert overhead < 0.05 * pipeline, (
        f"disabled observability too expensive: {hooks} hooks x "
        f"{SAFETY_FACTOR} safety x {per_hook * 1e9:.0f}ns = "
        f"{overhead * 1000:.2f}ms against a {pipeline * 1000:.1f}ms "
        f"pipeline ({overhead / pipeline * 100:.2f}%)"
    )


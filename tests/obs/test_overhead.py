"""Overhead budget of the observability layer.

The acceptance bar: with observability *disabled* (nothing installed,
so :func:`repro.obs.active` returns the quiet default observer with
spans and decisions off — the normal state for every measurement run),
the instrumentation hooks must add less than 5% wall time to the
compile-optimize-measure pipeline.

The pre-instrumentation pipeline no longer exists to diff against, so
the bound is established constructively.  Instrumented code never asks
whether an observer exists; a disabled hook is ``active()`` plus either
a no-op span (the call, its enter and its exit) or a live metric update
on the default's registry (a counter increment, a histogram
observation).  The test counts the hook executions of a real run by
tracing it once, times each kind of disabled hook, and asserts the
sum of products — with a generous safety factor — stays under the 5%
budget.  The pipeline and the three hook loops are timed in interleaved
rounds, each the fastest of its rounds, so a slow spell of a shared host
slows one round of both sides rather than one side alone.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Tuple

from repro.api import compile_and_measure
from repro.obs import active, observing

PROGRAM = "queens"
ROUNDS = 7
#: Headroom multiplier on the estimated hook count: some call sites
#: call ``active()`` more than once per recorded event, counters
#: incremented with ``amount > 1`` are estimated as one touch, and
#: future instrumentation should not immediately bust the budget.
SAFETY_FACTOR = 10


def _pipeline_seconds() -> float:
    start = perf_counter()
    compile_and_measure(PROGRAM, replication="jumps")
    return perf_counter() - start


def _hook_executions() -> Tuple[int, int, int]:
    """Estimated (spans, counter touches, histogram observations) of one run.

    Each span is one disabled span hook; each decision one counter-priced
    touch (disabled, it is only an ``enabled`` check).  Counter values
    are *not* summed — a counter incremented by 769193 dynamic
    instructions is still one ``inc()`` call — so counters are estimated
    at the invocation-heavy ceiling, ``opt.pass_invocations``-style
    once-per-recorded-event, via the pass-invocation counter plus one
    touch per counter name.
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
        len(snap["spans"]),
        len(snap["decisions"]) + counter_touches,
        histogram_touches,
    )


def _loop_seconds(hook: Callable[[], None], n: int) -> float:
    start = perf_counter()
    for _ in range(n):
        hook()
    return perf_counter() - start


def _span_hook() -> None:
    with active().span("overhead.hook"):
        pass


def _counter_hook() -> None:
    active().metrics.inc("overhead.hook")


def _histogram_hook() -> None:
    active().metrics.observe("overhead.hook", 3)


def test_disabled_tracing_overhead_under_5_percent():
    obs = active()
    assert not obs.tracer.enabled and not obs.decisions.enabled, (
        "overhead baseline needs the quiet default observer"
    )
    _pipeline_seconds()  # warm imports and in-process caches

    spans, touches, observations = _hook_executions()

    n = 100_000
    hooks = (_span_hook, _counter_hook, _histogram_hook)
    best = [float("inf")] * (1 + len(hooks))
    for _ in range(ROUNDS):
        times = [_pipeline_seconds()] + [_loop_seconds(h, n) for h in hooks]
        best = [min(pair) for pair in zip(best, times)]
    pipeline = best[0]
    per_span, per_touch, per_observation = (seconds / n for seconds in best[1:])

    overhead = SAFETY_FACTOR * (
        spans * per_span + touches * per_touch + observations * per_observation
    )
    assert overhead < 0.05 * pipeline, (
        f"disabled observability too expensive: {SAFETY_FACTOR} safety x "
        f"({spans} spans x {per_span * 1e9:.0f}ns + {touches} counter "
        f"touches x {per_touch * 1e9:.0f}ns + {observations} observations "
        f"x {per_observation * 1e9:.0f}ns) = {overhead * 1000:.2f}ms against "
        f"a {pipeline * 1000:.1f}ms pipeline "
        f"({overhead / pipeline * 100:.2f}%)"
    )

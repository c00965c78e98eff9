"""repro.obs — tracing, metrics and the replication decision log.

The unified observability subsystem (zero external dependencies):

* :mod:`repro.obs.tracer` — nested spans with monotonic timing;
* :mod:`repro.obs.metrics` — counters and fixed-bucket histograms,
  mergeable across worker processes;
* :mod:`repro.obs.decisions` — one structured event per candidate jump
  the replication engine examined (accept / reject / rollback + reason);
* :mod:`repro.obs.observer` — the ambient bundle instrumented code
  talks to; ``active()`` always returns one (a quiet default with spans
  and decisions off when nothing is installed), so no caller asks
  whether an observer exists;
* :mod:`repro.obs.sink` — the JSONL trace writer/reader behind
  ``REPRO_TRACE=path`` and the ``--trace`` CLI flag;
* :mod:`repro.obs.digest` — aggregation for ``repro trace``, the
  terminal summary and the ``repro bench --passes`` table.

Quickstart::

    from repro.obs import observing

    with observing(jsonl_path="out.jsonl") as obs:
        compile_and_measure("sieve", replication="jumps")
    print(obs.metrics.counters["replication.accepted"])
"""

from .decisions import DecisionLog, ReplicationDecision
from .digest import aggregate_spans, decision_digest, pass_table, split_events
from .metrics import DEFAULT_BUCKETS, MetricsRegistry
from .observer import Observer, active, deactivate, install, observing
from .sink import (
    TRACE_SCHEMA_VERSION,
    read_events,
    trace_path_from_env,
    write_events,
)
from .tracer import Span, Tracer

__all__ = [
    "DecisionLog",
    "ReplicationDecision",
    "aggregate_spans",
    "decision_digest",
    "pass_table",
    "split_events",
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "Observer",
    "active",
    "deactivate",
    "install",
    "observing",
    "TRACE_SCHEMA_VERSION",
    "read_events",
    "trace_path_from_env",
    "write_events",
    "Span",
    "Tracer",
]

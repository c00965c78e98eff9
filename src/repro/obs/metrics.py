"""The metrics registry: counters and fixed-bucket histograms.

Metrics are named by dotted strings (``"exec.cache.hits"``,
``"replication.sequence_rtls"``).  The registry is deliberately plain —
dicts of numbers — so a snapshot crosses process boundaries beside the
results of the parallel execution layer and merges associatively on the
way back: counters and histograms add.  (A snapshot written before
gauges were retired may still carry a ``"gauges"`` key; merging and
rendering ignore it.)

Histograms use fixed bucket upper bounds (Prometheus-style cumulative
counts are *not* used; each bucket counts observations within its own
range, the final slot catching everything above the last bound), which
keeps merging a per-slot addition with no re-bucketing.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Sequence

__all__ = ["MetricsRegistry", "DEFAULT_BUCKETS"]

#: Default histogram bounds — tuned for the paper's small quantities
#: (replication sequence lengths in RTLs/blocks, pass iteration counts).
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class MetricsRegistry:
    """A process-local bag of counters and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        #: name -> {"buckets": [bounds...], "counts": [len(bounds)+1 slots],
        #:          "sum": float, "count": int}
        self.histograms: Dict[str, dict] = {}

    # --- instruments ----------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Record one observation into histogram ``name``.

        ``buckets`` fixes the bounds on first use; later observations
        reuse the stored bounds (a changed ``buckets`` argument is
        ignored so merges stay well-defined).
        """
        hist = self.histograms.get(name)
        if hist is None:
            bounds = list(buckets)
            hist = self.histograms[name] = {
                "buckets": bounds,
                "counts": [0] * (len(bounds) + 1),
                "sum": 0.0,
                "count": 0,
            }
        hist["counts"][bisect_left(hist["buckets"], value)] += 1
        hist["sum"] += value
        hist["count"] += 1

    # --- export / merge -------------------------------------------------------

    def snapshot(self) -> dict:
        """A deep plain-data copy, safe to pickle/JSON and to mutate."""
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: {
                    "buckets": list(h["buckets"]),
                    "counts": list(h["counts"]),
                    "sum": h["sum"],
                    "count": h["count"],
                }
                for name, h in self.histograms.items()
            },
        }

    def merge_snapshot(self, snap: Optional[dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one."""
        if not snap:
            return
        for name, value in (snap.get("counters") or {}).items():
            self.inc(name, value)
        for name, other in (snap.get("histograms") or {}).items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = {
                    "buckets": list(other["buckets"]),
                    "counts": list(other["counts"]),
                    "sum": other["sum"],
                    "count": other["count"],
                }
                continue
            if mine["buckets"] != list(other["buckets"]):
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ: "
                    f"{mine['buckets']} vs {other['buckets']}"
                )
            mine["counts"] = [
                a + b for a, b in zip(mine["counts"], other["counts"])
            ]
            mine["sum"] += other["sum"]
            mine["count"] += other["count"]

    def is_empty(self) -> bool:
        return not (self.counters or self.histograms)

"""Parallel, persistently-cached execution of the evaluation matrix.

The paper's evaluation is a cross-product — 14 programs × 2 targets ×
3 configurations — and everything downstream (Tables 4–6, differential
tests, ablations) re-measures cells of that matrix.  This package makes
the matrix the unit of work:

* :class:`CellSpec` / :class:`CellResult` — pickle-safe work units;
* :class:`ResultCache` — content-addressed result cache, on disk or in
  memory (``root=None``);
* :class:`ParallelRunner` — process-pool fan-out with graceful per-cell
  failure capture; the one execution path every caller shares.

Concurrent processes may share one on-disk cache: the atomic publish of
each entry is the cache's one concurrency rule (last writer wins).
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .envelope import CACHE_SCHEMA_VERSION, CellResult, CellSpec
from .runner import ParallelRunner, default_worker_count, execute_cell, warm_worker

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "CellResult",
    "CellSpec",
    "ParallelRunner",
    "ResultCache",
    "default_worker_count",
    "execute_cell",
    "warm_worker",
]

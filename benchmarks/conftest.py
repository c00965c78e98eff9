"""Shared machinery for the experiment harnesses.

Each ``bench_table*.py`` regenerates one table or figure of the paper.
The whole (program × target × configuration) matrix is produced in one
:func:`repro.benchsuite.run_matrix` call, which fans out over worker
processes through the benchsuite's default result cache — in memory, or
on disk under ``REPRO_CACHE_DIR`` — so the full suite compiles and
interprets each combination exactly once per pytest session (or not at
all when an on-disk cache is warm), and later ``run_benchmark`` calls on
the same cells are cache hits.

Environment knobs:

* ``REPRO_BENCH_PROGRAMS`` — comma-separated subset of program names, for
  quick runs (e.g. ``REPRO_BENCH_PROGRAMS=wc,sieve pytest benchmarks/``).
* ``REPRO_BENCH_PARALLEL`` — worker processes for the matrix (default
  ``0`` = inline; ``repro bench --parallel N`` is the CLI equivalent).
* ``REPRO_CACHE_DIR`` — persistent result cache directory (honoured by
  the runner itself; unset = an in-memory cache per process).
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

from repro.benchsuite import program_names, run_matrix
from repro.ease import Measurement

TARGETS = ("sparc", "m68020")
CONFIGS = ("none", "loops", "jumps")
CONFIG_LABEL = {"none": "SIMPLE", "loops": "LOOPS", "jumps": "JUMPS"}


def selected_programs() -> List[str]:
    override = os.environ.get("REPRO_BENCH_PROGRAMS")
    if override:
        return [name.strip() for name in override.split(",") if name.strip()]
    return program_names()


def _workers() -> int:
    return int(os.environ.get("REPRO_BENCH_PARALLEL", "0") or 0)


@pytest.fixture(scope="session")
def suite_measurements() -> Dict[tuple, Measurement]:
    """Measurements for every (target, config, program), without traces."""
    return run_matrix(
        names=selected_programs(),
        targets=TARGETS,
        configs=CONFIGS,
        workers=_workers(),
    )


@pytest.fixture(scope="session")
def traced_measurements() -> Dict[tuple, Measurement]:
    """Measurements with block traces (for the cache experiments)."""
    return run_matrix(
        names=selected_programs(),
        targets=TARGETS,
        configs=CONFIGS,
        trace=True,
        workers=_workers(),
    )

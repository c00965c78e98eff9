"""Compile-optimize-measure entry points shared by every experiment.

A spec builder over :mod:`repro.exec`: :func:`run_benchmark` and
:func:`run_matrix` turn (target, configuration, program) cells into
:class:`~repro.exec.CellSpec` s and run them through one
:class:`~repro.exec.ParallelRunner`.  Without an explicit ``cache`` they
share one process-wide :class:`~repro.exec.ResultCache`: in memory, or
on disk under ``REPRO_CACHE_DIR`` when that is set.  So the tables of
:func:`repro.report.collect` reuse each other's runs; verified runs
bypass it, as :class:`~repro.exec.ParallelRunner` does for every cache.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cfg.block import Program
from ..core.replication import Policy
from ..ease.measure import Measurement
from ..exec import CellSpec, ParallelRunner, ResultCache
from ..frontend.codegen import compile_c
from ..opt.driver import OptimizationConfig, optimize_program
from ..targets.machine import Machine
from .programs import PROGRAMS, program_names

__all__ = ["run_benchmark", "run_matrix", "compile_benchmark", "clear_cache"]

Cell = Tuple[str, str, str]
_default_cache: Optional[ResultCache] = None


def clear_cache() -> None:
    """Drop the default cache (frees in-memory entries and their traces;
    on-disk entries stay)."""
    global _default_cache
    _default_cache = None


def _cache(cache: Optional[ResultCache], use_default: bool) -> Optional[ResultCache]:
    """``cache``, else (if ``use_default``) the lazily built default."""
    global _default_cache
    if cache is not None or not use_default:
        return cache
    if _default_cache is None:
        _default_cache = ResultCache(os.environ.get("REPRO_CACHE_DIR") or None)
    return _default_cache


def _check_name(name: str) -> None:
    if name not in PROGRAMS:
        raise KeyError(
            f"unknown benchmark {name!r}; expected one of {program_names()}"
        )


def compile_benchmark(
    name: str,
    target: Machine,
    replication: str = "none",
    policy: Policy = Policy.SHORTEST,
    max_rtls: Optional[int] = None,
) -> Program:
    """Compile + optimize one benchmark program for one configuration."""
    _check_name(name)
    program = compile_c(PROGRAMS[name].source)
    config = OptimizationConfig(
        replication=replication, policy=policy, max_rtls=max_rtls
    )
    optimize_program(program, target, config)
    return program


def _measure(
    cells: Sequence[Cell],
    cache: Optional[ResultCache],
    workers: Optional[int],
    **config,
) -> List[Measurement]:
    """Measure ``(target, replication, name)`` cells in order; raises
    ``RuntimeError`` listing every failed cell."""
    for _, _, name in cells:
        _check_name(name)
    specs = [
        CellSpec(program=name, target=target, replication=replication, **config)
        for target, replication, name in cells
    ]
    results = ParallelRunner(workers=workers, cache=cache).run(specs)
    failures = [f"{r.spec.label}:\n{r.error}" for r in results if not r.ok]
    if failures:
        raise RuntimeError(
            f"{len(failures)} matrix cell(s) failed:\n" + "\n".join(failures)
        )
    return [result.measurement for result in results]


def run_benchmark(
    name: str,
    target: str = "sparc",
    replication: str = "none",
    policy: Union[Policy, str] = Policy.SHORTEST,
    max_rtls: Optional[int] = None,
    trace: bool = False,
    use_cache: bool = True,
    cache: Optional[ResultCache] = None,
) -> Measurement:
    """Measure one benchmark under one configuration.

    ``policy`` is a :class:`Policy` or one of its
    :data:`~repro.core.replication.POLICIES` names (``KeyError`` otherwise).
    Runs through ``cache``, else (with ``use_cache``) the default cache.
    """
    (measurement,) = _measure(
        [(target, replication, name)],
        _cache(cache, use_cache),
        workers=1,
        policy=policy.value if isinstance(policy, Policy) else policy,
        max_rtls=max_rtls,
        trace=trace,
    )
    return measurement


def run_matrix(
    names: Optional[Sequence[str]] = None,
    targets: Sequence[str] = ("sparc", "m68020"),
    configs: Sequence[str] = ("none", "loops", "jumps"),
    trace: bool = False,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_memo: bool = True,
) -> Dict[Cell, Measurement]:
    """Measure the full (target × config × program) cross-product.

    Fans out over ``workers`` processes (``None`` = one per core,
    ``0``/``1`` = inline) through ``cache``, else (with ``use_memo``)
    the default cache.  Returns ``{(target, config, name): Measurement}``
    — the shape :func:`repro.report.matrix_cells` consumes.  Raises
    ``RuntimeError`` listing every failed cell, if any.
    """
    selected = list(names) if names is not None else program_names()
    order = [(t, c, name) for t in targets for c in configs for name in selected]
    measurements = _measure(order, _cache(cache, use_memo), workers, trace=trace)
    return dict(zip(order, measurements))

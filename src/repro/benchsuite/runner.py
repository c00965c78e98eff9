"""Compile-optimize-measure pipeline shared by every experiment.

Since the parallel execution layer landed this module is a thin facade
over :mod:`repro.exec`: every measurement goes through
:class:`~repro.exec.runner.ParallelRunner`, results are memoized in-process
per (program, target, configuration, trace) — the Tables 4, 5 and 6
harnesses reuse the same runs; verified runs bypass the memo — and an
optional persistent :class:`~repro.exec.cache.ResultCache` survives
across processes.

``run_matrix`` is the bulk entry point: it fans the whole
(program × target × configuration) cross-product out over a
:class:`~repro.exec.runner.ParallelRunner` and seeds the in-process memo,
so the per-cell accessors below become cache hits afterwards.

Traced measurements (``trace=True``, the Table-6 input) carry an RLE
:class:`~repro.ease.trace.CompressedTrace` — it iterates as raw global
block ids for compatibility, and the single-pass multi-configuration
cache engine (:func:`repro.cache.simulate_multi_cache`) consumes its
compressed records directly, so memoized envelopes stay small and the
four-size sweep fast-forwards steady-state loops.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cfg.block import Program
from ..core.replication import Policy
from ..ease.measure import Measurement
from ..exec import CellResult, CellSpec, ParallelRunner, ResultCache
from ..exec.runner import _effective_verify_mode
from ..frontend.codegen import compile_c
from ..opt.driver import OptimizationConfig, optimize_program
from ..targets.machine import Machine, get_target
from .programs import PROGRAMS, program_names

__all__ = [
    "run_benchmark",
    "run_suite",
    "run_matrix",
    "compile_benchmark",
    "clear_cache",
    "persistent_cache_from_env",
]

_measure_cache: Dict[tuple, Measurement] = {}

_POLICY_NAMES = {
    Policy.SHORTEST: "shortest",
    Policy.FAVOR_RETURNS: "returns",
    Policy.FAVOR_LOOPS: "loops",
}


def clear_cache() -> None:
    """Drop all memoized measurements (frees their traces)."""
    _measure_cache.clear()


def persistent_cache_from_env() -> Optional[ResultCache]:
    """The on-disk cache named by ``REPRO_CACHE_DIR``, if set."""
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    return ResultCache(cache_dir) if cache_dir else None


def compile_benchmark(
    name: str,
    target: Machine,
    replication: str = "none",
    policy: Policy = Policy.SHORTEST,
    max_rtls: Optional[int] = None,
) -> Program:
    """Compile + optimize one benchmark program for one configuration."""
    try:
        bench = PROGRAMS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; expected one of {program_names()}"
        ) from None
    program = compile_c(bench.source)
    config = OptimizationConfig(
        replication=replication, policy=policy, max_rtls=max_rtls
    )
    optimize_program(program, target, config)
    return program


def _spec_for(
    name: str,
    target: str,
    replication: str,
    policy: Policy,
    max_rtls: Optional[int],
    trace: bool,
) -> CellSpec:
    if name not in PROGRAMS:
        raise KeyError(
            f"unknown benchmark {name!r}; expected one of {program_names()}"
        )
    return CellSpec(
        program=name,
        target=target,
        replication=replication,
        policy=_POLICY_NAMES.get(policy, "shortest"),
        max_rtls=max_rtls,
        trace=trace,
    )


def _memo_key(spec: CellSpec) -> Optional[tuple]:
    """The in-process memo key, or ``None`` when the memo must be bypassed.

    The rule :class:`~repro.exec.runner.ParallelRunner` applies to the
    disk cache: a cell under translation validation must actually run,
    so it neither reads nor seeds the memo.
    """
    if _effective_verify_mode(spec) != "off":
        return None
    return (
        spec.program,
        spec.target,
        spec.replication,
        spec.policy,
        spec.max_rtls,
        spec.trace,
    )


def _unwrap(result: CellResult) -> Measurement:
    if not result.ok:
        raise RuntimeError(
            f"benchmark cell {result.spec.label} failed:\n{result.error}"
        )
    return result.measurement


def run_benchmark(
    name: str,
    target: str = "sparc",
    replication: str = "none",
    policy: Policy = Policy.SHORTEST,
    max_rtls: Optional[int] = None,
    trace: bool = False,
    use_cache: bool = True,
    cache: Optional[ResultCache] = None,
) -> Measurement:
    """Measure one benchmark under one configuration (memoized).

    ``cache`` (or the ``REPRO_CACHE_DIR`` environment variable) adds a
    persistent on-disk layer underneath the in-process memo.
    """
    spec = _spec_for(name, target, replication, policy, max_rtls, trace)
    key = _memo_key(spec) if use_cache else None
    if key in _measure_cache:
        return _measure_cache[key]
    disk = cache if cache is not None else persistent_cache_from_env()
    (result,) = ParallelRunner(workers=1, cache=disk).run([spec])
    measurement = _unwrap(result)
    if key is not None:
        _measure_cache[key] = measurement
    return measurement


def run_suite(
    target: str = "sparc",
    replication: str = "none",
    names: Optional[Iterable[str]] = None,
    trace: bool = False,
) -> Dict[str, Measurement]:
    """Measure the whole test set (Table 3) under one configuration."""
    selected = list(names) if names is not None else program_names()
    return {
        name: run_benchmark(name, target, replication, trace=trace)
        for name in selected
    }


def run_matrix(
    names: Optional[Sequence[str]] = None,
    targets: Sequence[str] = ("sparc", "m68020"),
    configs: Sequence[str] = ("none", "loops", "jumps"),
    trace: bool = False,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_memo: bool = True,
) -> Dict[Tuple[str, str, str], Measurement]:
    """Measure the full (target × config × program) cross-product.

    Fans out over ``workers`` processes (``None`` = one per core,
    ``0``/``1`` = inline) through the optional persistent ``cache``,
    and seeds the in-process memo so later :func:`run_benchmark` calls
    on the same cells are free.  Returns ``{(target, config, name):
    Measurement}`` — the shape the Table 4/5/6 harnesses consume.
    Raises ``RuntimeError`` listing every failed cell, if any.
    """
    selected: List[str] = list(names) if names is not None else program_names()
    order: List[Tuple[str, str, str]] = [
        (target, config, name)
        for target in targets
        for config in configs
        for name in selected
    ]
    specs = [
        _spec_for(name, target, config, Policy.SHORTEST, None, trace)
        for (target, config, name) in order
    ]
    disk = cache if cache is not None else persistent_cache_from_env()

    measurements: Dict[Tuple[str, str, str], Measurement] = {}
    pending_specs: List[CellSpec] = []
    pending_keys: List[Tuple[str, str, str]] = []
    for matrix_key, spec in zip(order, specs):
        memo_key = _memo_key(spec) if use_memo else None
        if memo_key in _measure_cache:
            measurements[matrix_key] = _measure_cache[memo_key]
        else:
            pending_specs.append(spec)
            pending_keys.append(matrix_key)

    cell_results = ParallelRunner(workers=workers, cache=disk).run(pending_specs)
    failures: List[str] = []
    for matrix_key, result in zip(pending_keys, cell_results):
        if not result.ok:
            failures.append(f"{result.spec.label}:\n{result.error}")
            continue
        measurements[matrix_key] = result.measurement
        memo_key = _memo_key(result.spec) if use_memo else None
        if memo_key is not None:
            _measure_cache[memo_key] = result.measurement
    if failures:
        raise RuntimeError(
            f"{len(failures)} matrix cell(s) failed:\n" + "\n".join(failures)
        )
    return measurements

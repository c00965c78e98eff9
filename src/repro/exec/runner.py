"""Parallel, cached execution of the evaluation matrix.

:func:`run_pipeline` is the single-program pipeline — compile,
optimize, interpret, measure — that :func:`repro.api.compile_and_measure`
also runs; :func:`execute_cell` wraps it in an ``exec.cell`` span and
captures every exception into the result envelope instead of
propagating.  :class:`ParallelRunner` fans a list of :class:`CellSpec`
out over a ``ProcessPoolExecutor``, short-circuiting cells already
present in the on-disk :class:`~repro.exec.cache.ResultCache` and
writing fresh results back.  Processes sharing one cache need no
coordination: the cache's atomic publish keeps every entry
whole, so a cold cell two of them compute at once is merely written
twice (last writer wins).

A crashing cell reports (``result.error`` carries the traceback); it
never kills the run.  A cell that kills its worker process fails alone:
the cells its broken pool lost are rerun one per fresh pool, and only a
cell that kills that worker too is reported (``exec.worker_deaths``).
``workers <= 1`` executes inline in the calling process — the same code
path, minus the pool — which is what the test suite uses and what keeps
single-core machines overhead-free.

Observations are not results.  A cell records into the observer of the
process that runs it; only a pool worker's observations cross a process
boundary, as a snapshot shipped beside (not inside) the result and
merged once.  The cache therefore stores results only, and a cache hit
adds nothing to the observer but the ``exec.cache.*`` counters.
"""

from __future__ import annotations

import os
import traceback
from time import perf_counter
from typing import Callable, List, Optional, Sequence

from ..obs import active, observing
from ..targets.names import TARGETS
from .cache import ResultCache
from .envelope import CellResult, CellSpec

__all__ = [
    "ParallelRunner",
    "execute_cell",
    "run_pipeline",
    "default_worker_count",
    "warm_worker",
]


def default_worker_count() -> int:
    """Worker count when none is requested: one per available core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def warm_worker(target_names: Sequence[str] = TARGETS) -> None:
    """Process-pool initializer: pre-construct per-worker shared state.

    Runs once per worker process, not once per cell: machine
    descriptions are built here and memoized (every later
    ``get_target`` in this worker is a ``targets.machine.reused`` hit),
    and the import of the full toolchain — front end, optimizer, EASE
    engines — is paid before the first job instead of inside it.
    """
    from ..ease.measure import measure_program  # noqa: F401 (import warm-up)
    from ..frontend.codegen import compile_c  # noqa: F401
    from ..opt.driver import optimize_program  # noqa: F401
    from ..targets.machine import get_target

    for name in target_names:
        get_target(name)


def run_pipeline(spec: CellSpec, result: CellResult) -> tuple:
    """The single-program pipeline: front end, Figure-3 optimizer, EASE.

    Resolves the spec's source and stdin, turns its policy name (and
    profile threshold, trained on the same stdin) into an
    :class:`~repro.opt.driver.OptimizationConfig`,
    optimizes under a :class:`~repro.verify.verifier.Verifier` in the
    spec's verify mode, and measures.  Timings, replication stats, the
    measurement and — unless the mode is ``"off"`` — the verification
    report (also when verification fails) land in ``result``; failures
    raise.  Returns ``(program, config, stats)``; ``config`` and
    ``stats`` are ``None`` for an unoptimized reference run.
    """
    from ..core.replication import POLICIES
    from ..ease.interp import Interpreter
    from ..ease.measure import measure_program
    from ..frontend.codegen import compile_c
    from ..opt.driver import OptimizationConfig, optimize_program
    from ..targets.machine import get_target
    from ..verify.verifier import Verifier

    source, stdin = spec.resolve()
    target = get_target(spec.target)

    start = perf_counter()
    program = compile_c(source)
    result.compile_seconds = perf_counter() - start

    config = stats = None
    if spec.optimize:
        config = OptimizationConfig(
            replication=spec.replication,
            policy=POLICIES[spec.policy],
            max_rtls=spec.max_rtls,
            profile_threshold=spec.profile_threshold,
            train_stdin=b"" if spec.profile_threshold is None else stdin,
        )
        verifier = Verifier(spec.verify, inputs=[stdin])
        start = perf_counter()
        try:
            stats = optimize_program(program, target, config, verifier=verifier)
        finally:
            # A failed verification's report carries the bisection verdict.
            if spec.verify != "off":
                result.verification = verifier.report()
        result.optimize_seconds = perf_counter() - start
        result.replication_stats = stats.as_dict()

    start = perf_counter()
    closures = spec.ease_engine == "interp"
    engine = Interpreter(program, trace=spec.trace) if closures else None
    result.measurement = measure_program(
        program, target, stdin=stdin, trace=spec.trace, interpreter=engine
    )
    result.measure_seconds = perf_counter() - start
    return program, config, stats


def execute_cell(spec: CellSpec) -> CellResult:
    """Run one matrix cell; never raises — failures land in the envelope.

    :func:`run_pipeline` under the calling process's observer
    (:func:`repro.obs.active`): spans, counters and decisions go where
    the caller collects them, never into the result.
    """
    result = CellResult(spec=spec)
    try:
        with active().span("exec.cell", label=spec.label):
            run_pipeline(spec, result)
    except Exception:
        result.error = traceback.format_exc()
        result.measurement = None
    return result


def _observed_cell(spec: CellSpec, spans: bool, decisions: bool) -> tuple:
    """Pool task: :func:`execute_cell` under a fresh worker observer.

    ``spans`` and ``decisions`` are the parent observer's settings;
    returns ``(result, snapshot)`` for the parent to merge.
    """
    with observing(spans=spans, decisions=decisions) as observer:
        result = execute_cell(spec)
    return result, observer.snapshot()


class ParallelRunner:
    """Fan the matrix out over worker processes, through the result cache."""

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.workers = default_worker_count() if workers is None else max(1, workers)
        self.cache = cache

    def run(
        self,
        specs: Sequence[CellSpec],
        on_result: Optional[Callable[[CellResult], None]] = None,
    ) -> List[CellResult]:
        """Execute every spec; results come back in input order.

        ``on_result`` (if given) is called once per finished cell, in
        completion order — useful for progress reporting.
        """
        results: List[Optional[CellResult]] = [None] * len(specs)
        pending: List[int] = []
        # Cells under translation validation bypass the cache both ways:
        # a hit would skip the verified pipeline run, which is the entire
        # point, and a verified run's timings carry oracle overhead that
        # must not shadow a clean entry.
        caches = [self.cache if spec.verify == "off" else None for spec in specs]

        # Pass 1: serve what the cache already has.
        for index, spec in enumerate(specs):
            if caches[index] is not None:
                cached = caches[index].get_spec(spec)
                if cached is not None and cached.ok:
                    cached.cache_hit = True
                    results[index] = cached
                    if on_result is not None:
                        on_result(cached)
                    continue
            pending.append(index)

        # Pass 2: compute the misses (in a pool, or inline for workers<=1).
        def finish(index: int, result: CellResult) -> None:
            if caches[index] is not None and result.ok:
                caches[index].put_spec(specs[index], result)
            results[index] = result
            if on_result is not None:
                on_result(result)

        if self.workers <= 1 or len(pending) <= 1:
            for index in pending:
                finish(index, execute_cell(specs[index]))
            return [result for result in results if result is not None]

        # A worker that dies mid-cell (OOM kill, interpreter crash) breaks
        # its pool, and every cell still in that pool fails with it.  So
        # each unfinished cell then runs alone in a fresh one-worker pool:
        # only a cell that kills that worker too becomes an error envelope.
        unfinished = self._pool(specs, pending, self.workers, finish)
        for index in unfinished:
            if self._pool(specs, [index], 1, finish):
                active().metrics.inc("exec.worker_deaths")
                label = specs[index].label
                error = f"BrokenProcessPool: the worker died running {label}"
                finish(index, CellResult(spec=specs[index], error=error))
        return [result for result in results if result is not None]

    @staticmethod
    def _pool(
        specs: Sequence[CellSpec],
        indices: Sequence[int],
        workers: int,
        finish: Callable[[int, CellResult], None],
    ) -> List[int]:
        """Run ``indices`` in one pool; return those its breaking lost.

        Each worker records into an observer with this process's stream
        settings and ships its snapshot beside the result; it is merged
        here, once per finished cell.
        """
        # Imported here: a fully warm run never builds a pool.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        observer = active()
        streams = (observer.tracer.enabled, observer.decisions.enabled)
        targets = tuple(sorted({specs[i].target for i in indices}))
        lost: List[int] = []
        with ProcessPoolExecutor(
            max_workers=workers, initializer=warm_worker, initargs=(targets,)
        ) as pool:
            futures = {
                pool.submit(_observed_cell, specs[i], *streams): i for i in indices
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    result, snapshot = future.result()
                except BrokenProcessPool:
                    lost.append(index)
                    continue
                except Exception:
                    # The result could not come back (unpicklable).
                    result = CellResult(spec=specs[index], error=traceback.format_exc())
                else:
                    observer.merge_snapshot(snapshot)
                finish(index, result)
        return sorted(lost)

"""The evaluation matrix: :func:`run_matrix` over the Table-3 programs.

A spec builder over :mod:`repro.exec`: :func:`run_matrix` turns
(target, configuration, program) cells into :class:`~repro.exec.CellSpec`
s and runs them through one :class:`~repro.exec.ParallelRunner`.
Without an explicit ``cache`` it uses the working directory's
``.repro-cache``, the default of ``repro bench`` and
:func:`repro.report.collect`.  One cell alone is
:func:`repro.api.compile_and_measure`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..ease.measurement import Measurement
from ..exec import CellSpec, ParallelRunner, ResultCache
from ..targets.names import TARGETS
from .programs import PROGRAMS, program_names

__all__ = ["run_matrix"]

Cell = Tuple[str, str, str]


def run_matrix(
    names: Optional[Sequence[str]] = None,
    targets: Sequence[str] = TARGETS,
    configs: Sequence[str] = ("none", "loops", "jumps"),
    trace: bool = False,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_memo: bool = True,
) -> Dict[Cell, Measurement]:
    """Measure the full (target × config × program) cross-product.

    Fans out over ``workers`` processes (``None`` = one per core,
    ``0``/``1`` = inline) through ``cache``, else (with ``use_memo``)
    the working directory's ``ResultCache()``, else uncached.  Returns
    ``{(target, config, name): Measurement}`` — the shape
    :func:`repro.report.matrix_cells` consumes.  Raises ``KeyError`` for
    an unknown program and ``RuntimeError`` listing every failed cell,
    if any.
    """
    selected = list(names) if names is not None else program_names()
    unknown = [name for name in selected if name not in PROGRAMS]
    if unknown:
        raise KeyError(
            f"unknown benchmark {unknown[0]!r}; expected one of {program_names()}"
        )
    if cache is None and use_memo:
        cache = ResultCache()
    order = [(t, c, name) for t in targets for c in configs for name in selected]
    specs = [
        CellSpec(program=name, target=target, replication=config, trace=trace)
        for target, config, name in order
    ]
    results = ParallelRunner(workers=workers, cache=cache).run(specs)
    failures = [f"{r.spec.label}:\n{r.error}" for r in results if not r.ok]
    if failures:
        raise RuntimeError(
            f"{len(failures)} matrix cell(s) failed:\n" + "\n".join(failures)
        )
    return {cell: result.measurement for cell, result in zip(order, results)}

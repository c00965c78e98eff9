"""Cutting a program's functions into isolated matrix cells.

The tuner scores candidates *per function*: ``optimize_function`` treats
every function independently, so overriding one function's tuning while
the rest stay at the global baseline isolates that function's
contribution to the program's Table-5/6 metrics.  A :class:`Cutout`
names one such isolation — (program, function) — and builds the
:class:`~repro.exec.envelope.CellSpec` for any candidate, normalizing
candidates identical to the global baseline to ``tuned=None`` so they
share the baseline's cache entry (and its single-flight lock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exec.envelope import CellSpec
from .grid import Candidate

__all__ = ["Cutout", "function_names", "normalize_rows", "baseline_candidate"]


def function_names(program: str) -> List[str]:
    """The functions of a benchmark (or mini-C source), in program order.

    The front end is cheap relative to one measured cell, so the tuner
    compiles once up front to discover the cut points.
    """
    from ..frontend.codegen import compile_c

    source, _stdin = CellSpec(program=program).resolve()
    compiled = compile_c(source)
    return list(compiled.functions.keys())


def baseline_candidate(spec: CellSpec) -> Candidate:
    """The global configuration of ``spec``, viewed as a candidate."""
    return Candidate(policy=spec.policy, max_rtls=spec.max_rtls, order="standard")


def normalize_rows(
    rows: Dict[str, Candidate], baseline: Candidate
) -> Optional[Tuple[Tuple[str, str, Optional[int], str], ...]]:
    """Canonical ``CellSpec.tuned`` value for per-function choices.

    Rows equal to the global baseline are dropped (the driver's
    ``tuning_for`` falls back to the globals anyway), and no surviving
    rows means ``None`` — the untuned spec, byte-identical cache key to
    the baseline run.  Survivors are sorted by function name so equal
    choices always produce the same key.
    """
    surviving = {
        function: candidate
        for function, candidate in rows.items()
        if candidate != baseline
    }
    if not surviving:
        return None
    return tuple(
        surviving[function].as_row(function) for function in sorted(surviving)
    )


@dataclass(frozen=True)
class Cutout:
    """One (program, function) isolation cell of the tuning sweep."""

    program: str
    function: str

    def spec_for(self, base: CellSpec, candidate: Candidate) -> CellSpec:
        """``base`` with only this function overridden to ``candidate``."""
        from dataclasses import replace

        tuned = normalize_rows(
            {self.function: candidate}, baseline_candidate(base)
        )
        return replace(base, program=self.program, tuned=tuned)

    @property
    def label(self) -> str:
        return f"{self.program}::{self.function}"

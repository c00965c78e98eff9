"""High-level convenience API.

One call compiles (or looks up a Table-3 benchmark), optimizes under a
paper configuration, executes, and measures::

    from repro import compile_and_measure

    result = compile_and_measure("sieve", target="sparc", replication="jumps")
    print(result.measurement.dynamic_insns, result.measurement.dynamic_jumps)

    result = compile_and_measure(
        "int main() { return 6 * 7; }", target="m68020"
    )
    print(result.measurement.exit_code)  # 42
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .cfg.block import Program
from .core.replication import POLICIES, Policy, ReplicationStats
from .ease.measure import Measurement
from .exec.envelope import CellResult, CellSpec
from .exec.runner import run_pipeline
from .opt.driver import OptimizationConfig
from .targets.machine import Machine, get_target

__all__ = [
    "CompilationResult",
    "compile_and_measure",
    "POLICIES",
]


@dataclass
class CompilationResult:
    """Everything produced by :func:`compile_and_measure`."""

    program: Program
    target: Machine
    config: OptimizationConfig
    replication_stats: ReplicationStats
    measurement: Measurement
    #: Translation-validation report (``None`` when verification was off).
    verification: Optional[dict] = None

    @property
    def output(self) -> bytes:
        return self.measurement.output

    @property
    def exit_code(self) -> int:
        return self.measurement.exit_code


def compile_and_measure(
    source_or_benchmark: str,
    target: Union[str, Machine] = "sparc",
    replication: str = "none",
    stdin: Optional[bytes] = None,
    trace: bool = False,
    policy: Union[str, Policy] = Policy.SHORTEST,
    max_rtls: Optional[int] = None,
    verify: str = "off",
) -> CompilationResult:
    """Compile, optimize, run and measure one program.

    Runs :func:`repro.exec.runner.run_pipeline`, the code every matrix
    cell runs, on a :class:`~repro.exec.CellSpec` built from the arguments.

    :param source_or_benchmark: mini-C source text, or the name of one of
        the 14 Table-3 benchmarks (e.g. ``"wc"``).
    :param target: ``"m68020"`` or ``"sparc"`` (or a Machine, by name).
    :param replication: ``"none"`` (the paper's SIMPLE), ``"loops"`` or
        ``"jumps"``.
    :param stdin: program input; defaults to the benchmark's workload for
        named benchmarks, empty otherwise.
    :param trace: record the block-level trace for cache simulation.
    :param policy: JUMPS step-2 heuristic: "shortest", "returns", "loops"
        (or a :class:`Policy`); an unknown name raises ``KeyError``.
    :param max_rtls: §6 bound on replication sequence length.
    :param verify: translation-validation mode: ``"off"``, ``"sanitize"``
        (structural invariants after every pass) or ``"full"`` (sanitize
        plus the differential execution oracle with pass bisection); any
        other value raises ``ValueError``.  Failures raise
        :class:`repro.verify.VerificationError`.
    """
    spec = CellSpec(
        program=source_or_benchmark,
        target=target if isinstance(target, str) else target.name,
        replication=replication,
        policy=policy.value if isinstance(policy, Policy) else policy,
        max_rtls=max_rtls,
        trace=trace,
        stdin=stdin,
        verify=verify,
    )
    result = CellResult(spec=spec)
    program, config, stats = run_pipeline(spec, result)
    return CompilationResult(
        program,
        get_target(spec.target),
        config,
        stats,
        result.measurement,
        verification=result.verification,
    )

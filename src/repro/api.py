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

from .benchsuite.programs import PROGRAMS
from .cfg.block import Program
from .core.replication import Policy, ReplicationStats
from .ease.measure import Measurement, measure_program
from .frontend.codegen import compile_c
from .opt.driver import OptimizationConfig, optimize_program
from .targets.machine import Machine, get_target

__all__ = [
    "CompilationResult",
    "compile_and_measure",
    "POLICIES",
]

POLICIES = {
    "shortest": Policy.SHORTEST,
    "returns": Policy.FAVOR_RETURNS,
    "loops": Policy.FAVOR_LOOPS,
}


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
    max_steps: int = 200_000_000,
    verify: Optional[str] = None,
    overrides: Optional[dict] = None,
) -> CompilationResult:
    """Compile, optimize, run and measure one program.

    :param source_or_benchmark: mini-C source text, or the name of one of
        the 14 Table-3 benchmarks (e.g. ``"wc"``).
    :param target: ``"m68020"`` or ``"sparc"`` (or a Machine instance).
    :param replication: ``"none"`` (the paper's SIMPLE), ``"loops"`` or
        ``"jumps"``.
    :param stdin: program input; defaults to the benchmark's workload for
        named benchmarks, empty otherwise.
    :param trace: record the block-level trace for cache simulation.
    :param policy: JUMPS step-2 heuristic: "shortest", "returns", "loops".
    :param max_rtls: §6 bound on replication sequence length.
    :param verify: translation-validation mode: ``"off"``, ``"sanitize"``
        (structural invariants after every pass) or ``"full"`` (sanitize
        plus the differential execution oracle with pass bisection);
        ``None`` defers to the ``REPRO_VERIFY`` environment variable.
        Failures raise :class:`repro.verify.VerificationError`.
    :param overrides: per-function replication tunings — a mapping of
        function name to :class:`repro.opt.driver.FunctionTuning`, as
        produced by the autotuner (see :mod:`repro.tune`); unnamed
        functions use the global ``policy``/``max_rtls`` above.
    """
    if source_or_benchmark in PROGRAMS:
        bench = PROGRAMS[source_or_benchmark]
        source = bench.source
        if stdin is None:
            stdin = bench.stdin
    else:
        source = source_or_benchmark
    if stdin is None:
        stdin = b""
    if isinstance(target, str):
        target = get_target(target)
    if isinstance(policy, str):
        policy = POLICIES[policy]
    program = compile_c(source)
    config = OptimizationConfig(
        replication=replication,
        policy=policy,
        max_rtls=max_rtls,
        overrides=dict(overrides) if overrides else {},
    )
    from .verify.verifier import Verifier, resolve_mode

    verify_mode = resolve_mode(verify)
    verifier = (
        Verifier(verify_mode, inputs=[stdin]) if verify_mode != "off" else None
    )
    stats = optimize_program(program, target, config, verifier=verifier)
    measurement = measure_program(
        program,
        target,
        stdin=stdin,
        trace=trace,
        max_steps=max_steps,
    )
    return CompilationResult(
        program,
        target,
        config,
        stats,
        measurement,
        verification=verifier.report() if verifier is not None else None,
    )

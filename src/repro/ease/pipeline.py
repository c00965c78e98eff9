"""A simple pipeline cost model (extension).

The paper argues (§5.2, §7) that code replication helps pipelined and
multiple-issue machines because basic blocks get larger and no-ops
disappear; it measures "instructions between branches" as a proxy.  This
module turns the block trace into an explicit control-transfer cost:

* every executed instruction costs one issue slot;
* every *taken* control transfer (the next executed block is not the
  positional successor) costs ``taken_penalty`` bubble cycles — the
  refill cost of a simple scalar pipeline without branch prediction;
* unconditional jumps are always taken; conditional branches cost only
  when they branch.

Replication converts always-taken jumps into fall-throughs (and reverses
branch polarity so the frequent path falls through), so its benefit under
this model exceeds the raw instruction-count saving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..cfg.block import Program
from .interp import Interpreter
from .measure import Measurement

__all__ = ["PipelineModel", "PipelineResult", "pipeline_cost", "measure_pipeline"]


@dataclass(frozen=True)
class PipelineModel:
    """Cost parameters of a simple scalar pipeline."""

    taken_penalty: int = 2  # refill bubbles per taken transfer


@dataclass
class PipelineResult:
    """Cycle accounting of one traced run under the pipeline model."""

    instructions: int
    transfers_taken: int
    transfers_not_taken: int
    cycles: int

    @property
    def cpi(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions


def pipeline_cost(
    measurement: Measurement,
    interpreter: Interpreter,
    program: Program,
    model: PipelineModel = PipelineModel(),
) -> PipelineResult:
    """Apply the pipeline model to a traced measurement.

    Requires ``measurement`` to have been taken with ``trace=True``.
    """
    if measurement.trace is None:
        raise ValueError("pipeline_cost needs a traced measurement")

    # Map global block id -> (its id, the id of its positional successor).
    next_of: Dict[int, int] = {}
    for name, func in program.functions.items():
        for index in range(len(func.blocks) - 1):
            this_id = interpreter.global_block_id(name, index)
            next_of[this_id] = interpreter.global_block_id(name, index + 1)

    taken = 0
    not_taken = 0
    trace = measurement.trace
    # Stream pairwise over the trace (works for both the raw list and
    # the compressed trace, which iterates as raw block ids).
    iterator = iter(trace)
    current = next(iterator, None)
    get_next = next_of.get
    for follower in iterator:
        if get_next(current) == follower:
            not_taken += 1
        else:
            taken += 1
        current = follower
    # The final block's return is a taken transfer as well.
    if current is not None:
        taken += 1

    cycles = measurement.dynamic_insns + model.taken_penalty * taken
    return PipelineResult(
        instructions=measurement.dynamic_insns,
        transfers_taken=taken,
        transfers_not_taken=not_taken,
        cycles=cycles,
    )


def measure_pipeline(
    program: Program,
    target,
    stdin: bytes = b"",
    model: PipelineModel = PipelineModel(),
    max_steps: int = 200_000_000,
) -> PipelineResult:
    """Convenience wrapper: trace ``program`` and apply the pipeline model."""
    from .compile import make_interpreter
    from .measure import measure_program

    interpreter = make_interpreter(program, max_steps=max_steps)
    measurement = measure_program(
        program, target, stdin=stdin, trace=True, interpreter=interpreter
    )
    return pipeline_cost(measurement, interpreter, program, model)

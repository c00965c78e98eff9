"""EASE-style measurement: static/dynamic counts and fetch-address layout.

This is the counting half of the EASE substitute.  Given an (optimized)
program and a target machine:

* every instruction gets a byte address (functions and blocks laid out in
  positional order with the target's size model);
* a run of the interpreter yields per-block execution counts and,
  optionally, a block trace;
* counts are weighted by ``Machine.insn_count`` (an RTL that stands for a
  sethi/or pair counts as two instructions, as on the real SPARC).

The statistics mirror what the paper reports: total instructions (Table
5), unconditional-jump counts (Table 4), no-ops executed and instructions
between branches (§5.2), and the fetch-address stream for the cache
simulations (Table 6).  A traced run also counts its taken transfers,
the input of the §6 pipeline model.
"""

from __future__ import annotations

from itertools import islice
from operator import eq
from typing import Dict, List, Optional, Tuple

from ..cfg.block import Program
from ..obs import active as _active_observer
from ..rtl.insn import Call, CondBranch, IndirectJump, Insn, Jump, Nop, Return
from ..targets.machine import Machine
from .compile import make_interpreter
from .interp import Interpreter
from .measurement import Measurement
from .trace import CompressedTrace

__all__ = ["Measurement", "measure_program"]


def _is_transfer_for_stats(insn: Insn) -> bool:
    return isinstance(insn, (Jump, CondBranch, Return, IndirectJump, Call))


def _taken_transfers(trace: CompressedTrace, successor: Dict[int, int]) -> int:
    """Transfers in ``trace`` to a block other than the positional
    successor, plus the final return (the pipeline model's penalty).

    Walks the compressed records: each distinct body's fall-throughs
    are counted once, then charged per lap.
    """
    follows = successor.get
    bodies: Dict[int, Tuple[int, int, int, bool]] = {}
    falls = 0
    last = None
    for body, count in trace.records():
        summary = bodies.get(id(body))
        if summary is None:
            inner = sum(map(eq, map(follows, body), islice(body, 1, None)))
            summary = (body[0], body[-1], inner, follows(body[-1]) == body[0])
            bodies[id(body)] = summary
        first, end, inner, wraps = summary
        falls += inner * count + wraps * (count - 1) + (follows(last) == first)
        last = end
    return len(trace) - falls


def measure_program(
    program: Program,
    target: Machine,
    stdin: bytes = b"",
    trace: bool = False,
    interpreter: Optional[Interpreter] = None,
    max_steps: int = 200_000_000,
) -> Measurement:
    """Run ``program`` and measure it with the target's size/count model.

    ``trace=True`` records the block trace (``Measurement.trace``, a
    :class:`~repro.ease.trace.CompressedTrace`) and counts its taken
    transfers.

    Runs on the compiled engine unless an ``interpreter`` is passed in
    (the closure :class:`~repro.ease.interp.Interpreter`, for instance).
    """
    measurement = Measurement()
    interp = interpreter or make_interpreter(program, max_steps=max_steps, trace=trace)
    obs = _active_observer()

    # --- static layout ---------------------------------------------------------
    with obs.span("ease.layout") as layout_span:
        address = 0x1000
        block_weights: Dict[int, Tuple[int, int, int, int]] = {}
        successor: Dict[int, int] = {}  # block id -> positional successor's
        for func in program.functions.values():
            previous = None
            for index, block in enumerate(func.blocks):
                fetches: List[int] = []
                insn_weight = 0
                jumps = 0
                nops = 0
                branches = 0
                for insn in block.insns:
                    count = target.insn_count(insn)
                    size = target.insn_size(insn)
                    measurement.static_insns += count
                    if isinstance(insn, Jump):
                        measurement.static_jumps += 1
                        jumps += 1
                    if isinstance(insn, Nop):
                        measurement.static_nops += 1
                        nops += 1
                    if _is_transfer_for_stats(insn):
                        branches += 1
                    insn_weight += count
                    # One fetch per machine instruction the RTL stands for.
                    step = size // max(1, count)
                    for k in range(count):
                        fetches.append(address + k * step)
                    address += size
                global_id = interp.global_block_id(func.name, index)
                if previous is not None:
                    successor[previous] = global_id
                previous = global_id
                measurement.block_fetches[global_id] = fetches
                block_weights[global_id] = (insn_weight, jumps, nops, branches)
                # Indirect-jump tables occupy data space after the block.
                term = block.terminator
                if isinstance(term, IndirectJump):
                    address += 4 * len(term.targets)
            address = (address + 15) & ~15  # align functions
        measurement.code_bytes = address - 0x1000
        layout_span.set(
            static_insns=measurement.static_insns,
            code_bytes=measurement.code_bytes,
        )

    # --- dynamic run --------------------------------------------------------------
    with obs.span("ease.interp", trace=trace) as interp_span:
        result = interp.run(stdin=stdin, trace=trace)
    measurement.output = result.output
    measurement.exit_code = result.exit_code
    if trace:
        measurement.trace = result.trace
        obs.metrics.inc("trace.rle.records", result.trace.record_count)

    with obs.span("ease.account"):
        for (func_name, block_index), count in result.block_counts.items():
            global_id = interp.global_block_id(func_name, block_index)
            weight, jumps, nops, branches = block_weights[global_id]
            measurement.dynamic_insns += weight * count
            measurement.dynamic_jumps += jumps * count
            measurement.dynamic_nops += nops * count
            measurement.dynamic_branches += branches * count
        if trace:
            measurement.taken_transfers = _taken_transfers(result.trace, successor)
    interp_span.set(
        dynamic_insns=measurement.dynamic_insns,
        dynamic_jumps=measurement.dynamic_jumps,
        exit_code=measurement.exit_code,
    )
    obs.metrics.inc("ease.runs")
    obs.metrics.inc("ease.dynamic_insns", measurement.dynamic_insns)
    obs.metrics.inc("ease.dynamic_jumps", measurement.dynamic_jumps)
    return measurement

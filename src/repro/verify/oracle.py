"""The differential execution oracle.

The expensive half of translation validation: run the program on the
EASE interpreter before and after optimization (or at any intermediate
pipeline point — the interpreter executes virtual-register RTL just as
happily as coloured RTL) against recorded inputs, and compare everything
the paper's semantics-preservation claim covers:

* the bytes written to stdout,
* the exit code,
* the final image of the globals region of memory.

The heap is deliberately excluded — its layout is a function of
allocation order, which optimization may legitimately change — and so is
the stack, which is dead once ``main`` returns.  Globals are compared
byte-for-byte because no pass is allowed to remove or reorder visible
stores (``dead_vars`` only deletes register assignments).

Trap policy: a run that traps (division by zero, out-of-range indirect
jump, step-limit blowout, stack overflow) has no defined observable
behaviour in our source language, so a *reference* trap makes the input
uncomparable and it is skipped.  A trap **introduced** by optimization —
reference ran fine, optimized program traps — is a miscompile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cfg.block import Program
from ..core.replication import clone_function
from ..ease.interp import Interpreter, StepLimitExceeded

__all__ = [
    "Behavior",
    "clone_program",
    "capture_behavior",
    "behavior_diff",
    "diff_behaviors",
    "ORACLE_MAX_STEPS",
]

# A tight budget compared to the interpreter's default: oracle runs are
# repeated per checkpoint and per bisection probe.  Sized so that every
# Table-3 benchmark's *unoptimized* reference fits with headroom (the
# largest, mincost, runs ~2.2M instructions) — a reference that trips
# the limit traps, which silently skips every comparison for that input
# and makes verification vacuous.
ORACLE_MAX_STEPS = 10_000_000


@dataclass
class Behavior:
    """The observable outcome of one program run on one input."""

    output: bytes = b""
    exit_code: int = 0
    globals_image: bytes = b""
    trap: Optional[str] = None  # exception type name when the run trapped

    @property
    def trapped(self) -> bool:
        return self.trap is not None


def clone_program(program: Program) -> Program:
    """Deep-copy every function; share the (immutable-in-practice) globals.

    Optimization never touches :class:`~repro.cfg.block.GlobalData`, so
    sharing the global objects keeps clones cheap while the function
    bodies — the thing passes mutate — are fully independent.
    """
    copy = Program()
    copy.globals = dict(program.globals)
    copy._string_counter = program._string_counter
    for func in program.functions.values():
        copy.add_function(clone_function(func))
    return copy


def capture_behavior(program: Program, inputs: Sequence[bytes]) -> List[Behavior]:
    """Run ``program`` on every input; traps become ``Behavior.trap``.

    Each run stops after :data:`ORACLE_MAX_STEPS` block steps.
    """
    interp = Interpreter(program, max_steps=ORACLE_MAX_STEPS)
    behaviors: List[Behavior] = []
    for stdin in inputs:
        try:
            result = interp.run(stdin=stdin)
        except (
            StepLimitExceeded,
            ZeroDivisionError,
            IndexError,
            MemoryError,
            KeyError,
            NameError,
            ValueError,
        ) as exc:
            behaviors.append(Behavior(trap=type(exc).__name__))
        else:
            behaviors.append(
                Behavior(
                    output=result.output,
                    exit_code=result.exit_code,
                    globals_image=result.globals_image,
                )
            )
    return behaviors


def behavior_diff(reference: Behavior, candidate: Behavior) -> Optional[str]:
    """Describe the first observable divergence, or ``None`` if equivalent.

    A trapped reference run makes the input uncomparable (returns
    ``None``); a trap only on the candidate side is a divergence.
    """
    if reference.trapped:
        return None
    if candidate.trapped:
        return f"optimized program traps ({candidate.trap}); reference ran fine"
    if candidate.output != reference.output:
        return (
            f"stdout differs: expected {reference.output!r}, "
            f"got {candidate.output!r}"
        )
    if candidate.exit_code != reference.exit_code:
        return (
            f"exit code differs: expected {reference.exit_code}, "
            f"got {candidate.exit_code}"
        )
    if candidate.globals_image != reference.globals_image:
        offset = next(
            (
                i
                for i, (a, b) in enumerate(
                    zip(reference.globals_image, candidate.globals_image)
                )
                if a != b
            ),
            min(len(reference.globals_image), len(candidate.globals_image)),
        )
        return f"globals memory differs (first divergent byte at offset {offset})"
    return None


def diff_behaviors(
    reference: Sequence[Behavior], candidate: Sequence[Behavior]
) -> Optional[Dict[str, object]]:
    """First divergence over paired per-input behaviours (``None`` = clean)."""
    for index, (ref, cand) in enumerate(zip(reference, candidate)):
        diff = behavior_diff(ref, cand)
        if diff is not None:
            return {"input_index": index, "diff": diff}
    return None

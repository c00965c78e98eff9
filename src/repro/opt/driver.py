"""The optimizer driver — Figure 3 of the paper.

::

    branch chaining;
    dead code elimination;
    reorder basic blocks to minimize jumps;
    code replication (either JUMPS or LOOPS);
    dead code elimination;

    instruction selection;
    register assignment;
    if (change) instruction selection;
    do {
      register allocation by register coloring;
      instruction selection;
      common subexpression elimination;
      dead variable elimination;
      code motion;
      strength reduction;
      recurrences;
      instruction selection;
      branch chaining;
      constant folding at conditional branches;
      code replication (either JUMPS or LOOPS);
      dead code elimination;
    } while (change);
    filling of delay slots for RISCs;

One deviation, recorded in DESIGN.md: the colouring register allocator
runs *after* the optimization loop instead of inside it, so the loop
optimizes over virtual registers (promotion of memory locals to registers
— VPO's "register allocation" effect — runs inside the loop as in the
figure).  The final replication invocation passes ``allow_irreducible``
to pick up jumps kept for reducibility, as described in §5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..cfg.block import Function, Program
from ..cfg.graph import compute_flow
from ..core.policy import REPLICATIONS
from ..core.replication import CodeReplicator, Policy, ReplicationMode, ReplicationStats
from ..obs import active as _active_observer
from ..targets.delay_slots import fill_delay_slots
from ..targets.machine import Machine, get_target
from .branch_chaining import branch_chaining
from .code_motion import loop_invariant_code_motion
from .const_fold import fold_branches, fold_constants
from .copy_prop import propagate_copies
from .cse import local_cse
from .dead_code import eliminate_dead_code
from .dead_vars import eliminate_dead_variables
from .instruction_selection import combine, legalize
from .reorder import reorder_blocks
from .regalloc import color_registers, promote_locals
from .strength_reduction import strength_reduce

__all__ = [
    "OptimizationConfig",
    "optimize_function",
    "optimize_program",
]

#: Iteration bound on Figure 3's do-while optimization loop.
MAX_ITERATIONS = 8


@dataclass
class OptimizationConfig:
    """What to run: the paper's SIMPLE / LOOPS / JUMPS configurations."""

    #: "none" (SIMPLE), "loops" (LOOPS) or "jumps" (JUMPS).
    replication: str = "none"
    #: Step-2 heuristic for JUMPS.
    policy: Policy = Policy.SHORTEST
    #: §6 future-work bound on replication sequence length (RTLs).
    max_rtls: Optional[int] = None
    #: Fill RISC delay slots at the end (disabled by the profile-guided
    #: extension, which replicates after an instrumented training run).
    fill_delay_slots: bool = True

    def __post_init__(self) -> None:
        if self.replication not in REPLICATIONS:
            raise ValueError(
                f"replication must be none/loops/jumps, got {self.replication!r}"
            )


def optimize_function(
    func: Function,
    target: Machine,
    config: OptimizationConfig,
    verifier=None,
) -> ReplicationStats:
    """Run the Figure-3 pipeline over ``func`` in place.

    Every pass invocation counts ``opt.pass_invocations`` (and
    ``opt.pass_changes``) on the active observer (:func:`repro.obs.active`).
    When that observer records spans, each invocation also becomes an
    ``opt.<pass>`` span nested under an ``opt.function`` root, carrying
    ``rtl_delta``, ``jumps_removed`` and ``changed`` from an RTL / jump
    census around the pass (the one per-pass record;
    :func:`repro.obs.digest.pass_table` folds them).  The census feeds
    only those attributes, so it runs only under spans.

    ``verifier`` is the translation-validation hook object
    (:class:`repro.verify.verifier.Verifier`; a fresh mode-``off`` one
    when none is given): ``allow_pass`` gates every pass invocation — a
    False answer skips the pass, which is how bisection replays stop the
    pipeline after exactly ``k`` invocations — ``after_pass`` sanitizes
    the function once the pass ran, and ``after_sweep`` once each
    replication sweep ran.
    """
    if verifier is None:
        verifier = _default_verifier()
    stats = ReplicationStats()
    obs = _active_observer()
    census = obs.tracer.enabled

    def step(name: str, pass_fn: Callable[[], object]) -> bool:
        if not verifier.allow_pass(func, name):
            return False
        if census:
            rtls_before = func.insn_count()
            jumps_before = func.jump_count()
        with obs.span(f"opt.{name}") as span:
            outcome = bool(pass_fn())
        if census:
            span.set(
                rtl_delta=func.insn_count() - rtls_before,
                jumps_removed=jumps_before - func.jump_count(),
                changed=outcome,
            )
        obs.metrics.inc("opt.pass_invocations")
        if outcome:
            obs.metrics.inc("opt.pass_changes")
        verifier.after_pass(func, name)
        return outcome

    def replicate(allow_irreducible: bool = False) -> bool:
        if config.replication == "none":
            return False
        run_stats = CodeReplicator(
            mode=ReplicationMode(config.replication),
            policy=config.policy,
            max_rtls=config.max_rtls,
            allow_irreducible=allow_irreducible,
            after_sweep=verifier.after_sweep,
        ).run(func)
        stats.merge(run_stats)
        return run_stats.jumps_replaced > 0

    with obs.span(
        "opt.function", function=func.name, replication=config.replication
    ) as function_span:
        # --- prologue --------------------------------------------------------
        step("branch_chaining", lambda: branch_chaining(func))
        step("dead_code", lambda: eliminate_dead_code(func))
        step("reorder_blocks", lambda: reorder_blocks(func))
        step("dead_code", lambda: eliminate_dead_code(func))
        step("replication", replicate)
        step("dead_code", lambda: eliminate_dead_code(func))

        # --- instruction selection & register assignment ----------------------
        step("const_fold", lambda: fold_constants(func))
        step("legalize", lambda: legalize(func, target))
        if step("combine", lambda: combine(func, target)):
            step("legalize", lambda: legalize(func, target))
        step("promote_locals", lambda: promote_locals(func))
        step("legalize", lambda: legalize(func, target))
        step("combine", lambda: combine(func, target))

        # --- the do-while optimization loop -----------------------------------
        iterations = 0
        for _ in range(MAX_ITERATIONS):
            iterations += 1
            changed = False
            changed |= step("local_cse", lambda: local_cse(func, target))
            changed |= step("copy_prop", lambda: propagate_copies(func))
            changed |= step("const_fold", lambda: fold_constants(func))
            changed |= step("legalize", lambda: legalize(func, target))
            changed |= step("dead_vars", lambda: eliminate_dead_variables(func))
            changed |= step("code_motion", lambda: loop_invariant_code_motion(func))
            changed |= step("strength_reduction", lambda: strength_reduce(func))
            changed |= step("legalize", lambda: legalize(func, target))
            changed |= step("combine", lambda: combine(func, target))
            changed |= step("branch_chaining", lambda: branch_chaining(func))
            changed |= step("fold_branches", lambda: fold_branches(func))
            changed |= step("replication", replicate)
            changed |= step("dead_code", lambda: eliminate_dead_code(func))
            if not changed:
                break

        # --- epilogue ----------------------------------------------------------
        if config.replication == "jumps":
            if step("replication_final", lambda: replicate(allow_irreducible=True)):
                step("dead_code", lambda: eliminate_dead_code(func))
                step("dead_vars", lambda: eliminate_dead_variables(func))

        step("regalloc", lambda: color_registers(func, target))
        step("legalize", lambda: legalize(func, target))
        step("dead_code", lambda: eliminate_dead_code(func))
        if target.has_delay_slots and config.fill_delay_slots:
            step("delay_slots", lambda: fill_delay_slots(func))
        compute_flow(func)
        function_span.set(
            iterations=iterations,
            jumps_replaced=stats.jumps_replaced,
            rtls_replicated=stats.rtls_replicated,
        )
    obs.metrics.observe("opt.loop_iterations", iterations)
    return stats


def optimize_program(
    program: Program,
    target,
    config: Optional[OptimizationConfig] = None,
    verifier=None,
) -> ReplicationStats:
    """Optimize every function of ``program``; return merged replication stats.

    The ``verifier`` (see :mod:`repro.verify.verifier`; a fresh
    mode-``off`` one when none is given) sees the whole run: with mode
    ``full`` the pristine program is snapshotted before the first pass
    and the differential oracle re-checks observable behaviour after
    every function and at the end; a divergence raises
    :class:`~repro.verify.errors.MiscompileError` after bisecting to the
    guilty pass.
    """
    if isinstance(target, str):
        target = get_target(target)
    if config is None:
        config = OptimizationConfig()
    if verifier is None:
        verifier = _default_verifier()
    verifier.begin(program, target, config)
    total = ReplicationStats()
    for func in program.functions.values():
        total.merge(optimize_function(func, target, config, verifier))
        verifier.after_function(func)
    verifier.finish()
    return total


def _default_verifier():
    """A fresh ``Verifier("off")``: it keeps a pass trace, so one per run.

    Imported here, not at module level, so that loading the optimizer
    does not load the verification subsystem.
    """
    from ..verify.verifier import Verifier

    return Verifier()

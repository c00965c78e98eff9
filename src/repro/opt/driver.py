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

Profile-guided JUMPS (``OptimizationConfig.profile_threshold``, the §6
extension) runs the figure as SIMPLE, then a training run, then JUMPS on
the hot jumps only and a short cleanup (:func:`_profile_guided_jumps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from ..cfg.block import BasicBlock, Function, Program
from ..core.policy import REPLICATIONS
from ..core.replication import CodeReplicator, Policy, ReplicationMode, ReplicationStats
from ..obs import active as _active_observer
from ..rtl.insn import Jump
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
    #: Profile-guided JUMPS (the §6 extension, after Hwu & Chang's use of
    #: profiling): replicate only jumps executed at least this fraction
    #: of all executed jumps on a training run; ``None`` replicates all.
    profile_threshold: Optional[float] = None
    #: The training run's standard input.  It is part of the config so a
    #: bisection replay profiles the same run again.
    train_stdin: bytes = b""

    def __post_init__(self) -> None:
        if self.replication not in REPLICATIONS:
            raise ValueError(
                f"replication must be none/loops/jumps, got {self.replication!r}"
            )
        if self.profile_threshold is not None and self.replication != "jumps":
            raise ValueError("profile_threshold needs replication='jumps'")


def _step(
    func: Function, verifier, obs, name: str, pass_fn: Callable[[], object]
) -> bool:
    """Run one pass invocation over ``func``; return its "changed" outcome.

    Every invocation counts ``opt.pass_invocations`` (and
    ``opt.pass_changes``) on ``obs``.  When ``obs`` records spans, it
    also becomes an ``opt.<pass>`` span carrying ``rtl_delta``,
    ``jumps_removed`` and ``changed`` from an RTL / jump census around
    the pass (the one per-pass record;
    :func:`repro.obs.digest.pass_table` folds them).  The census feeds
    only those attributes, so it runs only under spans.  ``verifier``
    may skip the pass (``allow_pass``) and sanitizes after it
    (``after_pass``).
    """
    if not verifier.allow_pass(func, name):
        return False
    census = obs.tracer.enabled
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


def _replicate(
    func: Function,
    config: OptimizationConfig,
    verifier,
    stats: ReplicationStats,
    **options,
) -> bool:
    """One replication invocation over ``func``, its counts merged into
    ``stats``; True when it replaced a jump."""
    run = CodeReplicator(
        mode=ReplicationMode(config.replication),
        policy=config.policy,
        max_rtls=config.max_rtls,
        after_sweep=verifier.after_sweep,
        **options,
    ).run(func)
    stats.merge(run)
    return run.jumps_replaced > 0


def optimize_function(
    func: Function,
    target: Machine,
    config: OptimizationConfig,
    verifier=None,
) -> ReplicationStats:
    """Run the Figure-3 pipeline over ``func`` in place.

    Each pass invocation is one :func:`_step`, nested under an
    ``opt.function`` span.  With a ``profile_threshold`` this is the
    part of a profile-guided compile that precedes the training run:
    SIMPLE, without delay slots (:func:`optimize_program` does the rest).

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
    step = partial(_step, func, verifier, obs)
    guided = config.profile_threshold is not None
    replication = "none" if guided else config.replication

    def replicate(**options) -> bool:
        if replication == "none":
            return False
        return _replicate(func, config, verifier, stats, **options)

    with obs.span(
        "opt.function", function=func.name, replication=replication
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
        if replication == "jumps":
            if step("replication_final", lambda: replicate(allow_irreducible=True)):
                step("dead_code", lambda: eliminate_dead_code(func))
                step("dead_vars", lambda: eliminate_dead_variables(func))

        step("regalloc", lambda: color_registers(func, target))
        step("legalize", lambda: legalize(func, target))
        step("dead_code", lambda: eliminate_dead_code(func))
        if target.has_delay_slots and not guided:
            step("delay_slots", lambda: fill_delay_slots(func))
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

    With a ``profile_threshold`` the Figure-3 run (SIMPLE, see
    :func:`optimize_function`) is followed by profile-guided JUMPS
    (:func:`_profile_guided_jumps`).

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
    if config.profile_threshold is not None:
        total.merge(_profile_guided_jumps(program, target, config, verifier))
    verifier.finish()
    return total


def _profile_guided_jumps(
    program: Program, target: Machine, config: OptimizationConfig, verifier
) -> ReplicationStats:
    """Profile-guided JUMPS over a program Figure 3 optimized under SIMPLE.

    One training run on the compiled engine counts each block's
    executions.  A jump is hot when its block ran at least once and at
    least ``profile_threshold`` × (all executed jumps) times, so ``0.0``
    replicates every executed jump and cold code keeps its jumps.  Then,
    per function, JUMPS replaces hot jumps only, and branch chaining,
    dead code, dead variables and delay slots clean up, each a
    :func:`_step`.  The stats count the ``hot_jumps`` and ``cold_jumps``.
    """
    from ..ease.compile import make_interpreter

    engine = make_interpreter(program)
    counts = engine.run(stdin=config.train_stdin).block_counts
    # Every block gets an entry (0 when never executed), so blocks that
    # replication creates later are the ones absent from the profile.
    profile = {
        (name, block.label): counts[engine.global_block_id(name, index)]
        for name, func in program.functions.items()
        for index, block in enumerate(func.blocks)
    }
    cutoff = config.profile_threshold * sum(
        profile[name, block.label]
        for name, func in program.functions.items()
        for block in func.blocks
        if isinstance(block.terminator, Jump)
    )

    def is_hot(func: Function, block: BasicBlock, jump: Optional[Jump] = None) -> bool:
        count = profile.get((func.name, block.label))
        # A copy made by replication inherits its original's hotness (it
        # was only copied because that was hot): its leftover jumps must
        # be finished, not frozen mid-rotation.
        return count is None or (count > 0 and count >= cutoff)

    obs = _active_observer()
    total = ReplicationStats()
    for func in program.functions.values():
        hot = [is_hot(func, b) for b in func.blocks if isinstance(b.terminator, Jump)]
        stats = ReplicationStats(hot_jumps=sum(hot), cold_jumps=len(hot) - sum(hot))
        step = partial(_step, func, verifier, obs)
        with obs.span(
            "opt.function", function=func.name, replication="jumps",
            profile_threshold=config.profile_threshold,
        ):
            step(
                "replication",
                lambda: _replicate(func, config, verifier, stats, jump_filter=is_hot),
            )
            step("branch_chaining", lambda: branch_chaining(func))
            step("dead_code", lambda: eliminate_dead_code(func))
            step("dead_vars", lambda: eliminate_dead_variables(func))
            if target.has_delay_slots:
                step("delay_slots", lambda: fill_delay_slots(func))
        total.merge(stats)
        verifier.after_function(func)
    return total


def _default_verifier():
    """A fresh ``Verifier("off")``: it keeps a pass trace, so one per run.

    Imported here, not at module level, so that loading the optimizer
    does not load the verification subsystem.
    """
    from ..verify.verifier import Verifier

    return Verifier()

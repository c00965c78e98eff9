"""Profile-guided code replication (extension).

The paper replicates *every* unconditional jump and pays an average 53 %
static growth; its related-work section cites Hwu & Chang's use of
profiling to bound the growth of inlining.  This extension applies the
same idea to replication:

1. the program is fully optimized under SIMPLE (without delay slots) and
   executed once on a training input, recording per-block execution
   counts;
2. JUMPS then runs with a filter that only replaces jumps whose block
   executed at least ``threshold`` × (total executed jumps) times —
   replication goes where the dynamic savings are;
3. a light cleanup (branch chaining, dead code, dead variables) and
   delay-slot filling finish the job.

``threshold=0`` replicates everything measured as executed at least once
(cold code keeps its jumps); higher thresholds trade dynamic savings for
smaller static growth.  The ablation harness
``benchmarks/bench_ablation_profile.py`` sweeps the threshold.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..cfg.block import BasicBlock, Function, Program
from ..ease.interp import Interpreter
from ..opt.branch_chaining import branch_chaining
from ..opt.dead_code import eliminate_dead_code
from ..opt.dead_vars import eliminate_dead_variables
from ..opt.driver import OptimizationConfig, optimize_program
from ..rtl.insn import Jump
from ..targets.delay_slots import fill_delay_slots
from ..targets.machine import Machine, get_target
from .replication import CodeReplicator, Policy, ReplicationMode, ReplicationStats

__all__ = ["profile_guided_replication", "ProfileGuidedResult"]


class ProfileGuidedResult:
    """Outcome of a profile-guided compile."""

    def __init__(
        self,
        program: Program,
        stats: ReplicationStats,
        profile: Dict[Tuple[str, str], int],
        hot_jumps: int,
        cold_jumps: int,
    ) -> None:
        self.program = program
        self.stats = stats
        self.profile = profile
        self.hot_jumps = hot_jumps
        self.cold_jumps = cold_jumps


def _collect_profile(
    program: Program, stdin: bytes, max_steps: int
) -> Dict[Tuple[str, str], int]:
    """(function, block label) -> execution count, from one training run."""
    interp = Interpreter(program, max_steps=max_steps)
    result = interp.run(stdin=stdin)
    # Every existing block gets an entry (0 when never executed) so that
    # blocks *created later by replication* are distinguishable: they are
    # absent from the profile entirely.
    profile: Dict[Tuple[str, str], int] = {
        (name, block.label): 0
        for name, func in program.functions.items()
        for block in func.blocks
    }
    for (func_name, block_index), count in result.block_counts.items():
        label = program.functions[func_name].blocks[block_index].label
        profile[(func_name, label)] = count
    return profile


def profile_guided_replication(
    program: Program,
    target: Machine,
    train_stdin: bytes = b"",
    threshold: float = 0.0,
    policy: Policy = Policy.SHORTEST,
    max_rtls: Optional[int] = None,
    max_steps: int = 200_000_000,
) -> ProfileGuidedResult:
    """Optimize ``program`` in place with profile-guided JUMPS.

    :param threshold: minimum fraction of the program's executed jumps a
        jump must account for to be replicated.  ``0.0`` means "executed
        at least once".
    """
    if isinstance(target, str):
        target = get_target(target)

    # Phase 1: SIMPLE optimization without delay slots, then profile.
    config = OptimizationConfig(replication="none", fill_delay_slots=False)
    optimize_program(program, target, config)
    profile = _collect_profile(program, train_stdin, max_steps)

    # Total executed jumps define the hotness scale.
    total_jumps = 0
    for name, func in program.functions.items():
        for block in func.blocks:
            if isinstance(block.terminator, Jump):
                total_jumps += profile.get((name, block.label), 0)
    cutoff = threshold * total_jumps

    hot = 0
    cold = 0
    for name, func in program.functions.items():
        for block in func.blocks:
            if isinstance(block.terminator, Jump):
                count = profile.get((name, block.label), 0)
                if count > 0 and count >= cutoff:
                    hot += 1
                else:
                    cold += 1

    # Phase 2: replicate only the hot jumps.
    stats = ReplicationStats()
    for name, func in program.functions.items():

        def is_hot(func_: Function, block: BasicBlock, jump: Jump, _name=name) -> bool:
            count = profile.get((_name, block.label))
            if count is None:
                # A block created by replication inherits its original's
                # hotness (it was only copied because that was hot); its
                # leftover jumps must be finished, not frozen mid-rotation.
                return True
            return count > 0 and count >= cutoff

        replicator = CodeReplicator(
            mode=ReplicationMode.JUMPS,
            policy=policy,
            max_rtls=max_rtls,
            jump_filter=is_hot,
        )
        stats.merge(replicator.run(func))

    # Phase 3: cleanup and delay slots.
    for func in program.functions.values():
        branch_chaining(func)
        eliminate_dead_code(func)
        eliminate_dead_variables(func)
        if target.has_delay_slots:
            fill_delay_slots(func)
    return ProfileGuidedResult(program, stats, profile, hot, cold)

"""The code-replication engine (steps 2–6 of the JUMPS algorithm).

Given an unconditional jump at the end of a block, the engine:

* selects a replacement sequence of blocks (step 2; two options — "favoring
  returns" and "favoring loops" — arbitrated by a policy heuristic),
* completes natural loops entered by the sequence (step 3, Figure 1),
* copies the sequence after the jump block and adjusts the control flow:
  intra-sequence jumps vanish into fall-throughs, conditional branches are
  reversed when the copy does not follow the fall-through transition, and
  duplicate occurrences prefer forward branches (step 4),
* retargets conditional branches of uncopied blocks of a partially copied
  loop to the copies (step 5, Figure 2),
* verifies that the flow graph is still reducible and rolls the replication
  back otherwise, retrying with the alternative sequence (step 6).

The same engine implements the paper's LOOPS configuration (classic
replication of loop termination conditions) by restricting the admissible
sequences; see :class:`ReplicationMode`.

Loop completion (step 3), as implemented here, triggers when a collected
block is a natural-loop header entered from outside the loop *and* partial
replication would leave the original loop with a second entry point.  When
the consumed jump was the loop's only external entry the loop simply
rotates (the common for/while rotation of §3.1) and no completion is
needed; the reducibility check of step 6 backs this heuristic up.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, fields
from typing import Callable, List, Optional, Sequence, Tuple

from ..cfg.analyses import get_analyses
from ..cfg.block import BasicBlock, Function
from ..cfg.graph import compute_flow
from ..cfg.loops import Loop, LoopInfo
from ..obs import active as _active_observer
from ..obs.decisions import ReplicationDecision
from ..rtl.insn import CondBranch, IndirectJump, Jump, Return
from .policy import POLICIES, Policy
from .shortest_path import ShortestPaths

__all__ = [
    "ReplicationMode",
    "Policy",
    "POLICIES",
    "ReplicationStats",
    "CodeReplicator",
    "clone_function",
]

# The two safety valves.  The convergence guard alone makes every run
# terminate (see :meth:`CodeReplicator._replace_jump`); these bound a
# run's growth as backstops only.  :meth:`CodeReplicator.run` reads
# them as it goes, so patching this module changes the next run.
#: Replacements one run may make before it stops mid-progress.
MAX_REPLICATIONS = 2000
#: Block count at which a run stops growing its function.
MAX_FUNCTION_BLOCKS = 4000


class ReplicationMode(enum.Enum):
    """Which configuration of the paper is being run."""

    JUMPS = "jumps"  # the generalized algorithm of §4
    LOOPS = "loops"  # only loop termination conditions (§5, "LOOPS")


@dataclass
class ReplicationStats:
    """Counters describing what one engine run did.

    :meth:`merge` folds another run in by iterating
    ``dataclasses.fields``, so a counter added to this class is merged
    automatically — a regression test asserts no field can be silently
    dropped when stats from per-function runs are combined (e.g. by
    :func:`repro.opt.driver.optimize_program`).
    """

    jumps_replaced: int = 0
    rtls_replicated: int = 0
    rollbacks: int = 0
    jumps_kept: int = 0
    #: Times the block-count safety valve ended a run early (the function
    #: grew to :data:`MAX_FUNCTION_BLOCKS`).  A non-zero count means remaining
    #: jumps are a bounded-growth artifact, not an algorithmic leftover.
    valve_block_trips: int = 0
    #: Times the per-run replication budget ran out while sweeps were
    #: still finding work.  Kept separate from the block valve so callers
    #: can tell "the function exploded" from "the run was cut short".
    valve_budget_trips: int = 0
    #: Jumps the convergence guard refused because their identity already
    #: appeared in their own block's replication ancestry — the §5.2
    #: "replication ad infinitum" self-similarity, stopped at its root
    #: rather than by a growth valve.
    guard_stops: int = 0
    #: Profile-guided JUMPS only: jumps whose block the training run
    #: executed often enough to replicate, and the rest.
    hot_jumps: int = 0
    cold_jumps: int = 0

    @property
    def valve_trips(self) -> int:
        """Total safety-valve trips (block cap + budget), either cause."""
        return self.valve_block_trips + self.valve_budget_trips

    def merge(self, other: "ReplicationStats") -> None:
        for spec in fields(self):
            setattr(
                self,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )

    def as_dict(self) -> dict:
        data = asdict(self)
        data["valve_trips"] = self.valve_trips
        return data

    def __repr__(self) -> str:
        return (
            f"<ReplicationStats replaced={self.jumps_replaced} "
            f"rtls={self.rtls_replicated} rollbacks={self.rollbacks} "
            f"kept={self.jumps_kept}>"
        )


def clone_function(func: Function) -> Function:
    """Deep-copy a function (blocks, instructions, frame layout)."""
    copy = Function(func.name, func.params)
    copy.frame = dict(func.frame)
    copy.frame_size = func.frame_size
    # Carry the label counter so a clone generates the same fresh labels
    # the original would — deterministic replay (pass bisection in the
    # translation validator) relies on it.
    copy._next_label = func._next_label
    copy.blocks = []
    for block in func.blocks:
        cloned = BasicBlock(block.label, [insn.clone() for insn in block.insns])
        # Replication provenance must survive cloning: the convergence
        # guard's decisions (and hence the whole replay) depend on it.
        cloned.replica_origin = block.replica_origin
        cloned.replica_ancestry = block.replica_ancestry
        copy.blocks.append(cloned)
    compute_flow(copy)
    return copy


def _no_sweep_hook(func: Function, sweep: int) -> None:
    """The default ``after_sweep``: nothing to check."""


class CodeReplicator:
    """Applies code replication to one function until no jump can be replaced.

    The one way to run either configuration of Figure 3's "code
    replication (either JUMPS or LOOPS)" step::

        CodeReplicator().run(func)                       # JUMPS (§4)
        CodeReplicator(ReplicationMode.LOOPS).run(func)  # LOOPS (§5)

    LOOPS is the conventional replication of loop termination tests: a
    single-block favoring-loops sequence ending in the loop's
    conditional branch (see :meth:`_admissible`).  So in that mode the
    step-2 policy is always :attr:`Policy.FAVOR_LOOPS` and the §6
    ``max_rtls`` bound does not apply; the arguments are ignored.
    """

    def __init__(
        self,
        mode: ReplicationMode = ReplicationMode.JUMPS,
        policy: Policy = Policy.SHORTEST,
        max_rtls: Optional[int] = None,
        allow_irreducible: bool = False,
        jump_filter: Optional[
            Callable[[Function, BasicBlock, Jump], bool]
        ] = None,
        after_sweep: Callable[[Function, int], None] = _no_sweep_hook,
    ) -> None:
        loops = mode is ReplicationMode.LOOPS
        self.mode = mode
        self.policy = Policy.FAVOR_LOOPS if loops else policy
        self.max_rtls = None if loops else max_rtls
        self.allow_irreducible = allow_irreducible
        # Optional predicate deciding whether a particular jump should be
        # replaced at all — the hook used by profile-guided JUMPS.
        self.jump_filter = jump_filter
        # Called as ``after_sweep(func, sweep_number)`` once each sweep
        # finishes — the translation validator sanitizes the CFG here.
        self.after_sweep = after_sweep

    # ------------------------------------------------------------------ driver

    def run(self, func: Function) -> ReplicationStats:
        """Replace unconditional jumps in ``func``; return statistics."""
        stats = ReplicationStats()
        obs = _active_observer()
        budget = MAX_REPLICATIONS
        progress = True
        sweep = 0
        while progress and budget > 0:
            if len(func.blocks) >= MAX_FUNCTION_BLOCKS:
                stats.valve_block_trips += 1
                self._record_valve(obs, "max_function_blocks")
                break
            progress = False
            sweep += 1
            with obs.span("jumps.sweep", function=func.name, sweep=sweep):
                with obs.span("jumps.step1.shortest_paths"):
                    paths = ShortestPaths(func)  # step 1
                # Step 2: traverse the blocks sequentially.  The snapshot stays
                # valid across replacements within one sweep: replication only
                # adds blocks, so recorded shortest paths remain intact.
                position = 0
                while position < len(func.blocks) and budget > 0:
                    block = func.blocks[position]
                    term = block.terminator
                    # The final, allow_irreducible invocation retries jumps
                    # that earlier passes flagged as unreplaceable (§5.1).
                    if isinstance(term, Jump) and (
                        self.allow_irreducible or not term.no_replicate
                    ):
                        if self._replace_jump(
                            func, position, term, paths, stats, obs
                        ):
                            progress = True
                            budget -= 1
                    position += 1
            self.after_sweep(func, sweep)
        if progress and budget <= 0:
            # The replication budget ran out while sweeps were still
            # finding work — the cascade valve, not a fixpoint.
            stats.valve_budget_trips += 1
            self._record_valve(obs, "budget_exhausted")
        return stats

    @staticmethod
    def _record_valve(obs, reason: str) -> None:
        """Count a valve trip, labelled by cause (the two are distinct:
        ``max_function_blocks`` means the function grew to
        :data:`MAX_FUNCTION_BLOCKS`,
        ``budget_exhausted`` means the run was cut short mid-progress).
        A trip is not a decision about a jump, so the log records none."""
        obs.metrics.inc("replication.valve_trips")
        obs.metrics.inc(f"replication.valve_trips.{reason}")

    # ----------------------------------------------------------- jump handling

    def _replace_jump(
        self,
        func: Function,
        position: int,
        jump: Jump,
        paths: ShortestPaths,
        stats: ReplicationStats,
        obs,
    ) -> bool:
        """Try to replace ``jump``, the terminator of ``func.blocks[position]``."""
        block = func.blocks[position]

        def decide(outcome: str, reason: str = "", **extra) -> None:
            """Emit one decision-log event + outcome counters."""
            obs.metrics.inc(f"replication.{outcome}")
            if reason:
                obs.metrics.inc(f"replication.reason.{reason}")
            if obs.decisions.enabled:
                obs.decisions.record(
                    ReplicationDecision(
                        function=func.name,
                        block=block.label,
                        target=jump.target,
                        mode=self.mode.value,
                        policy=self.policy.value,
                        outcome=outcome,
                        reason=reason,
                        **extra,
                    )
                )

        if self.jump_filter is not None and not self.jump_filter(
            func, block, jump
        ):
            decide("kept", "filtered")
            return False
        target = block.succs[0]
        if target is block:
            # A jump to the start of its own block: an infinite loop.  The
            # paper notes these provide no replacement opportunity.
            decide("kept", "self_loop")
            return False
        follow = (
            func.blocks[position + 1] if position + 1 < len(func.blocks) else None
        )
        if id(target) not in paths.index and target is not follow:
            # The target was created by a replication during this sweep and
            # is not in the snapshot yet; retry with a fresh one next sweep.
            decide("kept", "stale_target")
            return False

        # A jump straight to the next block is simply redundant.
        if target is follow:
            block.insns.pop()  # the fall-through edge is the jump's edge
            stats.jumps_replaced += 1
            decide("redundant")
            return True

        # Convergence guard (§5.2): the jump's identity is the pair of
        # *original* labels it stands for, stable across replication
        # copies.  If that identity is already in this block's ancestry,
        # the block exists only because this very jump was replicated
        # before — copying it again is the self-similar expansion that
        # never reaches a fixpoint.  Jump identities are drawn from the
        # finite set of original label pairs and every replica's ancestry
        # strictly grows, so the guard alone makes every run terminate;
        # the block/budget valves remain as backstops only.
        identity = (block.origin_label, target.origin_label)
        if identity in block.replica_ancestry:
            jump.no_replicate = True
            stats.jumps_kept += 1
            stats.guard_stops += 1
            obs.metrics.inc("replication.convergence_guard")
            decide("kept", "convergence_guard")
            return False

        loops = get_analyses(func).loops()
        with obs.span("jumps.step2.select", block=block.label) as select_span:
            options = self._candidate_sequences(target, follow, paths)
        select_span.set(options=len(options))
        attempts = 0
        rollbacks = 0
        last_reason = "no_candidates"
        last_kind = ""
        last_blocks = 0
        last_rtls = 0
        for sequence, ends_by_fallthrough in options:
            attempts += 1
            last_kind = "fallthrough" if ends_by_fallthrough else "returns"
            with obs.span("jumps.step3.complete_loops"):
                completed = self._complete_loops(func, block, sequence, loops)
            if completed is None:
                last_reason = "loop_completion"
                last_blocks = len(sequence)
                last_rtls = sum(b.size() for b in sequence)
                continue
            last_blocks = len(completed)
            last_rtls = sum(b.size() for b in completed)
            if self.max_rtls is not None and last_rtls > self.max_rtls:
                last_reason = "max_rtls"
                continue
            if not self._admissible(block, completed, follow, loops, ends_by_fallthrough):
                last_reason = "inadmissible"
                continue
            with obs.span("jumps.step4_5.apply", blocks=last_blocks):
                undo, copies = self._apply(
                    func,
                    position,
                    completed,
                    follow,
                    ends_by_fallthrough,
                    loops,
                    identity,
                )
            with obs.span("jumps.step6.reducibility"):
                reducible = self.allow_irreducible or get_analyses(func).reducible()
            if reducible:
                stats.jumps_replaced += 1
                stats.rtls_replicated += last_rtls
                decide(
                    "accepted",
                    sequence_kind=last_kind,
                    sequence_blocks=last_blocks,
                    sequence_rtls=last_rtls,
                    attempts=attempts,
                    rollbacks=rollbacks,
                    copies=copies,
                )
                obs.metrics.inc("replication.rtls_replicated", last_rtls)
                obs.metrics.observe("replication.sequence_rtls", last_rtls)
                obs.metrics.observe("replication.sequence_blocks", last_blocks)
                return True
            undo()  # step 6: roll back and try the alternative sequence
            stats.rollbacks += 1
            rollbacks += 1
            obs.metrics.inc("replication.rollback")
            last_reason = "irreducible"
        jump.no_replicate = True
        stats.jumps_kept += 1
        decide(
            "rejected",
            last_reason,
            sequence_kind=last_kind,
            sequence_blocks=last_blocks,
            sequence_rtls=last_rtls,
            attempts=attempts,
            rollbacks=rollbacks,
        )
        return False

    def _candidate_sequences(
        self,
        target: BasicBlock,
        follow: Optional[BasicBlock],
        paths: ShortestPaths,
    ) -> List[Tuple[List[BasicBlock], bool]]:
        """The (sequence, ends-by-falling-through) options, in policy order."""
        to_return = paths.shortest_sequence_to_return(target)
        to_follow = (
            paths.shortest_sequence_to_fallthrough(target, follow)
            if follow is not None
            else None
        )
        options: List[Tuple[List[BasicBlock], bool]] = []
        if to_return is not None:
            options.append((to_return, False))
        if to_follow is not None:
            options.append((to_follow, True))
        if len(options) == 2:
            if self.policy is Policy.SHORTEST:
                options.sort(key=lambda item: sum(b.size() for b in item[0]))
            elif self.policy is Policy.FAVOR_RETURNS:
                options.sort(key=lambda item: item[1])
            else:  # Policy.FAVOR_LOOPS
                options.sort(key=lambda item: not item[1])
        return options

    def _admissible(
        self,
        block: BasicBlock,
        sequence: List[BasicBlock],
        follow: Optional[BasicBlock],
        loops: LoopInfo,
        ends_by_fallthrough: bool,
    ) -> bool:
        """Mode restriction: LOOPS only replicates loop termination tests."""
        if self.mode is ReplicationMode.JUMPS:
            return True
        # LOOPS: a single block, ending in a conditional branch, that is the
        # test of a natural loop adjacent to the jump — i.e. the jump either
        # precedes the loop (rotating a for/while loop) or sits at the end of
        # the loop (moving the test to the bottom).
        if not ends_by_fallthrough or len(sequence) != 1:
            return False
        test = sequence[0]
        if not test.ends_in_cond_branch():
            return False
        for loop in loops.loops_containing(test):
            if block in loop.blocks:
                return True  # the jump is the loop's back edge
            if follow is not None and follow in loop.blocks:
                return True  # the jump precedes the loop, falling into it
        return False

    # ------------------------------------------------------------ step 3: loops

    def _complete_loops(
        self,
        func: Function,
        jump_block: BasicBlock,
        sequence: Sequence[BasicBlock],
        loops: LoopInfo,
    ) -> Optional[List[BasicBlock]]:
        """Step 3: pull whole natural loops into the sequence (Figure 1)."""
        result: List[BasicBlock] = []
        previous = jump_block
        index = 0
        items = list(sequence)
        while index < len(items):
            collected = items[index]
            loop = loops.loop_with_header(collected)
            if (
                loop is not None
                and previous not in loop.blocks
                and self._completion_needed(collected, loop, jump_block, index == 0)
            ):
                members = loop.members
                # The copied control flow must still *enter* at the collected
                # header, so rotate the positional order to start there.
                start = next(i for i, m in enumerate(members) if m is collected)
                members = members[start:] + members[:start]
                result.extend(members)
                index += 1
                # Path blocks inside the loop are already part of the splice.
                while index < len(items) and items[index] in loop.blocks:
                    index += 1
                previous = members[-1]
                continue
            result.append(collected)
            previous = collected
            index += 1
            if len(result) > 4 * len(func.blocks) + 8:
                return None  # pathological growth; refuse this sequence
        return result

    @staticmethod
    def _completion_needed(
        header: BasicBlock, loop: Loop, jump_block: BasicBlock, first: bool
    ) -> bool:
        """Does partial replication leave the original loop with two entries?

        For a mid-sequence header the original entry edges are untouched, so
        the copy's residual edges into the loop always add a second entry:
        complete.  For the *first* collected block the jump edge itself is
        consumed; if that was the only entry from outside, the loop merely
        rotates and no completion is required (the for/while rotation case
        of §3.1).
        """
        if not first:
            return True
        external_preds = [
            pred
            for pred in header.preds
            if pred not in loop.blocks and pred is not jump_block
        ]
        return bool(external_preds)

    # --------------------------------------------------- steps 4/5: application

    def _apply(
        self,
        func: Function,
        jump_at: int,
        sequence: List[BasicBlock],
        follow: Optional[BasicBlock],
        ends_by_fallthrough: bool,
        loops: LoopInfo,
        identity: Tuple[str, str],
    ) -> Tuple[Callable[[], None], List[str]]:
        """Copy ``sequence`` after ``func.blocks[jump_at]``, the jump block,
        and rewire the control flow.

        ``identity`` is the replicated jump's identity — the (origin,
        origin) label pair — recorded in every created block's ancestry
        so the convergence guard can recognize self-similar expansion.

        Returns an ``undo`` callable restoring the function exactly (used
        by the step-6 reducibility rollback) plus the labels of the new
        blocks (replica copies and branch stubs) for the decision log.
        """
        jump_block = func.blocks[jump_at]
        copies = [BasicBlock(func.new_label()) for _ in sequence]

        def map_target(position: int, original: BasicBlock) -> str:
            """Step 4/5 target mapping: nearest forward copy first, then the
            nearest backward copy (loop back edges), then the original."""
            for j in range(position + 1, len(sequence)):
                if sequence[j] is original:
                    return copies[j].label
            for j in range(position, -1, -1):
                if sequence[j] is original:
                    return copies[j].label
            return original.label

        new_blocks: List[BasicBlock] = []
        for position, (original, copy) in enumerate(zip(sequence, copies)):
            term = original.terminator
            body = original.insns[:-1] if term is not None else original.insns
            copy.insns.extend(insn.clone() for insn in body)
            if position + 1 < len(copies):
                next_label: Optional[str] = copies[position + 1].label
            elif ends_by_fallthrough and follow is not None:
                next_label = follow.label
            else:
                next_label = None
            stub = self._finish_copy(
                func, original, copy, term, position, next_label, map_target
            )
            # Provenance: each copy descends from everything its source
            # block and the jump block descend from, plus this very
            # replication event.  The guard stopped any jump whose
            # identity was already in ``jump_block``'s ancestry, so the
            # copies' ancestry strictly grows along creation chains —
            # the termination argument rests on that.
            ancestry = (
                jump_block.replica_ancestry
                | original.replica_ancestry
                | {identity}
            )
            copy.replica_origin = original.origin_label
            copy.replica_ancestry = ancestry
            new_blocks.append(copy)
            if stub is not None:
                # The stub materializes the fall-through edge of the
                # copied conditional branch; it belongs to the same copy.
                stub.replica_origin = original.origin_label
                stub.replica_ancestry = ancestry
                new_blocks.append(stub)

        # Consume the jump only *after* the copies are built: loop
        # completion can splice ``jump_block`` itself into the sequence
        # (the jump's loop contains it), and its copy must replicate the
        # jump like any other — popping first would build that copy from
        # a terminator-less block, silently dropping the copied back
        # edge and falling through into unrelated code.
        removed_jump = jump_block.insns.pop()
        insert_at = jump_at + 1
        func.blocks[insert_at:insert_at] = new_blocks

        # Step 5: retarget conditional branches of uncopied blocks of a
        # partially copied loop to the copies (Figure 2).
        retargets: List[Tuple[CondBranch, str]] = []
        jump_loop = loops.innermost_loop_of(jump_block)
        if jump_loop is not None:
            copied_in_loop = {}
            for i, original in enumerate(sequence):
                if original in jump_loop.blocks and id(original) not in copied_in_loop:
                    copied_in_loop[id(original)] = copies[i].label
            for member in jump_loop.blocks:
                if member is jump_block or any(member is b for b in sequence):
                    continue
                term = member.terminator
                if isinstance(term, CondBranch):
                    # ``succs`` still describes the layout before the
                    # insertion: its taken edge is the branch's target.
                    new_label = copied_in_loop.get(id(member.succs[1]))
                    if new_label is not None:
                        retargets.append((term, term.target))
                        term.target = new_label
        compute_flow(func)

        def undo() -> None:
            del func.blocks[insert_at : insert_at + len(new_blocks)]
            jump_block.insns.append(removed_jump)
            for branch, old_target in retargets:
                branch.target = old_target
            compute_flow(func)

        return undo, [b.label for b in new_blocks]

    def _finish_copy(
        self,
        func: Function,
        original: BasicBlock,
        copy: BasicBlock,
        term,
        position: int,
        next_label: Optional[str],
        map_target: Callable[[int, BasicBlock], str],
    ) -> Optional[BasicBlock]:
        """Append the rewritten terminator to ``copy`` (step 4).

        ``next_label`` is the label of the block that will positionally
        follow the copy.  Returns an extra stub block when the copy needs
        both a conditional branch and an unconditional jump (possible only
        for spliced loop members whose layout neighbours were not copied).
        """
        if term is None:
            # The original fell through to its positional successor.
            mapped = map_target(position, original.succs[0])
            if mapped != next_label:
                copy.insns.append(Jump(mapped))
            return None
        if isinstance(term, Return):
            copy.insns.append(term.clone())
            return None
        if isinstance(term, Jump):
            mapped = map_target(position, original.succs[0])
            if mapped != next_label:
                # Cannot fall through (e.g. a completed loop's back edge):
                # keep an explicit jump; a later sweep may replace it too.
                copy.insns.append(Jump(mapped))
            return None
        if isinstance(term, CondBranch):
            fall, taken = original.succs
            mapped_taken = map_target(position, taken)
            mapped_fall = map_target(position, fall)
            if mapped_fall == next_label:
                copy.insns.append(CondBranch(term.rel, mapped_taken))
                return None
            if mapped_taken == next_label:
                # Step 4: reverse the branch when the copied path follows the
                # branch-taken transition instead of the fall-through.
                reversed_branch = term.clone()
                reversed_branch.reverse(mapped_fall)
                copy.insns.append(reversed_branch)
                return None
            copy.insns.append(CondBranch(term.rel, mapped_taken))
            return BasicBlock(func.new_label(), [Jump(mapped_fall)])
        if isinstance(term, IndirectJump):
            # Shortest paths never route *through* an indirect jump (step 1
            # excludes its edges), but loop completion may pull one in as a
            # loop member.  Copying it is safe: the jump table's labels map
            # like any other target (the §6 future-work extension notes
            # "the jump destinations do not need to be copied").
            mapped_targets = [map_target(position, succ) for succ in original.succs]
            copy.insns.append(IndirectJump(term.addr, mapped_targets))
            return None
        raise AssertionError(f"cannot replicate terminator {term!r}")

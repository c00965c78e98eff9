"""Behavioural tests of the replication engine (JUMPS and LOOPS)."""

import pytest

from repro.cfg import find_loops, is_reducible
from repro.core import (
    CodeReplicator,
    Policy,
    ReplicationMode,
    clone_function,
)
from repro.rtl import Jump
from repro.verify import check_sanitized
from tests.conftest import function_from_text
from tests.core.valves import valves


MID_EXIT_LOOP = """
  d[1]=1;
L15:
  d[0]=d[1];
  a[0]=a[0]+1;
  d[1]=d[1]+1;
  NZ=d[0]?L[_n.];
  PC=NZ>=0,L16;
  B[a[0]]=B[a[0]+1];
  PC=L15;
L16:
  PC=RT;
"""

IF_THEN_ELSE = """
  NZ=L[FP+i.]?5;
  PC=NZ<=0,L22;
  d[0]=L[FP+i.];
  d[0]=d[0]/L[FP+n.];
  L[FP+i.]=d[0];
  PC=L23;
L22:
  d[0]=L[FP+i.];
  d[0]=d[0]*L[FP+n.];
  L[FP+i.]=d[0];
L23:
  a[6]=L[FP+old.];
  PC=RT;
"""

FOR_LOOP = """
  d[0]=0;
  PC=L2;
L1:
  d[1]=d[1]+d[0];
  d[0]=d[0]+1;
L2:
  NZ=d[0]?10;
  PC=NZ<0,L1;
  PC=RT;
"""

WHILE_LOOP = """
L1:
  NZ=d[0]?10;
  PC=NZ>=0,L2;
  d[0]=d[0]+1;
  PC=L1;
L2:
  PC=RT;
"""


def framed_function(text: str):
    """``function_from_text`` plus frame slots for the locals
    IF_THEN_ELSE addresses, so the sanitizer sees a complete function."""
    func = function_from_text("f", text)
    for name in ("i", "n", "old"):
        func.add_local(name, 4)
    return func


class TestJumps:
    @pytest.mark.parametrize(
        "text", [MID_EXIT_LOOP, IF_THEN_ELSE, FOR_LOOP, WHILE_LOOP]
    )
    def test_all_jumps_eliminated(self, text):
        func = framed_function(text)
        stats = CodeReplicator().run(func)
        check_sanitized(func, "jumps")
        assert func.jump_count() == 0
        assert stats.jumps_replaced >= 1
        assert is_reducible(func)

    def test_table2_paths_return_separately(self):
        func = function_from_text("f", IF_THEN_ELSE)
        CodeReplicator().run(func)
        returns = [b for b in func.blocks if b.ends_in_return()]
        assert len(returns) == 2

    def test_mid_exit_loop_rotated(self):
        # Table 1: the copied test branches *back into* the loop with the
        # relation reversed, and the loop loses its per-iteration jump.
        func = function_from_text("f", MID_EXIT_LOOP)
        before_relations = [
            insn.rel for insn in func.insns() if hasattr(insn, "rel")
        ]
        CodeReplicator().run(func)
        after_relations = [
            insn.rel for insn in func.insns() if hasattr(insn, "rel")
        ]
        assert before_relations == [">="]
        assert sorted(after_relations) == ["<", ">="]
        loops = find_loops(func)
        assert len(loops.loops) == 1
        # The loop no longer contains an unconditional jump.
        for block in loops.loops[0].blocks:
            assert not block.ends_in_jump()

    def test_jump_to_next_block_simply_removed(self):
        func = function_from_text(
            "f",
            """
            d[0]=1;
            PC=L1;
            L1:
              PC=RT;
            """,
        )
        stats = CodeReplicator().run(func)
        assert stats.jumps_replaced == 1
        assert stats.rtls_replicated == 0
        assert func.jump_count() == 0

    def test_infinite_loop_jump_kept(self):
        func = function_from_text(
            "f",
            """
            L1:
              d[0]=d[0]+1;
              PC=L1;
            """,
        )
        CodeReplicator().run(func)
        assert func.jump_count() == 1  # nothing can replace it (§5.2)

    def test_jump_to_indirect_jump_kept(self):
        # Paths containing indirect jumps are excluded from replication.
        func = function_from_text(
            "f",
            """
            d[0]=1;
            PC=L5;
            d[1]=2;
            L5:
              PC=L[a[0]]<L6,L7>;
            L6:
              PC=RT;
            L7:
              PC=RT;
            """,
        )
        stats = CodeReplicator().run(func)
        assert func.jump_count() == 1
        assert stats.jumps_kept >= 1

    def test_max_rtls_limits_replication(self):
        # §6 future work: bounding the replication sequence length.
        func = function_from_text("f", IF_THEN_ELSE)
        stats = CodeReplicator(max_rtls=1).run(func)
        assert stats.jumps_replaced == 0
        assert func.jump_count() == 1

    def test_semantic_instruction_multiset_grows_only(self):
        # Replication may only *copy* instructions, never remove non-jump
        # ones: every non-transfer RTL of the original must still be there.
        func = function_from_text("f", MID_EXIT_LOOP)
        original = clone_function(func)
        CodeReplicator().run(func)
        original_texts = [
            repr(i) for b in original.blocks for i in b.insns if not i.is_transfer()
        ]
        new_texts = [
            repr(i) for b in func.blocks for i in b.insns if not i.is_transfer()
        ]
        for text in set(original_texts):
            assert new_texts.count(text) >= original_texts.count(text)

    def test_policy_favor_returns_prefers_return_sequences(self):
        # A jump whose target can either reach a return (long) or fall into
        # the follow block (short): FAVOR_RETURNS picks the return even
        # though it replicates more RTLs.
        text = """
        d[0]=0;
        PC=L2;
        L1:
          d[1]=d[1]+d[0];
          d[0]=d[0]+1;
        L2:
          NZ=d[0]?10;
          PC=NZ<0,L1;
          d[7]=1;
          d[7]=2;
          d[7]=3;
          PC=RT;
        """
        func_loops = function_from_text("f", text)
        func_returns = function_from_text("f", text)
        stats_loops = CodeReplicator(policy=Policy.FAVOR_LOOPS).run(func_loops)
        stats_returns = CodeReplicator(policy=Policy.FAVOR_RETURNS).run(func_returns)
        assert stats_returns.rtls_replicated > stats_loops.rtls_replicated

    def test_replication_count_capped(self):
        replicator = CodeReplicator()
        func = function_from_text("f", IF_THEN_ELSE)
        func2 = function_from_text("g", MID_EXIT_LOOP)
        with valves(replications=1):
            stats = replicator.run(func)
            stats2 = replicator.run(func2)
        assert stats.jumps_replaced <= 1
        assert stats2.jumps_replaced <= 1


class TestLoopsMode:
    def test_for_loop_rotation(self):
        func = function_from_text("f", FOR_LOOP)
        stats = CodeReplicator(ReplicationMode.LOOPS).run(func)
        check_sanitized(func, "loops")
        assert stats.jumps_replaced == 1
        assert func.jump_count() == 0
        # The test block now appears twice: before the body and at the end.
        compares = sum(1 for i in func.insns() if type(i).__name__ == "Compare")
        assert compares == 2

    def test_while_loop_backjump_replaced(self):
        func = function_from_text("f", WHILE_LOOP)
        stats = CodeReplicator(ReplicationMode.LOOPS).run(func)
        assert stats.jumps_replaced == 1
        assert func.jump_count() == 0

    def test_if_then_else_not_touched_by_loops_mode(self):
        # LOOPS only replicates loop termination conditions; the jump over
        # an else-part stays.
        func = function_from_text("f", IF_THEN_ELSE)
        stats = CodeReplicator(ReplicationMode.LOOPS).run(func)
        assert stats.jumps_replaced == 0
        assert func.jump_count() == 1

    def test_loops_mode_ignores_policy_and_bound(self):
        # LOOPS arbitrates favoring-loops and takes no §6 bound, whatever
        # the caller asks for.
        replicator = CodeReplicator(
            ReplicationMode.LOOPS, policy=Policy.FAVOR_RETURNS, max_rtls=0
        )
        assert replicator.policy is Policy.FAVOR_LOOPS
        assert replicator.max_rtls is None
        func = function_from_text("f", FOR_LOOP)
        assert replicator.run(func).jumps_replaced == 1

    def test_loops_mode_is_subset_of_jumps_mode(self):
        for text in (MID_EXIT_LOOP, IF_THEN_ELSE, FOR_LOOP, WHILE_LOOP):
            via_loops = function_from_text("f", text)
            via_jumps = function_from_text("f", text)
            loops_stats = CodeReplicator(ReplicationMode.LOOPS).run(via_loops)
            jumps_stats = CodeReplicator().run(via_jumps)
            assert loops_stats.jumps_replaced <= jumps_stats.jumps_replaced


class TestStructuralInvariants:
    @pytest.mark.parametrize(
        "text", [MID_EXIT_LOOP, IF_THEN_ELSE, FOR_LOOP, WHILE_LOOP]
    )
    def test_reducibility_preserved(self, text):
        func = function_from_text("f", text)
        CodeReplicator().run(func)
        assert is_reducible(func)

    @pytest.mark.parametrize(
        "text", [MID_EXIT_LOOP, IF_THEN_ELSE, FOR_LOOP, WHILE_LOOP]
    )
    def test_wellformed_after_replication(self, text):
        func = framed_function(text)
        CodeReplicator().run(func)
        check_sanitized(func, "jumps")

    def test_no_replicate_flag_respected(self):
        func = function_from_text("f", IF_THEN_ELSE)
        for insn in func.insns():
            if isinstance(insn, Jump):
                insn.no_replicate = True
        stats = CodeReplicator().run(func)
        assert stats.jumps_replaced == 0
        assert func.jump_count() == 1

    def test_allow_irreducible_retries_flagged_jumps(self):
        func = function_from_text("f", IF_THEN_ELSE)
        for insn in func.insns():
            if isinstance(insn, Jump):
                insn.no_replicate = True
        stats = CodeReplicator(allow_irreducible=True).run(func)
        assert stats.jumps_replaced == 1
        assert func.jump_count() == 0


class TestIndirectJumpsInLoops:
    def test_loop_containing_indirect_jump_replicates(self):
        # A switch dispatch inside a loop: loop completion (step 3) pulls
        # the indirect-jump block into the replication sequence; the copy
        # must map the jump table's labels like any other targets (§6).
        func = function_from_text(
            "f",
            """
            d[1]=0;
            PC=L4;
            d[9]=9;
            L4:
              d[0]=d[1]&3;
              PC=L[d[0]]<L5,L6,L7,L7>;
            L5:
              d[2]=d[2]+1;
              PC=L8;
            L6:
              d[2]=d[2]+2;
              PC=L8;
            L7:
              d[2]=d[2]+3;
            L8:
              d[1]=d[1]+1;
              NZ=d[1]?10;
              PC=NZ<0,L4;
            rv[0]=d[2];
            PC=RT;
            """,
        )
        CodeReplicator().run(func)
        check_sanitized(func, "jumps")
        assert is_reducible(func)

    def test_jump_targeting_indirect_block_directly_kept(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            PC=L4;
            d[9]=1;
            L4:
              PC=L[d[0]]<L5,L6>;
            L5:
              PC=RT;
            L6:
              PC=RT;
            """,
        )
        stats = CodeReplicator().run(func)
        # The jump's target *is* the indirect-jump block and no path exists
        # through it; the jump stays (as in the paper's implementation).
        assert func.jump_count() >= 1

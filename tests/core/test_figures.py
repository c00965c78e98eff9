"""Structural reproductions of Figures 1 and 2 of the paper.

Figure 1: an unconditional jump into a natural loop that has another entry
must replicate the *whole* loop ("loop replication"), because a partial copy
would leave the original loop with two entry points (unstructured).

Figure 2: when replication is initiated from inside a loop and copies part
of that loop, conditional branches of uncopied members that target copied
blocks are retargeted to the copies, avoiding partially overlapping loops.
"""

from repro.cfg import find_loops, is_reducible
from repro.core import CodeReplicator
from repro.verify import check_sanitized
from tests.conftest import function_from_text

# Figure 1's control flow: blocks 1..7 with a loop {4,5,6}, an unconditional
# jump 2 -> 4, and a second loop entry through block 3.
FIGURE_1 = """
  NZ=d[0]?0;
  PC=NZ==0,L3;
  d[1]=1;
  PC=L4;
L3:
  d[1]=2;
L4:
  d[2]=d[2]+d[1];
  NZ=d[2]?100;
  PC=NZ>=0,L7;
  d[2]=d[2]*2;
  PC=L4;
L7:
  PC=RT;
"""

# Figure 2's control flow: a loop {1,2,3} whose back edge is an unconditional
# jump 3 -> 1, where block 2 branches conditionally back to block 1 as well.
FIGURE_2 = """
L1:
  d[0]=d[0]+1;
  NZ=d[0]?100;
  PC=NZ>=0,L4;
  NZ=d[0]?3;
  PC=NZ==0,L1;
  d[1]=d[1]+1;
  PC=L1;
L4:
  PC=RT;
"""


class TestFigure1:
    def test_whole_loop_replicated(self):
        func = function_from_text("fig1", FIGURE_1)
        info_before = find_loops(func)
        assert len(info_before.loops) == 1
        loop_size_before = len(info_before.loops[0].blocks)

        stats = CodeReplicator().run(func)
        check_sanitized(func, "jumps")
        assert func.jump_count() == 0
        assert is_reducible(func)

        # The replication must not have left a loop with two entry points:
        # every loop header is the only member with external predecessors.
        info_after = find_loops(func)
        for loop in info_after.loops:
            for member in loop.blocks:
                external = [p for p in member.preds if p not in loop.blocks]
                if member is not loop.header:
                    assert external == [], (
                        f"loop member {member.label} has external preds "
                        f"{[p.label for p in external]} — a second entry"
                    )

        # The loop body instructions were duplicated (whole-loop copy), so
        # the multiplication instruction of the loop appears at least twice.
        multiplies = [
            insn
            for insn in func.insns()
            if "BinOp('*'" in repr(insn)
        ]
        assert len(multiplies) >= 2
        assert loop_size_before >= 2

    def test_single_entry_jump_rotates_instead_of_replicating_loop(self):
        # Contrast case: the loop header's only external predecessor is the
        # jump itself (a plain for-loop) — the loop rotates, it is not
        # duplicated wholesale.
        func = function_from_text(
            "rot",
            """
            d[0]=0;
            PC=L2;
            L1:
              d[1]=d[1]+d[0];
              d[0]=d[0]+1;
            L2:
              NZ=d[0]?10;
              PC=NZ<0,L1;
              PC=RT;
            """,
        )
        stats = CodeReplicator().run(func)
        assert stats.jumps_replaced == 1
        # Only the two-RTL test was copied, not the loop body.
        assert stats.rtls_replicated == 2


class TestFigure2:
    def test_no_partially_overlapping_loops(self):
        func = function_from_text("fig2", FIGURE_2)
        CodeReplicator().run(func)
        check_sanitized(func, "jumps")
        assert is_reducible(func)
        assert func.jump_count() == 0

        # Natural loops must be properly nested or disjoint — never
        # partially overlapping.
        info = find_loops(func)
        for a in info.loops:
            for b in info.loops:
                if a is b:
                    continue
                inter = a.blocks & b.blocks
                assert (
                    not inter
                    or a.blocks <= b.blocks
                    or b.blocks <= a.blocks
                ), (
                    f"loops {a} and {b} partially overlap"
                )

    def test_uncopied_member_branch_retargeted(self):
        func = function_from_text("fig2", FIGURE_2)
        # Identify the conditional branch of "block 2" (the NZ==0 branch
        # back to L1) before replication.
        before_targets = [
            insn.target
            for insn in func.insns()
            if type(insn).__name__ == "CondBranch"
        ]
        assert "L1" in before_targets
        CodeReplicator().run(func)
        # After replication at least one conditional branch that used to
        # target L1 now targets a replicated block instead, and the result
        # stays reducible (the point of step 5).
        assert is_reducible(func)

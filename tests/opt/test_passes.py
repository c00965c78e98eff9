"""Unit tests for the individual optimizer passes."""

import pytest

from repro.opt import (
    branch_chaining,
    eliminate_dead_code,
    eliminate_dead_variables,
    fold_branches,
    fold_constants,
    local_cse,
    reorder_blocks,
)
from repro.rtl import Assign, Compare, Const, Jump, Reg, format_function, parse_insn
from repro.verify import check_sanitized
from tests.conftest import function_from_text


class TestBranchChaining:
    def test_jump_to_jump_retargeted(self):
        func = function_from_text(
            "f",
            """
            PC=L1;
            L1:
              PC=L2;
            L2:
              PC=RT;
            """,
        )
        assert branch_chaining(func)
        assert func.blocks[0].terminator.target == "L2"

    def test_cond_branch_to_jump_retargeted(self):
        func = function_from_text(
            "f",
            """
            NZ=d[0]?1;
            PC=NZ==0,L1;
            PC=RT;
            L1:
              PC=L2;
            L2:
              PC=RT;
            """,
        )
        assert branch_chaining(func)
        cond = func.blocks[0].terminator
        assert cond.target == "L2"

    def test_jump_cycle_left_alone(self):
        func = function_from_text(
            "f",
            """
            PC=L1;
            L1:
              PC=L2;
            L2:
              PC=L1;
            """,
        )
        branch_chaining(func)  # must terminate
        check_sanitized(func, "branch_chaining")

    def test_chain_of_three(self):
        func = function_from_text(
            "f",
            """
            PC=L1;
            L1:
              PC=L2;
            L2:
              PC=L3;
            L3:
              PC=RT;
            """,
        )
        branch_chaining(func)
        assert func.blocks[0].terminator.target == "L3"


class TestDeadCode:
    def test_unreachable_block_removed(self):
        func = function_from_text(
            "f",
            """
            PC=L2;
            d[0]=99;
            PC=L2;
            L2:
              PC=RT;
            """,
        )
        assert eliminate_dead_code(func)
        # The unreachable d[0]=99 block is gone (and the survivors merged).
        assert not any("99" in repr(i) for i in func.insns())
        assert func.insn_count() == 1

    def test_redundant_jump_removed(self):
        func = function_from_text(
            "f",
            """
            d[0]=1;
            PC=L1;
            L1:
              PC=RT;
            """,
        )
        assert eliminate_dead_code(func)
        assert func.jump_count() == 0

    def test_blocks_merged(self):
        func = function_from_text(
            "f",
            """
            d[0]=1;
            PC=L1;
            L1:
              d[1]=2;
              PC=RT;
            """,
        )
        eliminate_dead_code(func)
        assert len(func.blocks) == 1
        assert func.blocks[0].size() == 3

    def test_branch_target_not_merged(self):
        func = function_from_text(
            "f",
            """
            NZ=d[0]?1;
            PC=NZ==0,L1;
            d[0]=1;
            L1:
              PC=RT;
            """,
        )
        eliminate_dead_code(func)
        # L1 is a branch target: it must survive as its own block.
        assert any(b.label == "L1" for b in func.blocks)


class TestReorder:
    def test_jump_becomes_fallthrough(self):
        func = function_from_text(
            "f",
            """
            PC=L9;
            L5:
              PC=RT;
            L9:
              d[0]=1;
              PC=L5;
            """,
        )
        reorder_blocks(func)
        eliminate_dead_code(func)
        check_sanitized(func, "eliminate_dead_code")
        assert func.jump_count() == 0
        # The reordered layout executes d[0]=1 then returns, all jumps died
        # (the blocks may even have merged into a straight line).
        texts = [repr(i) for i in func.insns()]
        assert texts == ["Assign(Reg('d',0), Const(1))", "Return()"]

    def test_entry_stays_first(self):
        func = function_from_text(
            "f",
            """
            d[0]=1;
            PC=L2;
            L1:
              PC=RT;
            L2:
              PC=L1;
            """,
        )
        entry = func.entry
        reorder_blocks(func)
        assert func.entry is entry

    def test_fallthrough_runs_kept_together(self):
        func = function_from_text(
            "f",
            """
            NZ=d[0]?1;
            PC=NZ==0,L2;
            d[0]=1;
            PC=L3;
            L2:
              d[0]=2;
            L3:
              PC=RT;
            """,
        )
        # Block B2 (d[0]=1) must keep following the conditional branch, and
        # L3 must keep following L2.
        reorder_blocks(func)
        check_sanitized(func, "reorder_blocks")
        labels = [b.label for b in func.blocks]
        assert labels.index("B2") == labels.index("B1") + 1
        assert labels.index("L3") == labels.index("L2") + 1


class TestConstFold:
    def test_constant_arithmetic(self):
        func = function_from_text("f", "d[0]=2+3*4;\nPC=RT;")
        assert fold_constants(func)
        assert func.blocks[0].insns[0].src == Const(14)

    def test_identities(self):
        func = function_from_text("f", "d[0]=d[1]+0;\nd[2]=d[3]*1;\nPC=RT;")
        fold_constants(func)
        assert func.blocks[0].insns[0].src == Reg("d", 1)
        assert func.blocks[0].insns[1].src == Reg("d", 3)

    def test_multiply_by_zero(self):
        func = function_from_text("f", "d[0]=d[1]*0;\nPC=RT;")
        fold_constants(func)
        assert func.blocks[0].insns[0].src == Const(0)

    def test_reassociation(self):
        func = function_from_text("f", "d[0]=d[1]+3+4;\nPC=RT;")
        fold_constants(func)
        insn = func.blocks[0].insns[0]
        assert repr(insn.src) == repr(parse_insn("d[0]=d[1]+7;").src)

    def test_division_by_zero_not_folded(self):
        func = function_from_text("f", "d[0]=1/0;\nPC=RT;")
        fold_constants(func)
        assert not isinstance(func.blocks[0].insns[0].src, Const)

    def test_subtract_self_is_zero(self):
        func = function_from_text("f", "d[0]=d[1]-d[1];\nPC=RT;")
        fold_constants(func)
        assert func.blocks[0].insns[0].src == Const(0)

    def test_always_taken_branch_becomes_jump(self):
        func = function_from_text(
            "f",
            """
            NZ=3?2;
            PC=NZ>0,L1;
            d[0]=1;
            L1:
              PC=RT;
            """,
        )
        assert fold_branches(func)
        assert isinstance(func.blocks[0].terminator, Jump)
        assert func.blocks[0].size() == 1  # the compare died too

    def test_never_taken_branch_removed(self):
        func = function_from_text(
            "f",
            """
            NZ=1?2;
            PC=NZ>0,L1;
            d[0]=1;
            L1:
              PC=RT;
            """,
        )
        assert fold_branches(func)
        assert func.blocks[0].terminator is None

    def test_nonconstant_branch_untouched(self):
        func = function_from_text(
            "f",
            """
            NZ=d[0]?2;
            PC=NZ>0,L1;
            d[0]=1;
            L1:
              PC=RT;
            """,
        )
        assert not fold_branches(func)


class TestCSE:
    def test_redundant_expression_reuses_register(self):
        func = function_from_text(
            "f",
            """
            v[1]=d[1]+d[2];
            v[2]=d[1]+d[2];
            PC=RT;
            """,
        )
        assert local_cse(func)
        second = func.blocks[0].insns[1]
        assert second.src == Reg("v", 1)

    def test_copy_propagation(self):
        func = function_from_text(
            "f",
            """
            v[1]=d[1];
            v[2]=v[1]+1;
            PC=RT;
            """,
        )
        local_cse(func)
        second = func.blocks[0].insns[1]
        assert Reg("d", 1) in set(r for r in second.used_regs())

    def test_constant_propagation(self):
        func = function_from_text(
            "f",
            """
            v[1]=5;
            v[2]=v[1]+1;
            PC=RT;
            """,
        )
        local_cse(func)
        assert func.blocks[0].insns[1].src == Const(6)

    def test_store_invalidates_loads(self):
        func = function_from_text(
            "f",
            """
            v[1]=L[a[0]];
            L[a[1]]=d[0];
            v[2]=L[a[0]];
            PC=RT;
            """,
        )
        local_cse(func)
        third = func.blocks[0].insns[2]
        # The store may alias a[0]; the second load must stay a load.
        assert "Mem" in repr(third.src)

    def test_store_to_load_forwarding(self):
        func = function_from_text(
            "f",
            """
            L[a[0]]=d[3];
            v[1]=L[a[0]];
            PC=RT;
            """,
        )
        local_cse(func)
        assert func.blocks[0].insns[1].src == Reg("d", 3)

    def test_call_invalidates_memory(self):
        func = function_from_text(
            "f",
            """
            v[1]=L[a[0]];
            CALL _g,0;
            v[2]=L[a[0]];
            PC=RT;
            """,
        )
        local_cse(func)
        third = func.blocks[0].insns[2]
        assert "Mem" in repr(third.src)

    def test_redefinition_invalidates_value(self):
        func = function_from_text(
            "f",
            """
            v[1]=d[1]+d[2];
            d[1]=0;
            v[2]=d[1]+d[2];
            PC=RT;
            """,
        )
        local_cse(func)
        third = func.blocks[0].insns[2]
        assert third.src != Reg("v", 1)


class TestDeadVars:
    def test_dead_assignment_removed(self):
        func = function_from_text(
            "f",
            """
            v[1]=d[1]+d[2];
            rv[0]=0;
            PC=RT;
            """,
        )
        assert eliminate_dead_variables(func)
        assert func.blocks[0].size() == 2

    def test_chain_of_dead_assignments(self):
        func = function_from_text(
            "f",
            """
            v[1]=1;
            v[2]=v[1]+1;
            v[3]=v[2]+1;
            rv[0]=0;
            PC=RT;
            """,
        )
        eliminate_dead_variables(func)
        assert func.blocks[0].size() == 2

    def test_live_through_branch_kept(self):
        func = function_from_text(
            "f",
            """
            v[1]=d[1]+d[2];
            NZ=d[0]?1;
            PC=NZ==0,L1;
            rv[0]=v[1];
            PC=RT;
            L1:
              rv[0]=0;
              PC=RT;
            """,
        )
        eliminate_dead_variables(func)
        assert any(
            isinstance(i, Assign) and i.dst == Reg("v", 1)
            for i in func.blocks[0].insns
        )

    def test_dead_compare_removed(self):
        func = function_from_text(
            "f",
            """
            NZ=d[0]?1;
            rv[0]=0;
            PC=RT;
            """,
        )
        assert eliminate_dead_variables(func)
        assert not any(isinstance(i, Compare) for i in func.insns())

    def test_store_never_removed(self):
        func = function_from_text(
            "f",
            """
            L[a[0]]=d[1];
            PC=RT;
            """,
        )
        eliminate_dead_variables(func)
        assert func.blocks[0].size() == 2

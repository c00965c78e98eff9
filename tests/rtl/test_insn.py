"""Unit tests for the instruction dataflow/control-flow interface."""

import pytest

from repro.rtl import (
    Assign,
    Call,
    Compare,
    CondBranch,
    IndirectJump,
    Jump,
    Nop,
    Return,
    reverse_relation,
)
from repro.rtl.expr import NZ, BinOp, Const, Mem, Reg


class TestDataflow:
    def test_assign_to_register(self):
        insn = Assign(Reg("d", 0), BinOp("+", Reg("d", 1), Const(1)))
        assert insn.defined_reg() == Reg("d", 0)
        assert insn.used_regs() == {Reg("d", 1)}
        assert not insn.stores_mem()

    def test_assign_to_memory_reads_address(self):
        insn = Assign(Mem(BinOp("+", Reg("a", 0), Const(4)), "L"), Reg("d", 2))
        assert insn.defined_reg() is None
        assert insn.used_regs() == {Reg("a", 0), Reg("d", 2)}
        assert insn.stores_mem()

    def test_compare_defines_condition_codes(self):
        insn = Compare(Reg("d", 0), Const(5))
        assert insn.defined_reg() == NZ
        assert insn.used_regs() == {Reg("d", 0)}

    def test_cond_branch_reads_condition_codes(self):
        insn = CondBranch("<", "L1")
        assert NZ in insn.used_regs()
        assert insn.is_transfer()

    def test_call_uses_arg_registers(self):
        insn = Call("f", 3)
        assert insn.used_regs() == {Reg("arg", 0), Reg("arg", 1), Reg("arg", 2)}
        assert insn.defined_reg() == Reg("rv", 0)
        assert insn.stores_mem()  # conservative

    def test_return_uses_return_value(self):
        assert Reg("rv", 0) in Return().used_regs()

    def test_nop_is_inert(self):
        nop = Nop()
        assert nop.defined_reg() is None
        assert nop.used_regs() == set()
        assert not nop.is_transfer()


class TestControlFlow:
    def test_branch_targets(self):
        assert Jump("L5").branch_targets() == ("L5",)
        assert CondBranch("==", "L9").branch_targets() == ("L9",)
        assert IndirectJump(Reg("d", 0), ["A", "B"]).branch_targets() == ("A", "B")
        assert Return().branch_targets() == ()
        assert Assign(Reg("d", 0), Const(0)).branch_targets() == ()

    def test_retarget(self):
        jump = Jump("Old")
        jump.retarget("Old", "New")
        assert jump.target == "New"
        jump.retarget("Missing", "X")
        assert jump.target == "New"

    def test_indirect_retarget_all_occurrences(self):
        ij = IndirectJump(Reg("d", 0), ["A", "B", "A"])
        ij.retarget("A", "C")
        assert ij.targets == ["C", "B", "C"]

    def test_cond_branch_reverse(self):
        branch = CondBranch(">=", "L1")
        branch.reverse("L2")
        assert branch.rel == "<"
        assert branch.target == "L2"

    @pytest.mark.parametrize(
        "rel,expected",
        [("<", ">="), (">=", "<"), (">", "<="), ("<=", ">"), ("==", "!="), ("!=", "==")],
    )
    def test_relation_negation_table(self, rel, expected):
        assert reverse_relation(rel) == expected
        assert reverse_relation(expected) == rel

    def test_bad_relation_rejected(self):
        with pytest.raises(ValueError):
            CondBranch("<>", "L1")


class TestCloning:
    def test_clones_are_independent(self):
        original = Jump("L1")
        copy = original.clone()
        copy.retarget("L1", "L2")
        assert original.target == "L1"
        assert copy.target == "L2"
        assert original.uid != copy.uid

    def test_clones_share_the_used_register_set(self):
        original = Assign(Reg("d", 0), BinOp("+", Reg("d", 1), Const(1)))
        assert original.clone().used_regs() is original.used_regs()

    def test_clone_does_not_copy_no_replicate_flag(self):
        jump = Jump("L1")
        jump.no_replicate = True
        assert jump.clone().no_replicate is False

    def test_substitute_rewrites_uses_only(self):
        insn = Assign(Reg("d", 0), BinOp("+", Reg("d", 0), Const(1)))
        insn.substitute({Reg("d", 0): Reg("d", 5)})
        # The destination (a definition) must stay d[0].
        assert insn.dst == Reg("d", 0)
        assert insn.used_regs() == {Reg("d", 5)}

    def test_substitute_memory_destination_address(self):
        insn = Assign(Mem(Reg("a", 0), "L"), Const(1))
        insn.substitute({Reg("a", 0): Reg("a", 3)})
        assert insn.dst == Mem(Reg("a", 3), "L")

    def test_assign_requires_lvalue(self):
        with pytest.raises(TypeError):
            Assign(Const(1), Const(2))  # type: ignore[arg-type]

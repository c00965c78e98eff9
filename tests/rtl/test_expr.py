"""Unit tests for RTL expressions."""

import pytest

from repro.rtl import (
    BinOp,
    Const,
    Local,
    Mem,
    Reg,
    Sym,
    UnOp,
    map_expr,
    reg_set,
    regs_in,
    subst,
    walk,
)


class TestConstruction:
    def test_expressions_are_hashable(self):
        exprs = {
            Const(1),
            Reg("d", 0),
            Sym("x"),
            Local("i"),
            Mem(Reg("a", 0), "L"),
            BinOp("+", Const(1), Const(2)),
            UnOp("-", Const(3)),
        }
        assert len(exprs) == 7

    def test_structural_equality(self):
        assert BinOp("+", Reg("d", 0), Const(1)) == BinOp("+", Reg("d", 0), Const(1))
        assert BinOp("+", Reg("d", 0), Const(1)) != BinOp("+", Reg("d", 1), Const(1))
        assert Mem(Sym("x"), "L") != Mem(Sym("x"), "B")

    def test_expressions_are_immutable(self):
        reg = Reg("d", 0)
        with pytest.raises(Exception):
            reg.index = 5  # type: ignore[misc]


class TestWalk:
    def test_walk_yields_all_nodes_preorder(self):
        expr = BinOp("+", Mem(Reg("a", 0), "L"), Const(4))
        nodes = list(walk(expr))
        assert nodes[0] is expr
        assert Reg("a", 0) in nodes
        assert Const(4) in nodes
        assert len(nodes) == 4

    def test_regs_in_finds_nested_registers(self):
        expr = Mem(BinOp("+", Reg("a", 6), BinOp("*", Reg("d", 1), Const(4))), "L")
        assert set(regs_in(expr)) == {Reg("a", 6), Reg("d", 1)}

    def test_reg_set_is_memoized_frozenset(self):
        expr = Mem(BinOp("+", Reg("a", 6), BinOp("*", Reg("d", 1), Const(4))), "L")
        regs = reg_set(expr)
        assert isinstance(regs, frozenset)
        assert regs == set(regs_in(expr))
        assert reg_set(expr) is regs
        assert reg_set(Const(3)) == frozenset()

    def test_reg_set_memo_is_invisible(self):
        cached = BinOp("+", Reg("d", 1), Const(4))
        fresh = BinOp("+", Reg("d", 1), Const(4))
        reg_set(cached)
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh)


class TestSubstitution:
    def test_subst_register_by_constant(self):
        expr = BinOp("+", Reg("v", 1), Reg("v", 2))
        result = subst(expr, {Reg("v", 1): Const(3)})
        assert result == BinOp("+", Const(3), Reg("v", 2))

    def test_subst_inside_memory_address(self):
        expr = Mem(BinOp("+", Reg("v", 1), Const(8)), "L")
        result = subst(expr, {Reg("v", 1): Reg("a", 0)})
        assert result == Mem(BinOp("+", Reg("a", 0), Const(8)), "L")

    def test_subst_whole_subtree(self):
        sub = BinOp("+", Reg("d", 0), Const(1))
        expr = BinOp("*", sub, Const(2))
        result = subst(expr, {sub: Reg("d", 5)})
        assert result == BinOp("*", Reg("d", 5), Const(2))

    def test_subst_no_match_returns_equal_tree(self):
        expr = BinOp("-", Reg("d", 0), Const(1))
        assert subst(expr, {Reg("d", 9): Const(0)}) == expr

    def test_map_expr_bottom_up(self):
        # Replace every constant by its double; inner first.
        expr = BinOp("+", Const(1), BinOp("*", Const(2), Reg("d", 0)))

        def double(node):
            if isinstance(node, Const):
                return Const(node.value * 2)
            return node

        result = map_expr(expr, double)
        assert result == BinOp("+", Const(2), BinOp("*", Const(4), Reg("d", 0)))

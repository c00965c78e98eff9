"""RTL expressions are hash-consed: one live node per structure.

Constructing an expression returns the live node with the same class
and fields (children by identity, numbers by type and value), so ``==``
and ``hash`` are identity.  The intern table holds its nodes weakly,
pickling and copying hand back the canonical node, and the register
queries of instructions allocate nothing.
"""

import copy
import gc
import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.rtl import expr as expr_module
from repro.rtl.expr import BinOp, Const, Local, Mem, Reg, Sym, UnOp, reg_set
from repro.rtl.insn import (
    Assign,
    Call,
    Compare,
    CondBranch,
    IndirectJump,
    Jump,
    Nop,
    Return,
)

# A tree as plain data: ("Const", v), ("Reg", bank, index), ("Mem", tree,
# width), ("BinOp", op, tree, tree), ...  Scalars carry their Python type
# in canon(), the structure an interned node must stand for.
scalars = st.one_of(
    st.integers(-3, 3), st.booleans(), st.floats(-2, 2, allow_nan=False)
)
leaves = st.one_of(
    st.tuples(st.just("Const"), scalars),
    st.tuples(st.just("Sym"), st.sampled_from(["x", "y"])),
    st.tuples(st.just("Local"), st.sampled_from(["i", "j"])),
    st.tuples(st.just("Reg"), st.sampled_from(["d", "v"]), st.integers(0, 2)),
)
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(st.just("Mem"), sub, st.sampled_from(["B", "L"])),
        st.tuples(st.just("BinOp"), st.sampled_from(["+", "*"]), sub, sub),
        st.tuples(st.just("UnOp"), st.sampled_from(["-", "~"]), sub),
    ),
    max_leaves=8,
)
CLASSES = {"Const": Const, "Sym": Sym, "Local": Local, "Reg": Reg}


def build(tree):
    kind = tree[0]
    if kind == "Mem":
        return Mem(build(tree[1]), tree[2])
    if kind == "BinOp":
        return BinOp(tree[1], build(tree[2]), build(tree[3]))
    if kind == "UnOp":
        return UnOp(tree[1], build(tree[2]))
    return CLASSES[kind](*tree[1:])


def canon(tree):
    return tuple(
        canon(part) if isinstance(part, tuple) else (type(part).__name__, part)
        for part in tree
    )


class TestOneNodePerStructure:
    @given(trees, trees)
    def test_identity_is_structural_equality(self, first, second):
        node = build(first)
        assert build(first) is node
        assert (build(second) is node) == (canon(second) == canon(first))
        assert (build(second) == node) == (canon(second) == canon(first))

    def test_numbers_intern_by_type_and_value(self):
        assert len({Const(1), Const(1.0), Const(True)}) == 3
        assert Reg("d", True) is not Reg("d", 1)
        assert Const(2) is Const(1 + 1)

    def test_an_int_is_stored_as_its_signed_32_bit_word(self):
        assert Const(2**31) is Const(-(2**31))
        assert Const(2**32 + 1) is Const(1)
        assert Const(2**32 - 1).value == -1
        assert Const(2**31 - 1).value == 2**31 - 1
        assert Const(float(2**32)).value == 2**32  # other types as given

    def test_hash_and_equality_are_the_object_defaults(self):
        node = BinOp("+", Reg("d", 0), Const(1))
        assert hash(node) == object.__hash__(node)
        assert type(node).__eq__ is object.__eq__


class TestPicklingAndCopying:
    NODES = [
        Const(7),
        Const(7.0),
        Sym("x"),
        Local("i"),
        Reg("arg", 2),
        Mem(BinOp("+", Local("i"), Const(4)), "L"),
        UnOp("-", Reg("d", 1)),
    ]

    def test_pickle_returns_the_canonical_node(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            for node in self.NODES:
                assert pickle.loads(pickle.dumps(node, protocol)) is node

    def test_copy_and_deepcopy_return_the_node(self):
        for node in self.NODES:
            assert copy.copy(node) is node
            assert copy.deepcopy(node) is node
        assert copy.deepcopy(self.NODES)[5] is self.NODES[5]

    def test_pickled_tree_shares_subtrees_with_live_ones(self):
        tree = BinOp("*", Mem(Sym("q"), "W"), Reg("v", 9))
        clone = pickle.loads(pickle.dumps([tree]))[0]
        assert clone.left is tree.left and clone.right is tree.right


class TestInternTable:
    def test_dropped_nodes_leave_the_table(self):
        # Nodes other tests dropped can take more than one collection to
        # die: a dead node's table key holds its children until its
        # callback runs, and a memoized register is a cycle of its own.
        while gc.collect():
            pass
        before = len(expr_module._TABLE)
        tree = Mem(BinOp("+", Reg("zz", 4321), Const(987_654_321)), "L")
        reg_set(tree)
        reg_set(tree.addr.left)  # a register's memo refers to itself
        assert len(expr_module._TABLE) == before + 4
        del tree
        gc.collect()
        assert len(expr_module._TABLE) == before


def every_kind():
    mem = Mem(BinOp("+", Reg("d", 1), Const(8)), "L")
    return [
        Assign(Reg("d", 0), BinOp("+", Reg("d", 2), Reg("d", 3))),
        Assign(mem, Reg("d", 4)),
        Assign(mem, Const(0)),
        Assign(Reg("d", 0), Const(5)),
        Compare(Reg("d", 0), Mem(Reg("a", 6), "L")),
        Compare(Const(1), Const(2)),
        CondBranch("<", "L1"),
        Jump("L2"),
        IndirectJump(Mem(BinOp("+", Sym("t"), Reg("d", 5)), "L"), ["L1", "L2"]),
        Call("f", 0),
        Call("g", 3),
        Return(),
        Nop(),
    ]


class TestRegisterQueries:
    def test_used_regs_equal_the_union_over_used_exprs(self):
        for insn in every_kind():
            expected = frozenset().union(*map(reg_set, insn.used_exprs()))
            assert insn.used_regs() == expected, insn

    def test_fixed_operand_sets_are_shared(self):
        for make in (
            lambda: Call("f", 2),
            lambda: Return(),
            lambda: CondBranch("==", "L"),
            lambda: Jump("L"),
            lambda: Nop(),
        ):
            first, second = make(), make()
            assert first.used_regs() is first.used_regs()
            assert first.used_regs() is second.used_regs()

    def test_call_defines_the_rv_register(self):
        assert Call("f").defined_reg() is Reg("rv", 0)
        assert Call("f", 1).defined_reg() is Call("g", 4).defined_reg()

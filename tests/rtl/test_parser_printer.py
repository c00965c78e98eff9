"""Round-trip tests between the RTL parser and printer."""

import pytest
from hypothesis import given, strategies as st

from repro.rtl import (
    Assign,
    BinOp,
    Call,
    Compare,
    CondBranch,
    Const,
    IndirectJump,
    Jump,
    Local,
    Mem,
    Nop,
    Reg,
    Return,
    RTLSyntaxError,
    Sym,
    UnOp,
    format_expr,
    format_insn,
    parse_expr,
    parse_insn,
    parse_insns,
)


class TestExprRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "1",
            "d[0]",
            "a[6]",
            "NZ",
            "x.",
            "FP+i.",
            "L[a[6]+4]",
            "B[a[0]+1]",
            "d[0]+d[1]*2",
            "(d[0]+d[1])*2",
            "d[0]<<2",
            "d[0]&255",
            "-d[3]",
            "~d[3]",
        ],
    )
    def test_round_trip(self, text):
        expr = parse_expr(text)
        assert parse_expr(format_expr(expr)) == expr

    def test_precedence_parsing(self):
        expr = parse_expr("1+2*3")
        assert expr == BinOp("+", Const(1), BinOp("*", Const(2), Const(3)))

    def test_parentheses_override_precedence(self):
        expr = parse_expr("(1+2)*3")
        assert expr == BinOp("*", BinOp("+", Const(1), Const(2)), Const(3))

    def test_memory_width(self):
        assert parse_expr("B[a[0]]") == Mem(Reg("a", 0), "B")
        assert parse_expr("W[a[0]]") == Mem(Reg("a", 0), "W")
        assert parse_expr("L[a[0]]") == Mem(Reg("a", 0), "L")

    def test_symbol_and_local(self):
        assert parse_expr("_n.") == Sym("_n")
        assert parse_expr("FP+count.") == Local("count")

    def test_negative_constant_folds(self):
        assert parse_expr("-5") == Const(-5)

    def test_bad_input_raises(self):
        with pytest.raises(RTLSyntaxError):
            parse_expr("d[")
        with pytest.raises(RTLSyntaxError):
            parse_expr("foo")  # bare name without dot
        with pytest.raises(RTLSyntaxError):
            parse_expr("1 2")


class TestInsnRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "d[0]=d[0]+1;",
            "L[a[6]+8]=d[0];",
            "B[a[0]]=B[a[0]+1];",
            "NZ=d[0]?L[_n.];",
            "PC=NZ>=0,L16;",
            "PC=NZ<0,L15;",
            "PC=NZ==0,L1;",
            "PC=NZ!=0,L1;",
            "PC=L15;",
            "PC=RT;",
            "NOP;",
            "CALL _printf,2;",
        ],
    )
    def test_round_trip(self, text):
        insn = parse_insn(text)
        printed = format_insn(insn)
        reparsed = parse_insn(printed)
        assert format_insn(reparsed) == printed

    def test_parse_assign(self):
        insn = parse_insn("d[0]=d[1]+2;")
        assert isinstance(insn, Assign)
        assert insn.dst == Reg("d", 0)
        assert insn.src == BinOp("+", Reg("d", 1), Const(2))

    def test_parse_compare(self):
        insn = parse_insn("NZ=d[0]?10;")
        assert isinstance(insn, Compare)
        assert insn.left == Reg("d", 0)
        assert insn.right == Const(10)

    def test_parse_cond_branch(self):
        insn = parse_insn("PC=NZ<=0,L22;")
        assert isinstance(insn, CondBranch)
        assert insn.rel == "<="
        assert insn.target == "L22"

    def test_parse_jump_and_return(self):
        assert isinstance(parse_insn("PC=L5;"), Jump)
        assert isinstance(parse_insn("PC=RT;"), Return)

    def test_parse_indirect_jump(self):
        insn = parse_insn("PC=L[a[0]]<L1,L2,L3>;")
        assert isinstance(insn, IndirectJump)
        assert insn.targets == ["L1", "L2", "L3"]

    def test_parse_call(self):
        insn = parse_insn("CALL _strlen,1;")
        assert isinstance(insn, Call)
        assert insn.func == "strlen"
        assert insn.nargs == 1

    def test_parse_nop(self):
        assert isinstance(parse_insn("NOP;"), Nop)


class TestListings:
    def test_labels_attach_to_following_insn(self):
        pairs = parse_insns(
            """
            d[0]=1;
            L1:
              d[0]=d[0]+1;
              PC=L1;
            """
        )
        labels = [label for label, _ in pairs]
        assert labels == [None, "L1", None]

    def test_comments_are_ignored(self):
        pairs = parse_insns("d[0]=1;  # init\n# whole line\nPC=RT;")
        assert len(pairs) == 2

    def test_multiple_insns_per_line(self):
        pairs = parse_insns("d[0]=1; d[1]=2; PC=RT;")
        assert len(pairs) == 3

    def test_trailing_label_raises(self):
        with pytest.raises(RTLSyntaxError):
            parse_insns("d[0]=1;\nL9:")


# --- property-based round trip ---------------------------------------------

_leaf = st.one_of(
    st.integers(min_value=0, max_value=1 << 20).map(Const),
    st.builds(Reg, st.sampled_from(["d", "a", "r", "v"]), st.integers(0, 31)),
    st.sampled_from(["x", "y", "_n", "buf"]).map(Sym),
    st.sampled_from(["i", "j", "count"]).map(Local),
)


def _extend(children):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"]), children, children),
        st.builds(UnOp, st.sampled_from(["-", "~"]), children),
        st.builds(Mem, children, st.sampled_from(["B", "W", "L"])),
    )


_exprs = st.recursive(_leaf, _extend, max_leaves=12)


class TestPropertyRoundTrip:
    @given(_exprs)
    def test_format_parse_format_is_stable(self, expr):
        printed = format_expr(expr)
        reparsed = parse_expr(printed)
        assert format_expr(reparsed) == printed

    @given(_exprs)
    def test_parse_of_format_preserves_semantics_structurally(self, expr):
        # Unary minus of a constant folds during parsing; normalize both
        # sides through one print/parse cycle and compare.
        once = parse_expr(format_expr(expr))
        twice = parse_expr(format_expr(once))
        assert once == twice


class TestFunctionRoundTrip:
    def test_format_parse_function_round_trip(self):
        from repro.rtl import format_function, parse_function_text
        from tests.conftest import function_from_text

        func = function_from_text(
            "roundtrip",
            """
            d[0]=0;
            L1:
              d[0]=d[0]+1;
              NZ=d[0]?10;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """,
        )
        printed = format_function(func)
        reparsed = parse_function_text(printed)
        assert reparsed.name == "roundtrip"
        assert format_function(reparsed) == printed

    def test_params_preserved(self):
        from repro.rtl import format_function, parse_function_text
        from repro.cfg import Function, build_function
        from repro.rtl import parse_insns

        func = build_function("f", parse_insns("rv[0]=arg[0];\nPC=RT;"), ["x", "y"])
        printed = format_function(func)
        assert "function f(x, y)" in printed
        reparsed = parse_function_text(printed)
        assert reparsed.params == ["x", "y"]

    def test_bad_header_rejected(self):
        from repro.rtl import RTLSyntaxError, parse_function_text
        import pytest

        with pytest.raises(RTLSyntaxError):
            parse_function_text("nonsense here\nPC=RT;")
        with pytest.raises(RTLSyntaxError):
            parse_function_text("")

    def test_replicated_function_round_trips(self):
        from repro.core import CodeReplicator
        from repro.rtl import format_function, parse_function_text
        from tests.conftest import function_from_text

        func = function_from_text(
            "g",
            """
            d[0]=0;
            PC=L2;
            L1:
              d[0]=d[0]+1;
            L2:
              NZ=d[0]?10;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """,
        )
        CodeReplicator().run(func)
        printed = format_function(func)
        assert format_function(parse_function_text(printed)) == printed

"""Register promotion and colouring tests."""

import pytest

from repro.opt import color_registers, legalize, promote_locals
from repro.rtl import Local, Mem, Reg, format_insn
from repro.targets import get_target
from repro.verify import check_sanitized
from tests.conftest import function_from_text, run_c


def has_frame_ref(func, name):
    from repro.rtl import walk

    for insn in func.insns():
        exprs = list(insn.used_exprs())
        dst = getattr(insn, "dst", None)
        if isinstance(dst, Mem):
            exprs.append(dst.addr)
        for expr in exprs:
            for node in walk(expr):
                if isinstance(node, Local) and node.name == name:
                    return True
    return False


class TestPromotion:
    def test_scalar_local_promoted(self):
        func = function_from_text(
            "f",
            """
            L[FP+x.]=1;
            L[FP+x.]=L[FP+x.]+2;
            rv[0]=L[FP+x.];
            PC=RT;
            """,
        )
        func.add_local("x", 4)
        assert promote_locals(func) == 1
        assert not has_frame_ref(func, "x")

    def test_address_taken_blocks_promotion(self):
        func = function_from_text(
            "f",
            """
            L[FP+x.]=1;
            a[0]=FP+x.;
            rv[0]=L[a[0]];
            PC=RT;
            """,
        )
        func.add_local("x", 4)
        assert promote_locals(func) == 0
        assert has_frame_ref(func, "x")

    def test_array_slot_not_promoted(self):
        func = function_from_text(
            "f",
            """
            L[FP+arr.]=1;
            rv[0]=L[FP+arr.];
            PC=RT;
            """,
        )
        func.add_local("arr", 40)  # 40 bytes: an array, even if only the
        assert promote_locals(func) == 0  # first element is ever touched

    def test_indexed_access_blocks_promotion(self):
        func = function_from_text(
            "f",
            """
            L[FP+buf.]=0;
            rv[0]=L[FP+buf.+d[1]];
            PC=RT;
            """,
        )
        func.add_local("buf", 4)
        assert promote_locals(func) == 0


class TestColoring:
    def test_vregs_all_replaced(self):
        func = function_from_text(
            "f",
            """
            v[1]=1;
            v[2]=2;
            v[3]=v[1]+v[2];
            rv[0]=v[3];
            PC=RT;
            """,
        )
        target = get_target("m68020")
        result = color_registers(func, target)
        assert not result.spilled
        for insn in func.insns():
            for reg in insn.used_regs():
                assert reg.bank != "v"
            defined = insn.defined_reg()
            if defined is not None:
                assert defined.bank != "v"

    def test_interfering_vregs_get_distinct_colors(self):
        func = function_from_text(
            "f",
            """
            v[1]=1;
            v[2]=2;
            rv[0]=v[1]+v[2];
            PC=RT;
            """,
        )
        target = get_target("sparc")
        result = color_registers(func, target)
        assert result.assigned[Reg("v", 1)] != result.assigned[Reg("v", 2)]

    def test_disjoint_ranges_may_share(self):
        func = function_from_text(
            "f",
            """
            v[1]=1;
            d[0]=v[1];
            v[2]=2;
            rv[0]=v[2]+d[0];
            PC=RT;
            """,
        )
        target = get_target("m68020")
        result = color_registers(func, target)
        # Not required to share, but both must be colored, not spilled.
        assert len(result.assigned) == 2 and not result.spilled

    def test_high_pressure_spills_and_stays_correct(self):
        # 30 simultaneously-live values exceed every pool.
        n = 30
        defs = "\n".join(f"v[{i}]=Reg{i};".replace(f"Reg{i}", str(i)) for i in range(1, n + 1))
        uses = "+".join(f"v[{i}]" for i in range(1, n + 1))
        func = function_from_text("f", f"{defs}\nrv[0]={uses};\nPC=RT;")
        target = get_target("sparc")
        legalize(func, target)
        result = color_registers(func, target)
        check_sanitized(func, "color_registers", post_regalloc=True)
        assert result.spilled  # pressure forced spills
        for insn in func.insns():
            assert target.legal(insn), format_insn(insn)
            for reg in insn.used_regs():
                assert reg.bank != "v"

    def test_spilled_program_still_computes(self):
        # End-to-end: a C function with very high register pressure.
        terms = " + ".join(f"x{i}" for i in range(25))
        decls = "\n".join(f"int x{i};" for i in range(25))
        inits = "\n".join(f"x{i} = {i};" for i in range(25))
        source = f"""
        int main() {{
            {decls}
            {inits}
            return {terms};
        }}
        """
        expected = sum(range(25))
        unopt_out, unopt_code = run_c(source)
        assert unopt_code == expected
        for target in ("m68020", "sparc"):
            _, code = run_c(source, target=target)
            assert code == expected


class TestRegisterPreferences:
    def test_address_uses_prefer_address_registers_on_68020(self):
        func = function_from_text(
            "f",
            """
            v[1]=FP+buf.;
            v[2]=L[v[1]];
            rv[0]=v[2];
            PC=RT;
            """,
        )
        func.add_local("buf", 16)
        target = get_target("m68020")
        result = color_registers(func, target)
        # v[1] is used as a memory base address: it should land in an
        # address register; v[2] is a plain value: a data register.
        assert result.assigned[Reg("v", 1)].bank == "a"
        assert result.assigned[Reg("v", 2)].bank == "d"

    def test_store_addresses_prefer_address_registers_on_68020(self):
        func = function_from_text(
            "f",
            """
            v[1]=FP+buf.;
            v[2]=7;
            L[v[1]]=v[2];
            rv[0]=v[2];
            PC=RT;
            """,
        )
        func.add_local("buf", 16)
        result = color_registers(func, get_target("m68020"))
        # v[1] is only ever a store's base address.
        assert result.assigned[Reg("v", 1)].bank == "a"
        assert result.assigned[Reg("v", 2)].bank == "d"

    def test_sparc_has_single_uniform_pool(self):
        func = function_from_text(
            "f",
            """
            v[1]=FP+buf.;
            v[2]=L[v[1]];
            rv[0]=v[2];
            PC=RT;
            """,
        )
        func.add_local("buf", 16)
        target = get_target("sparc")
        result = color_registers(func, target)
        assert result.assigned[Reg("v", 1)].bank == "r"
        assert result.assigned[Reg("v", 2)].bank == "r"

"""Loop-invariant code motion and preheader tests."""

from repro.cfg import find_loops
from repro.opt import ensure_preheader, loop_invariant_code_motion
from repro.rtl import format_insn
from repro.verify import check_sanitized
from tests.conftest import function_from_text


def insn_texts(func):
    return [format_insn(i) for i in func.insns()]


def loop_insns(func):
    info = find_loops(func)
    texts = []
    for loop in info.loops:
        for block in loop.blocks:
            texts.extend(format_insn(i) for i in block.insns)
    return texts


class TestLICM:
    def test_invariant_hoisted_out(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              v[1]=d[7]*4;
              d[0]=d[0]+v[1];
              NZ=d[0]?100;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """,
        )
        assert loop_invariant_code_motion(func)
        check_sanitized(func, "loop_invariant_code_motion")
        assert "v[1]=d[7]*4;" not in loop_insns(func)
        assert "v[1]=d[7]*4;" in insn_texts(func)

    def test_variant_not_hoisted(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              v[1]=d[0]*4;
              d[0]=d[0]+1;
              NZ=d[0]?100;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """,
        )
        loop_invariant_code_motion(func)
        assert "v[1]=d[0]*4;" in loop_insns(func)

    def test_load_not_hoisted_past_store(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              v[1]=L[a[5]];
              L[a[6]+8]=d[0];
              d[0]=d[0]+v[1];
              NZ=d[0]?100;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """,
        )
        loop_invariant_code_motion(func)
        assert "v[1]=L[a[5]];" in loop_insns(func)

    def test_invariant_load_hoisted_when_loop_is_pure(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              v[1]=L[a[5]];
              d[0]=d[0]+v[1];
              NZ=d[0]?100;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """,
        )
        assert loop_invariant_code_motion(func)
        assert "v[1]=L[a[5]];" not in loop_insns(func)

    def test_trapping_expr_needs_dominating_block(self):
        # The division sits behind a conditional branch inside the loop
        # (does not dominate the exit) and d[9] could be live... here dead,
        # but a trap must not be introduced: stays put.
        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              NZ=d[0]?50;
              PC=NZ>0,L2;
              v[9]=d[7]/d[6];
              d[0]=d[0]+v[9];
            L2:
              d[0]=d[0]+1;
              NZ=d[0]?100;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """,
        )
        loop_invariant_code_motion(func)
        assert "v[9]=d[7]/d[6];" in loop_insns(func)

    def test_multiple_defs_not_hoisted(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              NZ=d[0]?10;
              PC=NZ>0,L2;
              v[1]=d[7]*2;
              PC=L3;
            L2:
              v[1]=d[7]*3;
            L3:
              d[0]=d[0]+v[1];
              NZ=d[0]?100;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """,
        )
        loop_invariant_code_motion(func)
        texts = loop_insns(func)
        assert "v[1]=d[7]*2;" in texts
        assert "v[1]=d[7]*3;" in texts

    def test_semantics_preserved_via_c(self):
        from tests.conftest import run_c

        source = """
        int main() {
            int i, s, k;
            k = 17;
            s = 0;
            for (i = 0; i < 20; i++)
                s += k * 3;
            return s;
        }
        """
        unopt = run_c(source)
        for target in ("m68020", "sparc"):
            assert run_c(source, target=target) == unopt


class TestEnsurePreheader:
    def test_creates_block_before_header(self):
        func = function_from_text(
            "f",
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
        info = find_loops(func)
        loop = info.loops[0]
        preheader = ensure_preheader(func, loop)
        check_sanitized(func, "ensure_preheader")
        assert func.blocks[func.blocks.index(preheader) + 1] is loop.header
        assert preheader not in loop.blocks

    def test_existing_preheader_reused(self):
        func = function_from_text(
            "f",
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
        loop = find_loops(func).loops[0]
        first = ensure_preheader(func, loop)
        loop = find_loops(func).loops[0]
        second = ensure_preheader(func, loop)
        assert first is second

    def test_branch_preds_retargeted(self):
        func = function_from_text(
            "f",
            """
            NZ=d[9]?1;
            PC=NZ==0,L1;
            d[0]=5;
            L1:
              d[0]=d[0]+1;
              NZ=d[0]?10;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """,
        )
        loop = find_loops(func).loops[0]
        preheader = ensure_preheader(func, loop)
        check_sanitized(func, "ensure_preheader")
        entry_branch = func.blocks[0].terminator
        assert entry_branch.target == preheader.label
        # The back edge still targets the header itself.
        header = loop.header
        back = [p for p in header.preds if p.label != preheader.label]
        assert back

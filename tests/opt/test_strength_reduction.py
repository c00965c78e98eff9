"""Induction-variable strength reduction tests."""

from repro.cfg import find_loops
from repro.opt import strength_reduce
from repro.rtl import format_insn
from repro.verify import check_sanitized
from tests.conftest import function_from_text, run_c


def loop_insns(func):
    texts = []
    for loop in find_loops(func).loops:
        for block in loop.blocks:
            texts.extend(format_insn(i) for i in block.insns)
    return texts


class TestStrengthReduction:
    def test_iv_multiply_removed_from_loop(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              v[1]=d[0]*4;
              d[1]=d[1]+v[1];
              d[0]=d[0]+1;
              NZ=d[0]?100;
              PC=NZ<0,L1;
            rv[0]=d[1];
            PC=RT;
            """,
        )
        assert strength_reduce(func)
        check_sanitized(func, "strength_reduce")
        assert not any("*4" in t for t in loop_insns(func))
        # The derived register advances additively inside the loop.
        assert any("+4;" in t for t in loop_insns(func))

    def test_downward_iv(self):
        func = function_from_text(
            "f",
            """
            d[0]=50;
            L1:
              v[1]=d[0]*8;
              d[1]=d[1]+v[1];
              d[0]=d[0]-1;
              NZ=d[0]?0;
              PC=NZ>0,L1;
            rv[0]=d[1];
            PC=RT;
            """,
        )
        assert strength_reduce(func)
        assert not any("*8" in t for t in loop_insns(func))

    def test_non_iv_multiply_untouched(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              d[0]=d[0]*2;
              NZ=d[0]?100;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """,
        )
        # d[0]=d[0]*2 is not an additive induction variable.
        assert not strength_reduce(func)

    def test_idempotent(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              v[1]=d[0]*4;
              d[1]=d[1]+v[1];
              d[0]=d[0]+1;
              NZ=d[0]?100;
              PC=NZ<0,L1;
            rv[0]=d[1];
            PC=RT;
            """,
        )
        strength_reduce(func)
        assert not strength_reduce(func)

    def test_semantics_preserved_array_walk(self):
        source = """
        int a[64];
        int main() {
            int i, s;
            for (i = 0; i < 64; i++)
                a[i] = i;
            s = 0;
            for (i = 0; i < 64; i += 3)
                s += a[i];
            return s;
        }
        """
        expected = run_c(source)
        for target in ("m68020", "sparc"):
            assert run_c(source, target=target) == expected

    def test_semantics_preserved_2d(self):
        source = """
        int m[8][8];
        int main() {
            int i, j, s;
            for (i = 0; i < 8; i++)
                for (j = 0; j < 8; j++)
                    m[i][j] = i * j;
            s = 0;
            for (i = 0; i < 8; i++)
                s += m[i][7 - i];
            return s;
        }
        """
        expected = run_c(source)
        for target in ("m68020", "sparc"):
            assert run_c(source, target=target) == expected

"""Dominance-based constant folding at conditional branches.

On the RISC target, legalization materializes comparison constants into
registers, so folding must look through single-definition constant
registers (with a dominance check) rather than only at syntactic
constants.
"""

from repro.opt import fold_branches
from repro.rtl import CondBranch, Jump
from repro.verify import check_sanitized
from tests.conftest import function_from_text


class TestGlobalConstantBranches:
    def test_register_constant_folds_across_blocks(self):
        func = function_from_text(
            "f",
            """
            r[8]=1;
            d[0]=0;
            L1:
              NZ=r[8]?1;
              PC=NZ==0,L9;
            B:
              d[0]=d[0]+1;
              NZ=d[0]?10;
              PC=NZ<0,L1;
            L9:
              rv[0]=d[0];
              PC=RT;
            """,
        )
        assert fold_branches(func)
        check_sanitized(func, "fold_branches")
        # The r[8]==1 comparison is decided: the always-taken branch became
        # an unconditional jump (new replication fodder, §3.3.1).
        jumps = [i for i in func.insns() if isinstance(i, Jump)]
        assert jumps and jumps[0].target == "L9"

    def test_never_taken_register_branch_removed(self):
        func = function_from_text(
            "f",
            """
            r[8]=5;
            NZ=r[8]?5;
            PC=NZ!=0,L9;
            rv[0]=1;
            PC=RT;
            L9:
              rv[0]=2;
              PC=RT;
            """,
        )
        assert fold_branches(func)
        assert not any(isinstance(i, CondBranch) for i in func.insns())

    def test_multiply_defined_register_not_folded(self):
        func = function_from_text(
            "f",
            """
            r[8]=1;
            NZ=d[9]?0;
            PC=NZ==0,L1;
            r[8]=2;
            L1:
              NZ=r[8]?1;
              PC=NZ==0,L9;
            rv[0]=0;
            PC=RT;
            L9:
              rv[0]=1;
              PC=RT;
            """,
        )
        assert not fold_branches(func)

    def test_non_dominating_definition_not_folded(self):
        # The constant def sits on only one path to the compare.
        func = function_from_text(
            "f",
            """
            NZ=d[9]?0;
            PC=NZ==0,L1;
            r[8]=1;
            L1:
              NZ=r[8]?1;
              PC=NZ==0,L9;
            rv[0]=0;
            PC=RT;
            L9:
              rv[0]=1;
              PC=RT;
            """,
        )
        assert not fold_branches(func)

    def test_same_block_def_after_compare_not_folded(self):
        func = function_from_text(
            "f",
            """
            L1:
              NZ=r[8]?1;
              r[8]=1;
              PC=NZ==0,L9;
            rv[0]=0;
            PC=RT;
            L9:
              rv[0]=1;
              PC=RT;
            """,
        )
        assert not fold_branches(func)

    def test_same_block_def_before_compare_folds(self):
        func = function_from_text(
            "f",
            """
            r[8]=3;
            NZ=r[8]?3;
            PC=NZ==0,L9;
            rv[0]=0;
            PC=RT;
            L9:
              rv[0]=1;
              PC=RT;
            """,
        )
        assert fold_branches(func)

    def test_semantics_preserved_on_sparc_dead_arm(self):
        from tests.conftest import run_c

        source = """
        int main() {
            int i, s;
            s = 0;
            for (i = 0; i < 15; i++) {
                if (2 > 1)
                    s += 2;
                else
                    s -= 999;
            }
            return s;
        }
        """
        reference = run_c(source)
        for target in ("m68020", "sparc"):
            for replication in ("none", "jumps"):
                assert run_c(source, target=target, replication=replication) == reference

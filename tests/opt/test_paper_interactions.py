"""The §3.3 interaction claims: replication feeds other optimizations.

§3.3.1 — constant folding at conditional branches may *create* new
unconditional jumps, which the re-invoked replication then removes
(Figure 3 runs them in the same loop).

§3.3.2 — CSE combines an initial register assignment with its use in the
replicated sequence (Table 1's ``d[1]=2`` simplification).

§3.3.3 — after replication, loop preheaders can sit behind the loop's
entry branch, so zero-trip executions skip the hoisted code.
"""

from repro.cfg import build_function, find_loops
from repro.ease import Interpreter
from repro.frontend import compile_c
from repro.opt import (
    OptimizationConfig,
    eliminate_dead_code,
    fold_branches,
    optimize_program,
)
from repro.rtl import Jump, parse_insns
from repro.targets import get_target
from tests.conftest import function_from_text, run_c


class TestConstantFoldingCreatesJumps:
    """§3.3.1 in isolation, then end-to-end."""

    def test_folded_branch_becomes_jump_then_replication_removes_it(self):
        func = function_from_text(
            "f",
            """
            NZ=3?1;
            PC=NZ>0,L1;
            d[0]=111;
            L1:
              d[0]=d[0]+1;
              rv[0]=d[0];
              PC=RT;
            """,
        )
        assert fold_branches(func)
        # The always-taken branch is now an unconditional jump — new
        # replication fodder, exactly as §3.3.1 describes.
        assert any(isinstance(i, Jump) for i in func.insns())
        from repro.core import CodeReplicator

        CodeReplicator().run(func)
        eliminate_dead_code(func)
        assert func.jump_count() == 0

    def test_end_to_end_constant_condition(self):
        # The driver folds `if (DEBUG)` away and replication cleans up the
        # jump the folding leaves behind.
        source = """
        int main() {
            int i, s;
            s = 0;
            for (i = 0; i < 20; i++) {
                if (1 == 1)
                    s += i;
                else
                    s -= 1000;
            }
            return s;
        }
        """
        reference = run_c(source)
        for target in ("m68020", "sparc"):
            program = compile_c(source)
            optimize_program(
                program, get_target(target), OptimizationConfig(replication="jumps")
            )
            assert program.jump_count() == 0
            # The dead else-arm is gone entirely.
            assert not any(
                "Const(1000)" in repr(i) or "Const(-1000)" in repr(i)
                for f in program.functions.values()
                for i in f.insns()
            )
            result = Interpreter(program).run()
            assert (result.output, result.exit_code) == reference


class TestCSECombinesReplicatedCode:
    """§3.3.2: Table 1's note — the initial assignment folds into the copy."""

    def test_initial_constant_flows_into_replicated_header(self):
        source = """
        int x[64];
        int n;
        int main() {
            int i;
            n = 40;
            i = 1;
            while (1) {
                if (i > n) break;
                x[i - 1] = x[i];
                i++;
            }
            return i;
        }
        """
        reference = run_c(source)
        program = compile_c(source)
        optimize_program(
            program, get_target("m68020"), OptimizationConfig(replication="jumps")
        )
        result = Interpreter(program).run()
        assert (result.output, result.exit_code) == reference
        # The rotated loop kept no unconditional jump.
        main = program.functions["main"]
        assert main.jump_count() == 0
        info = find_loops(main)
        assert info.loops


class TestPreheaderRelocation:
    """§3.3.3: hoisted code sits behind the loop-entry branch."""

    def test_zero_trip_path_skips_preheader_work(self):
        # When the loop never runs, the replicated version must not pay
        # for the hoisted address formation: compare executed instruction
        # counts on a zero-trip input.
        source = """
        int a[32];
        int main() {
            int i, s, n;
            n = %d;
            s = 0;
            for (i = 0; i < n; i++)
                s += a[i] + 7;
            return s;
        }
        """
        from repro.ease import measure_program

        target = get_target("sparc")

        def dyn(n, replication):
            program = compile_c(source % n)
            optimize_program(
                program, target, OptimizationConfig(replication=replication)
            )
            return measure_program(program, target).dynamic_insns

        # Zero-trip executions after replication cost no more than a
        # handful of instructions beyond the SIMPLE version...
        assert dyn(0, "jumps") <= dyn(0, "none") + 4
        # ...while long-running executions are strictly cheaper.
        assert dyn(30, "jumps") < dyn(30, "none")

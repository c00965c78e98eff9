"""Unit coverage for the structural sanitizer."""

import pytest

from repro.cfg.graph import compute_flow
from repro.frontend import compile_c
from repro.rtl.expr import Const, Mem, Reg
from repro.rtl.insn import Assign, CondBranch, Jump
from repro.verify import SanitizeError, Verifier, check_sanitized, sanitize_function
from repro.verify.sanitize import Sanitizer
from tests.conftest import function_from_text

LOOP = """
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 5; i++) { s = s + i; }
    printf("%d\\n", s);
    return 0;
}
"""


def _main():
    program = compile_c(LOOP)
    return program, program.functions["main"]


class TestCleanFunctions:
    def test_frontend_output_is_clean(self):
        program, func = _main()
        assert sanitize_function(func, program) == []

    def test_optimized_output_is_clean(self):
        from repro.opt import OptimizationConfig, optimize_program
        from repro.targets import get_target

        program, func = _main()
        optimize_program(
            program, get_target("sparc"), OptimizationConfig(replication="jumps")
        )
        assert sanitize_function(func, program, post_regalloc=True) == []

    def test_sanitizer_does_not_mutate(self):
        program, func = _main()
        editions = func.cfg_edition
        succs = [list(b.succs) for b in func.blocks]
        sanitize_function(func, program)
        assert func.cfg_edition == editions
        assert [list(b.succs) for b in func.blocks] == succs


class TestCfgViolations:
    def test_stale_successors(self):
        _, func = _main()
        func.blocks[0].succs.clear()
        problems = sanitize_function(func)
        assert any("stale successors" in p for p in problems)

    def test_broken_label_table(self):
        _, func = _main()
        for block in func.blocks:
            term = block.terminator
            if isinstance(term, (Jump, CondBranch)):
                term.retarget(term.branch_targets()[0], "L_nowhere")
                break
        problems = sanitize_function(func)
        assert any("resolves to no block" in p for p in problems)

    def test_duplicate_labels(self):
        _, func = _main()
        func.blocks[-1].label = func.blocks[0].label
        assert any(
            "duplicate label" in p for p in sanitize_function(func)
        )

    def test_transfer_in_mid_block(self):
        _, func = _main()
        block = func.blocks[0]
        block.insns.insert(0, Jump(func.blocks[-1].label))
        assert any(
            "not at block end" in p for p in sanitize_function(func)
        )

    def test_final_block_fallthrough(self):
        _, func = _main()
        last = func.blocks[-1]
        assert last.insns
        last.insns.pop()  # drop the Return
        assert any(
            "falls off the end" in p for p in sanitize_function(func)
        )

    def test_check_sanitized_raises_with_stage(self):
        _, func = _main()
        func.blocks[0].succs.clear()
        with pytest.raises(SanitizeError) as exc:
            check_sanitized(func, "unit-test-stage")
        assert exc.value.function == "main"
        assert exc.value.stage == "unit-test-stage"
        assert exc.value.violations


class TestEditionCoherence:
    """A layout change that ``compute_flow`` never saw is reported while
    the analysis cache is at the current edition."""

    @staticmethod
    def _reordered_behind_a_cached_loop_forest():
        from repro.cfg import get_analyses
        from tests.verify.reference_sanitizer import reference_sanitize

        program, func = _main()
        sanitizer = Sanitizer()
        assert sanitizer.check(func, program) == []
        loop = get_analyses(func).loops().loops[0]
        first, second = loop.members[:2]
        i, j = func.blocks.index(first), func.blocks.index(second)
        func.blocks[i], func.blocks[j] = second, first
        return program, func, sanitizer, reference_sanitize

    def test_reordered_blocks_and_loop_members_are_reported(self):
        program, func, sanitizer, reference = self._reordered_behind_a_cached_loop_forest()
        problems = sanitize_function(func, program)
        assert any("changed the layout without compute_flow" in p for p in problems)
        assert any("cached loop of" in p for p in problems)
        assert sanitizer.check(func, program) == problems
        assert reference(func, program) == problems

    def test_compute_flow_clears_the_fault(self):
        program, func, _, _ = self._reordered_behind_a_cached_loop_forest()
        compute_flow(func)
        problems = sanitize_function(func, program)
        assert not any("without compute_flow" in p or "cached loop" in p for p in problems)


class TestRtlViolations:
    def test_float_and_bool_consts_are_their_own_nodes(self):
        # Constants intern by type and value: neither compares equal to
        # Const(1), so the sanitizer's identity snapshot sees the swap.
        assert Const(1.0) is not Const(1) and Const(1.0) != Const(1)
        assert Const(True) is not Const(1) and Const(True) != Const(1)
        assert Const(1.0) is not Const(True)
        program, func = _main()
        func.blocks[0].insns.insert(0, Assign(Reg("v", 7), Const(1.0)))
        assert "Const holds 1.0 (not int)" in "\n".join(
            sanitize_function(func, program)
        )

    def test_store_memory_width(self):
        # A store's Mem node is its destination, not one of the
        # expressions it reads: its width is checked there, by both the
        # from-scratch check and a verifier carrying a clean verdict.
        program, func = _main()
        verifier = Verifier("sanitize")
        verifier.begin(program)
        verifier.after_pass(func, "clean")
        func.blocks[0].insns.insert(0, Assign(Mem(Const(64), "Q"), Const(1)))
        assert "bad memory width 'Q'" in "\n".join(sanitize_function(func, program))
        with pytest.raises(SanitizeError) as exc:
            verifier.after_pass(func, "damage")
        assert any("bad memory width 'Q'" in v for v in exc.value.violations)

    def test_unknown_register_bank(self):
        _, func = _main()
        func.blocks[0].insns.insert(0, Assign(Reg("z", 0), Const(1)))
        assert any(
            "unknown register bank" in p for p in sanitize_function(func)
        )

    def test_sym_without_global(self):
        from repro.rtl.expr import Sym

        program, func = _main()
        func.blocks[0].insns.insert(0, Assign(Reg("d", 0), Sym("no_such")))
        assert any(
            "names no program global" in p
            for p in sanitize_function(func, program)
        )
        # Without program context the check is skipped, not wrong.
        assert not any(
            "names no program global" in p for p in sanitize_function(func)
        )

    def test_vreg_survives_regalloc(self):
        _, func = _main()
        func.blocks[0].insns.insert(0, Assign(Reg("v", 7), Const(1)))
        clean = sanitize_function(func, post_regalloc=False)
        assert not any("survived register allocation" in p for p in clean)
        dirty = sanitize_function(func, post_regalloc=True)
        assert any("survived register allocation" in p for p in dirty)

    def test_vreg_use_no_def_on_any_path(self):
        func = function_from_text(
            "f",
            """
            d[0]=v[3];
            PC=RT;
            """,
        )
        # v[3] is never defined anywhere: exempt (zero-initialised source
        # variable semantics).
        assert sanitize_function(func) == []
        # But once *a* definition exists that cannot reach the use, flag it.
        func.blocks[0].insns.append(Assign(Reg("v", 3), Const(1)))
        func.blocks[0].insns[-1], func.blocks[0].insns[-2] = (
            func.blocks[0].insns[-2],
            func.blocks[0].insns[-1],
        )
        # Block is now: d[0]=v[3]; v[3]=1; PC=RT; — the def follows the use.
        compute_flow(func)
        assert any(
            "used before any definition" in p for p in sanitize_function(func)
        )

    def test_vreg_use_in_unreachable_block_is_vacuous(self):
        func = function_from_text(
            "f",
            """
            v[1]=1;
            PC=L9;
            L2:
              d[0]=v[2];
              PC=L9;
            L9:
              v[2]=2;
              PC=RT;
            """,
        )
        # L2 (the use of v[2] before its def) is unreachable from entry:
        # fold_branches strands blocks like this until the next dead-code
        # sweep, and the sanitizer must not cry wolf over them.
        assert sanitize_function(func) == []

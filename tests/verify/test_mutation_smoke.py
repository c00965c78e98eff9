"""Mutation smoke: inject known-bad transforms, prove the validator bites.

Each test monkeypatches one pass *in the driver's namespace* (the
driver's step lambdas resolve names at call time) with a wrapper that
runs the real pass and then corrupts the function in a deterministic,
one-directional way.  The full-mode verifier must (a) raise, (b) name
the corruption, and — for behavioural mutations — (c) bisect to the
guilty pass.  Mutations must be one-directional (never undo themselves
on a later invocation) and actually behaviour-changing on the test
input, otherwise the oracle is *correctly* silent.

The sanitizer-skip tests hide structural damage behind a pass that
reports "no change"; the skip must still see it.  The last class checks
the flag itself: over the suite, no pass reports "no change" after
changing its function.
"""

import pytest

import repro.opt.driver as driver
from repro.benchsuite import PROGRAMS, program_names
from repro.frontend import compile_c
from repro.opt.driver import OptimizationConfig, optimize_program
from repro.rtl.expr import Const
from repro.rtl.insn import Assign, Compare, CondBranch
from repro.targets import get_target
from repro.verify import MiscompileError, SanitizeError, Verifier

LOOP_SUM = """
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 5; i++) { s = s + (i * 3); }
    printf("%d\\n", s);
    return 0;
}
"""

CONST_OUT = """
int main() {
    int a;
    a = 7;
    printf("%d\\n", a);
    return 0;
}
"""


def _verify(source, mode="full", bisect=True):
    program = compile_c(source)
    verifier = Verifier(mode, inputs=[b""], bisect=bisect)
    optimize_program(
        program,
        get_target("sparc"),
        OptimizationConfig(replication="jumps"),
        verifier=verifier,
    )
    return verifier


def _flip_first_lt_branch(func) -> bool:
    """One-directional off-by-one: the first ``<`` branch becomes ``<=``."""
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, CondBranch) and term.rel == "<":
            term.rel = "<="
            return True
    return False


class TestOracleCatchesMiscompiles:
    def test_clean_pipeline_verifies(self):
        verifier = _verify(LOOP_SUM)
        report = verifier.report()
        assert "failure" not in report
        assert report["oracle_runs"] >= 2
        assert report["pass_invocations"] > 0

    def test_mutated_strength_reduction_caught_and_bisected(self, monkeypatch):
        real = driver.strength_reduce

        def evil(func):
            changed = real(func)
            return _flip_first_lt_branch(func) or changed

        monkeypatch.setattr(driver, "strength_reduce", evil)
        with pytest.raises(MiscompileError) as exc:
            _verify(LOOP_SUM)
        assert exc.value.guilty_pass == "main:strength_reduction"
        bisection = exc.value.report["failure"]["bisection"]
        assert bisection["reproduced"]
        assert bisection["k_bad"] == bisection["k_good"] + 1

    def test_mutated_copy_prop_caught_and_bisected(self, monkeypatch):
        real = driver.propagate_copies

        def evil(func):
            changed = real(func)
            for block in func.blocks:
                for insn in block.insns:
                    if isinstance(insn, Assign) and isinstance(insn.src, Const):
                        # Monotone corruption: the constant only ever grows,
                        # so repeated invocations never restore behaviour.
                        insn.src = Const(insn.src.value + 1)
                        return True
            return changed

        monkeypatch.setattr(driver, "propagate_copies", evil)
        with pytest.raises(MiscompileError) as exc:
            _verify(CONST_OUT)
        assert exc.value.guilty_pass == "main:copy_prop"

    def test_bisect_false_still_detects(self, monkeypatch):
        real = driver.strength_reduce

        def evil(func):
            changed = real(func)
            return _flip_first_lt_branch(func) or changed

        monkeypatch.setattr(driver, "strength_reduce", evil)
        with pytest.raises(MiscompileError) as exc:
            _verify(LOOP_SUM, bisect=False)
        assert exc.value.guilty_pass is None
        assert exc.value.report["failure"]["kind"] == "miscompile"

    def test_sanitize_mode_misses_pure_behaviour_bugs(self, monkeypatch):
        # A structurally-valid miscompile is exactly what "sanitize"
        # cannot see — documents the mode ladder rather than a defect.
        real = driver.strength_reduce

        def evil(func):
            changed = real(func)
            return _flip_first_lt_branch(func) or changed

        monkeypatch.setattr(driver, "strength_reduce", evil)
        verifier = _verify(LOOP_SUM, mode="sanitize")
        assert "failure" not in verifier.report()


class TestSanitizerCatchesStructuralDamage:
    def test_broken_branch_target_caught_at_the_pass(self, monkeypatch):
        real = driver.fold_constants

        def evil(func):
            changed = real(func)
            for block in func.blocks:
                term = block.terminator
                if isinstance(term, CondBranch):
                    term.target = "L_nowhere"
                    return True
            return changed

        monkeypatch.setattr(driver, "fold_constants", evil)
        with pytest.raises(SanitizeError) as exc:
            _verify(LOOP_SUM)
        assert exc.value.function == "main"
        assert exc.value.stage == "const_fold"
        assert any("resolves to no block" in v for v in exc.value.violations)

    def test_stale_edges_caught_at_the_pass(self, monkeypatch):
        real = driver.local_cse

        def evil(func, target):
            changed = real(func, target)
            for block in func.blocks:
                if block.succs:
                    block.succs.clear()
                    return True
            return changed

        monkeypatch.setattr(driver, "local_cse", evil)
        with pytest.raises(SanitizeError) as exc:
            _verify(LOOP_SUM)
        assert exc.value.stage == "local_cse"
        assert any("stale" in v for v in exc.value.violations)


def _floaten_first_const(func) -> bool:
    """Turn the first ``Const(n)`` operand into ``Const(float(n))``.

    The value is equal, but constants intern by type and value, so
    ``Const(5.0)`` is a node of its own: the identity comparison of the
    sanitizer's inputs notices the swap.
    """
    for block in func.blocks:
        for insn in block.insns:
            if isinstance(insn, Assign) and isinstance(insn.src, Const):
                insn.src = Const(float(insn.src.value))
                return True
            if isinstance(insn, Compare) and isinstance(insn.right, Const):
                insn.right = Const(float(insn.right.value))
                return True
    return False


class TestSanitizerSkip:
    """The verifier skips a function unchanged since its last clean check.

    The skip compares what the sanitizer reads, by identity, and never
    trusts the pass's "changed" flag: damage done by a pass that claims
    no change is still caught at that pass.
    """

    def test_broken_branch_target_behind_false_outcome(self, monkeypatch):
        real = driver.fold_constants

        def evil(func):
            real(func)
            for block in func.blocks:
                term = block.terminator
                if isinstance(term, CondBranch):
                    term.target = "L_nowhere"
                    break
            return False

        monkeypatch.setattr(driver, "fold_constants", evil)
        with pytest.raises(SanitizeError) as exc:
            _verify(LOOP_SUM, mode="sanitize")
        assert exc.value.stage == "const_fold"
        assert any("resolves to no block" in v for v in exc.value.violations)

    def test_equal_but_not_identical_const_behind_false_outcome(self, monkeypatch):
        real = driver.fold_branches

        def evil(func):
            if real(func):
                return True
            _floaten_first_const(func)
            return False

        monkeypatch.setattr(driver, "fold_branches", evil)
        with pytest.raises(SanitizeError) as exc:
            _verify(LOOP_SUM, mode="sanitize")
        assert exc.value.stage == "fold_branches"
        assert any("(not int)" in v for v in exc.value.violations)

    def test_clean_run_skips_and_counts(self):
        from repro.obs import Observer, deactivate, install

        observer = Observer()
        install(observer)
        try:
            report = _verify(LOOP_SUM, mode="sanitize").report()
        finally:
            deactivate()
        counters = observer.snapshot()["metrics"]["counters"]
        assert report["sanitize_skipped"] > 0
        assert counters["verify.sanitize.skipped"] == report["sanitize_skipped"]
        assert (
            counters["verify.sanitize.pass"] + counters["verify.sanitize.skipped"]
            == report["sanitize_checks"]
        )


#: The driver's pass functions, by the name its step lambdas resolve.
DRIVER_PASSES = (
    "branch_chaining",
    "eliminate_dead_code",
    "reorder_blocks",
    "fold_constants",
    "legalize",
    "combine",
    "promote_locals",
    "local_cse",
    "propagate_copies",
    "eliminate_dead_variables",
    "loop_invariant_code_motion",
    "strength_reduce",
    "fold_branches",
    "color_registers",
    "fill_delay_slots",
)


def _content(func):
    """Everything a pass can change, as comparable text."""
    return [
        (
            block.label,
            [repr(insn) for insn in block.insns],
            [succ.label for succ in block.succs],
        )
        for block in func.blocks
    ]


class TestPassOutcomesAreHonest:
    """No pass reports "no change" after changing the function.

    The driver's do-while loop trusts that flag to converge.  This is a
    test rather than a sanitizer rule because ``Verifier.after_pass``
    receives no outcome, and that hook signature is subclassed elsewhere.
    """

    @pytest.mark.parametrize("replication", ["none", "jumps"])
    @pytest.mark.parametrize("target_name", ["m68020", "sparc"])
    @pytest.mark.parametrize("name", program_names())
    def test_suite_program(self, name, target_name, replication, monkeypatch):
        lapses = []

        def honest(pass_name, real, outcome_of=bool):
            def wrapper(func, *args, **kwargs):
                before = _content(func)
                result = real(func, *args, **kwargs)
                if not outcome_of(result) and _content(func) != before:
                    lapses.append((func.name, pass_name))
                return result

            return wrapper

        for pass_name in DRIVER_PASSES:
            monkeypatch.setattr(
                driver, pass_name, honest(pass_name, getattr(driver, pass_name))
            )
        real_run = driver.CodeReplicator.run
        run = honest(
            "replication",
            lambda func, replicator: real_run(replicator, func),
            lambda stats: stats.jumps_replaced > 0,
        )
        monkeypatch.setattr(
            driver.CodeReplicator, "run", lambda self, func: run(func, self)
        )
        program = compile_c(PROGRAMS[name].source)
        optimize_program(
            program,
            get_target(target_name),
            OptimizationConfig(replication=replication),
        )
        assert lapses == []


class TestObservability:
    def test_metrics_and_decision_log_on_miscompile(self, monkeypatch):
        from repro.obs import Observer, deactivate, install

        real = driver.strength_reduce

        def evil(func):
            changed = real(func)
            return _flip_first_lt_branch(func) or changed

        monkeypatch.setattr(driver, "strength_reduce", evil)
        observer = Observer()
        install(observer)
        try:
            with pytest.raises(MiscompileError):
                _verify(LOOP_SUM)
        finally:
            deactivate()
        snapshot = observer.snapshot()
        counters = snapshot["metrics"]["counters"]
        assert counters.get("verify.miscompiles") == 1
        assert counters.get("verify.oracle.runs", 0) >= 1
        assert counters.get("verify.bisect.steps", 0) >= 1
        assert counters.get("verify.sanitize.pass", 0) > 0
        # The miscompile is a counter, not a replication decision.
        assert all(
            d["outcome"] in ("accepted", "redundant", "rejected", "kept")
            for d in snapshot["decisions"]
        )

    def test_metrics_on_clean_run(self):
        from repro.obs import Observer, deactivate, install

        observer = Observer()
        install(observer)
        try:
            _verify(LOOP_SUM)
        finally:
            deactivate()
        counters = observer.snapshot()["metrics"]["counters"]
        assert counters.get("verify.sanitize.fail", 0) == 0
        assert counters.get("verify.miscompiles", 0) == 0
        assert counters.get("verify.oracle.runs", 0) >= 2

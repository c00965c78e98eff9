"""Profile-guided JUMPS: ``OptimizationConfig(profile_threshold=...)``."""

import pytest

from repro.ease import Interpreter, measure_program
from repro.frontend import compile_c
from repro.obs import observing
from repro.opt import OptimizationConfig, optimize_program
from repro.targets import get_target
from repro.rtl.insn import CondBranch
from repro.verify import MiscompileError, Verifier, check_sanitized

# A program with one hot loop jump and one cold (error-path) jump.
SOURCE = """
int errors;

int main() {
    int i, s;
    s = 0;
    for (i = 0; i < 200; i++) {
        s += i;
    }
    if (s < 0) {
        errors = errors + 1;
        while (errors < 3)
            errors = errors + 1;
    }
    printf("%d\\n", s);
    return 0;
}
"""


def reference():
    return Interpreter(compile_c(SOURCE)).run()


def guided(threshold, target="sparc", verifier=None):
    """Compile SOURCE with profile-guided JUMPS; return (program, stats)."""
    program = compile_c(SOURCE)
    config = OptimizationConfig(replication="jumps", profile_threshold=threshold)
    stats = optimize_program(program, get_target(target), config, verifier=verifier)
    return program, stats


class TestProfileGuided:
    @pytest.mark.parametrize("target_name", ["m68020", "sparc"])
    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0])
    def test_behaviour_preserved(self, target_name, threshold):
        ref = reference()
        program, _ = guided(threshold, target_name)
        for func in program.functions.values():
            check_sanitized(func, "profile-guided JUMPS", post_regalloc=True)
        got = Interpreter(program).run()
        assert got.output == ref.output
        assert got.exit_code == ref.exit_code

    def test_cold_jumps_kept(self):
        program, stats = guided(0.0)
        # The never-executed error path keeps its jump(s); the hot loop
        # jump was replaced.
        assert stats.hot_jumps >= 1
        assert stats.cold_jumps >= 1
        assert stats.jumps_replaced >= 1
        assert program.jump_count() >= 1  # cold code still has jumps

    def test_threshold_one_replicates_nothing_cold(self):
        _, stats = guided(1.1)
        assert stats.hot_jumps == 0
        assert stats.jumps_replaced == 0

    def test_dynamic_savings_close_to_full_jumps(self):
        target = get_target("sparc")
        full = compile_c(SOURCE)
        optimize_program(full, target, OptimizationConfig(replication="jumps"))
        full_m = measure_program(full, target)

        pgo, _ = guided(0.0)
        pgo_m = measure_program(pgo, target)

        simple = compile_c(SOURCE)
        optimize_program(simple, target, OptimizationConfig(replication="none"))
        simple_m = measure_program(simple, target)

        full_saving = simple_m.dynamic_insns - full_m.dynamic_insns
        pgo_saving = simple_m.dynamic_insns - pgo_m.dynamic_insns
        assert full_saving > 0
        # PGO captures the lion's share of the hot-path savings.
        assert pgo_saving >= 0.6 * full_saving

    def test_every_jump_is_hot_or_cold(self):
        """Hot and cold partition the jumps left after the SIMPLE run."""
        simple = compile_c(SOURCE)
        optimize_program(simple, get_target("m68020"), OptimizationConfig())
        _, stats = guided(0.5, "m68020")
        assert stats.hot_jumps + stats.cold_jumps == simple.jump_count()

    def test_threshold_needs_jumps(self):
        with pytest.raises(ValueError):
            OptimizationConfig(replication="loops", profile_threshold=0.1)


class TestDriverSteps:
    """The post-profile passes run as driver steps, spanned, counted and
    bisected like every Figure-3 pass (``tests/exec/test_cache.py`` runs
    profile cells under the sanitizer and the oracle)."""

    def test_post_profile_steps_are_passes(self):
        with observing() as obs:
            verifier = Verifier()
            guided(0.1, verifier=verifier)
        trace = [name for _, name in verifier.pass_trace]
        assert trace[-5:] == [
            "replication", "branch_chaining", "dead_code", "dead_vars", "delay_slots"
        ]
        assert obs.metrics.counters["opt.pass_invocations"] == len(trace)
        roots = [s for s in obs.tracer.spans if s.name == "opt.function"]
        assert [s.attrs.get("profile_threshold") for s in roots] == [None, 0.1]
        by_id = {s.span_id: s for s in obs.tracer.spans}
        post = [s for s in obs.tracer.spans if by_id.get(s.parent_id) is roots[-1]]
        assert [s.name for s in post] == [f"opt.{name}" for name in trace[-5:]]

    def test_miscompile_after_the_profile_is_bisected(self, monkeypatch):
        """A replay re-runs the training run, so bisection can blame a
        post-profile pass (delay slots run only there)."""
        import repro.opt.driver as driver

        real = driver.fill_delay_slots

        def evil(func):
            changed = real(func)
            for block in func.blocks:
                term = block.terminator
                if isinstance(term, CondBranch) and term.rel in ("<", ">="):
                    term.rel = {"<": ">=", ">=": "<"}[term.rel]
                    return True
            return changed

        monkeypatch.setattr(driver, "fill_delay_slots", evil)
        with pytest.raises(MiscompileError) as exc:
            guided(0.1, verifier=Verifier("full"))
        assert exc.value.guilty_pass == "main:delay_slots"

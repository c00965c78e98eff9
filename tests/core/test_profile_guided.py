"""Profile-guided replication tests."""

import pytest

from repro.core import profile_guided_replication
from repro.ease import Interpreter, measure_program
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.targets import get_target
from repro.verify import check_sanitized

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


class TestProfileGuided:
    @pytest.mark.parametrize("target_name", ["m68020", "sparc"])
    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0])
    def test_behaviour_preserved(self, target_name, threshold):
        ref = reference()
        program = compile_c(SOURCE)
        target = get_target(target_name)
        profile_guided_replication(program, target, threshold=threshold)
        for func in program.functions.values():
            check_sanitized(func, "profile_guided_replication", post_regalloc=True)
        got = Interpreter(program).run()
        assert got.output == ref.output
        assert got.exit_code == ref.exit_code

    def test_cold_jumps_kept(self):
        program = compile_c(SOURCE)
        target = get_target("sparc")
        result = profile_guided_replication(program, target, threshold=0.0)
        # The never-executed error path keeps its jump(s); the hot loop
        # jump was replaced.
        assert result.hot_jumps >= 1
        assert result.cold_jumps >= 1
        assert result.stats.jumps_replaced >= 1
        assert program.jump_count() >= 1  # cold code still has jumps

    def test_threshold_one_replicates_nothing_cold(self):
        program = compile_c(SOURCE)
        target = get_target("sparc")
        result = profile_guided_replication(program, target, threshold=1.1)
        assert result.hot_jumps == 0
        assert result.stats.jumps_replaced == 0

    def test_dynamic_savings_close_to_full_jumps(self):
        target = get_target("sparc")
        full = compile_c(SOURCE)
        optimize_program(full, target, OptimizationConfig(replication="jumps"))
        full_m = measure_program(full, target)

        pgo = compile_c(SOURCE)
        profile_guided_replication(pgo, target, threshold=0.0)
        pgo_m = measure_program(pgo, target)

        simple = compile_c(SOURCE)
        optimize_program(simple, target, OptimizationConfig(replication="none"))
        simple_m = measure_program(simple, target)

        full_saving = simple_m.dynamic_insns - full_m.dynamic_insns
        pgo_saving = simple_m.dynamic_insns - pgo_m.dynamic_insns
        assert full_saving > 0
        # PGO captures the lion's share of the hot-path savings.
        assert pgo_saving >= 0.6 * full_saving

    def test_profile_covers_all_blocks(self):
        program = compile_c(SOURCE)
        target = get_target("sparc")
        result = profile_guided_replication(program, target, threshold=0.5)
        assert result.profile  # (function, label) -> count
        assert all(count >= 0 for count in result.profile.values())

"""Figure-3 driver tests."""

import pytest

from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.rtl import Nop
from repro.targets import get_target
from repro.verify import check_sanitized

SOURCE = """
int total;
int main() {
    int i;
    total = 0;
    for (i = 0; i < 50; i++) {
        if (i % 2 == 0) total += i;
        else total -= 1;
    }
    return total;
}
"""


class TestConfig:
    def test_rejects_unknown_replication(self):
        with pytest.raises(ValueError):
            OptimizationConfig(replication="everything")

    @pytest.mark.parametrize("replication", ["none", "loops", "jumps"])
    def test_accepts_paper_configurations(self, replication):
        OptimizationConfig(replication=replication)


class TestPipeline:
    @pytest.mark.parametrize("target_name", ["m68020", "sparc"])
    @pytest.mark.parametrize("replication", ["none", "loops", "jumps"])
    def test_output_wellformed_and_legal(self, target_name, replication):
        program = compile_c(SOURCE)
        target = get_target(target_name)
        optimize_program(program, target, OptimizationConfig(replication=replication))
        for func in program.functions.values():
            check_sanitized(func, "optimize_program", post_regalloc=True)
            for insn in func.insns():
                assert target.legal(insn)
                # No virtual registers survive allocation.
                for reg in insn.used_regs():
                    assert reg.bank != "v"

    def test_jumps_config_eliminates_jumps(self):
        program = compile_c(SOURCE)
        optimize_program(
            program, get_target("sparc"), OptimizationConfig(replication="jumps")
        )
        assert program.jump_count() == 0

    def test_simple_config_keeps_jumps(self):
        program = compile_c(SOURCE)
        optimize_program(
            program, get_target("sparc"), OptimizationConfig(replication="none")
        )
        assert program.jump_count() > 0

    def test_delay_slots_only_on_sparc(self):
        for name, expect_nops_possible in (("sparc", True), ("m68020", False)):
            program = compile_c(SOURCE)
            optimize_program(program, get_target(name), OptimizationConfig())
            nops = sum(
                1
                for f in program.functions.values()
                for i in f.insns()
                if isinstance(i, Nop)
            )
            if not expect_nops_possible:
                assert nops == 0

    def test_replication_stats_accumulated(self):
        program = compile_c(SOURCE)
        stats = optimize_program(
            program, get_target("sparc"), OptimizationConfig(replication="jumps")
        )
        assert stats.jumps_replaced > 0

    def test_optimizer_shrinks_naive_code(self):
        program = compile_c(SOURCE)
        naive = program.insn_count()
        optimize_program(program, get_target("m68020"), OptimizationConfig())
        assert program.insn_count() < naive

    def test_max_iterations_respected(self, monkeypatch):
        from repro.obs import observing

        monkeypatch.setattr("repro.opt.driver.MAX_ITERATIONS", 1)
        program = compile_c(SOURCE)
        config = OptimizationConfig(replication="jumps")
        with observing() as obs:
            optimize_program(program, get_target("sparc"), config)
        spans = [s for s in obs.tracer.spans if s.name == "opt.function"]
        assert spans and all(s.attrs["iterations"] == 1 for s in spans)
        for func in program.functions.values():
            check_sanitized(func, "optimize_program", post_regalloc=True)

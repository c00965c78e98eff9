"""Measurement-layer tests (EASE substitute)."""

from repro.ease import Interpreter, measure_program
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.targets import get_target
from tests.traces import expand

SOURCE = """
int main() {
    int i, s;
    s = 0;
    for (i = 0; i < 50; i++)
        s += i;
    printf("%d\\n", s);
    return s;
}
"""


def measured(target_name="sparc", replication="none", source=SOURCE, trace=False):
    program = compile_c(source)
    target = get_target(target_name)
    optimize_program(program, target, OptimizationConfig(replication=replication))
    return measure_program(program, target, trace=trace)


class TestCounts:
    def test_static_count_matches_weighted_rtls(self):
        m = measured("m68020")
        # On the 68020 every RTL is one instruction.
        assert m.static_insns > 0

    def test_dynamic_ge_static_for_looping_program(self):
        m = measured()
        assert m.dynamic_insns > m.static_insns

    def test_output_and_exit_code_captured(self):
        m = measured()
        assert m.output == b"1225\n"
        assert m.exit_code == 1225

    def test_jump_counts_drop_with_replication(self):
        simple = measured(replication="none")
        jumps = measured(replication="jumps")
        assert simple.dynamic_jumps > 0
        assert jumps.dynamic_jumps == 0

    def test_sparc_counts_sethi_pairs(self):
        # A global access forces address formation on the SPARC: the RTL
        # counts as two instructions there, one on the 68020.
        source = """
        int g;
        int main() { g = 1; return g; }
        """
        sparc = measured("sparc", source=source)
        m68k = measured("m68020", source=source)
        assert sparc.code_bytes % 4 == 0
        assert sparc.static_insns >= m68k.static_insns

    def test_nops_counted_on_sparc_only(self):
        source = "int main() { return 0; }"
        assert measured("sparc", source=source).static_nops >= 0
        assert measured("m68020", source=source).static_nops == 0


class TestLayoutAndTrace:
    def test_block_fetches_cover_all_blocks(self):
        m = measured(trace=True)
        assert m.trace is not None
        for block_id in set(expand(m.trace)):
            assert block_id in m.block_fetches

    def test_fetch_addresses_are_increasing_within_block(self):
        m = measured(trace=True)
        for fetches in m.block_fetches.values():
            assert fetches == sorted(fetches)

    def test_trace_expands_to_dynamic_count(self):
        m = measured(trace=True)
        total_fetches = sum(len(m.block_fetches[b]) for b in expand(m.trace))
        assert total_fetches == m.dynamic_insns

    def test_insns_between_branches(self):
        m = measured()
        assert 1.0 <= m.insns_between_branches <= 50.0


class TestLayoutDetails:
    def test_68020_fetch_addresses_follow_variable_sizes(self):
        program = compile_c("int main() { return 123456; }")
        target = get_target("m68020")
        optimize_program(program, target, OptimizationConfig())
        from repro.ease import Interpreter

        interp = Interpreter(program)
        m = measure_program(program, target, trace=True, interpreter=interp)
        func = program.functions["main"]
        block_id = interp.global_block_id("main", 0)
        fetches = m.block_fetches[block_id]
        sizes = [target.insn_size(i) for i in func.blocks[0].insns]
        for index in range(1, len(fetches)):
            assert fetches[index] - fetches[index - 1] == sizes[index - 1]

    def test_code_bytes_covers_all_functions(self):
        source = """
        int f() { return 1; }
        int g() { return 2; }
        int main() { return f() + g(); }
        """
        program = compile_c(source)
        target = get_target("m68020")
        optimize_program(program, target, OptimizationConfig())
        m = measure_program(program, target)
        total = sum(
            target.insn_size(i)
            for func in program.functions.values()
            for i in func.insns()
        )
        # Function alignment may add padding, never shrink.
        assert m.code_bytes >= total

    def test_jump_table_charged_as_data(self):
        source = """
        int main() {
            int x;
            x = getchar();
            switch (x & 7) {
            case 0: return 1;
            case 1: return 2;
            case 2: return 3;
            case 3: return 4;
            default: return 0;
            }
        }
        """
        program = compile_c(source)
        target = get_target("sparc")
        config = OptimizationConfig()
        optimize_program(program, target, config)
        m_with = measure_program(program, target, stdin=b"a")
        from repro.rtl import IndirectJump

        tables = sum(
            4 * len(i.targets)
            for f in program.functions.values()
            for i in f.insns()
            if isinstance(i, IndirectJump)
        )
        insn_bytes = sum(
            target.insn_size(i)
            for f in program.functions.values()
            for i in f.insns()
        )
        if tables:
            assert m_with.code_bytes >= insn_bytes + tables

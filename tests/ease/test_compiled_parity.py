"""Engine parity: the compiled EASE engine vs the closure interpreter.

The compiled engine (``repro.ease.compile``) is a performance
optimization, so the closure interpreter is its differential reference:
for every program, both engines must agree on program output, exit
code, the final globals image, per-block execution counts, the number
of interpreted calls, *and* the compressed block-trace stream (the
Table-6 input — byte-identical, not just equivalent).

Coverage is the full 14-program Table-5 suite (optimized, ``jumps``
replication — the block shapes the compiler actually fuses) plus fuzzed
mini-C from the verification campaign's generator.  Step-limit
accounting gets its own boundary tests: both engines must raise
:class:`StepLimitExceeded` on exactly the same executed block with the
same message, including limits landing mid-way through a fused chain.
"""

import pytest

from repro.benchsuite.programs import PROGRAMS, program_names
from repro.ease import (
    CompiledInterpreter,
    Interpreter,
    StepLimitExceeded,
    make_interpreter,
)
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.targets import get_target
from repro.verify.fuzz import generate_program

FUZZ_SEEDS = list(range(16))


def optimized(source):
    program = compile_c(source)
    optimize_program(
        program, get_target("sparc"), OptimizationConfig(replication="jumps")
    )
    return program


def observe(interp, stdin=b"", trace=True):
    result = interp.run(stdin=stdin, trace=trace)
    return {
        "output": result.output,
        "exit_code": result.exit_code,
        "globals_image": result.globals_image,
        "block_counts": dict(result.block_counts),
        "calls_executed": result.calls_executed,
        "trace": list(result.trace.records()) if trace else None,
    }


def assert_engine_parity(program, stdin=b"", max_steps=200_000_000):
    """Run both engines; every observable must match.  Returns the
    compiled engine so callers can inspect fallbacks."""
    want = observe(Interpreter(program, max_steps=max_steps), stdin)
    compiled = CompiledInterpreter(program, max_steps=max_steps)
    got = observe(compiled, stdin)
    for field in ("output", "exit_code", "globals_image", "calls_executed"):
        assert got[field] == want[field], field
    assert got["block_counts"] == want["block_counts"]
    # Record by record: the compiled engine must feed the RLE sink the
    # *same stream*, not a rearrangement of it.
    assert got["trace"] == want["trace"]
    return compiled


class TestSuitePrograms:
    """All 14 Table-5 programs, optimized the way Table 5 runs them."""

    @pytest.fixture(scope="class")
    def suite(self):
        return {
            name: (optimized(PROGRAMS[name].source), PROGRAMS[name].stdin)
            for name in program_names()
        }

    @pytest.mark.parametrize("name", program_names())
    def test_parity(self, suite, name):
        program, stdin = suite[name]
        compiled = assert_engine_parity(program, stdin=stdin)
        # Every suite function must actually go through the compiler —
        # a silent fallback would make this parity test vacuous for the
        # functions that matter.
        assert compiled.fallbacks == {}, compiled.fallbacks
        # Block fusion must engage on the shapes Table 5 runs, not just
        # be correct when idle.
        assert compiled.blocks_fused > 0

    def test_unoptimized_parity(self, suite):
        # The engines must also agree on front-end output (no
        # replication, different block shapes: more jumps, no fusion
        # across the shapes replication produces).
        for name in ("wc", "queens", "compact"):
            program = compile_c(PROGRAMS[name].source)
            assert_engine_parity(program, stdin=PROGRAMS[name].stdin)


class TestFuzzedPrograms:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_parity(self, seed):
        assert_engine_parity(optimized(generate_program(seed)))

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:6])
    def test_parity_unoptimized(self, seed):
        assert_engine_parity(compile_c(generate_program(seed)))


# A loop whose replicated body fuses into multi-block chains, plus a
# compiled-to-compiled call in the hot path: limits can land mid-chain
# and mid-call, the two places step accounting is easiest to get wrong.
STEP_LIMIT_SOURCE = """int add(int x, int y) {
    if (x > y) {
        return x + y + 1;
    }
    return x + y;
}
int main() {
    int i;
    int s;
    s = 0;
    for (i = 0; i < 40; i++) {
        s = add(s, i);
        if (s > 300) {
            s = s - 13;
        }
    }
    printf("%d\\n", s);
    return s & 255;
}
"""


class TestStepLimitParity:
    """StepLimitExceeded must fire on the same executed block in both
    engines — exact-boundary regression tests (satellite of the
    compiled-engine PR)."""

    @pytest.fixture(scope="class")
    def program(self):
        return optimized(STEP_LIMIT_SOURCE)

    @pytest.fixture(scope="class")
    def total_steps(self, program):
        result = Interpreter(program, max_steps=10_000_000).run()
        return sum(result.block_counts.values())

    def test_exact_limit_passes_both_engines(self, program, total_steps):
        # max_steps == blocks executed: the final block's debit leaves
        # zero budget but does not trip.  Both engines must complete,
        # with full observable parity.
        assert_engine_parity(program, max_steps=total_steps)

    def test_one_below_limit_raises_both_engines(self, program, total_steps):
        for engine_cls in (Interpreter, CompiledInterpreter):
            with pytest.raises(StepLimitExceeded) as exc:
                engine_cls(program, max_steps=total_steps - 1).run()
            assert str(exc.value) == f"exceeded {total_steps - 1} block steps"

    @pytest.mark.parametrize("offset", [2, 3, 5, 17, 101])
    def test_boundary_sweep_engines_agree(self, program, total_steps, offset):
        # Limits landing mid-run — including mid-fused-chain and inside
        # the called function — must trip identically.  Identical
        # exception type and message; neither engine runs further than
        # the other (parity of the raise itself).
        limit = total_steps - offset
        for engine_cls in (Interpreter, CompiledInterpreter):
            with pytest.raises(StepLimitExceeded) as exc:
                engine_cls(program, max_steps=limit).run()
            assert str(exc.value) == f"exceeded {limit} block steps"

    def test_limit_one_agrees(self, program):
        for engine_cls in (Interpreter, CompiledInterpreter):
            with pytest.raises(StepLimitExceeded):
                engine_cls(program, max_steps=1).run()

    def test_interpreter_reusable_after_limit(self, program, total_steps):
        # run() re-arms the budget: an engine that tripped must run
        # cleanly afterwards with a sufficient limit (both engines).
        for engine_cls in (Interpreter, CompiledInterpreter):
            interp = engine_cls(program, max_steps=total_steps - 1)
            with pytest.raises(StepLimitExceeded):
                interp.run()
            interp.max_steps = total_steps
            result = interp.run()
            assert sum(result.block_counts.values()) == total_steps


class TestEngineSelection:
    def test_make_interpreter_default_is_compiled(self):
        program = compile_c("int main() { return 7; }")
        assert isinstance(make_interpreter(program), CompiledInterpreter)

    def test_unknown_engine_rejected(self):
        # The one engine selector left is CellSpec.ease_engine.
        from repro.exec import CellSpec

        with pytest.raises(ValueError, match="compiled/interp"):
            CellSpec(program="wc", ease_engine="turbo")


class TestCompileModes:
    """Construction compiles the first run's mode; the other mode compiles
    on its own first run, once."""

    NAME = "queens"  # several functions, with compiled-to-compiled calls

    @pytest.fixture(scope="class")
    def program(self):
        return optimized(PROGRAMS[self.NAME].source)

    @pytest.fixture
    def compiles(self, monkeypatch):
        compiled = []
        original = CompiledInterpreter._pycompile

        def counting(self, func, traced):
            compiled.append((func.name, traced))
            return original(self, func, traced)

        monkeypatch.setattr(CompiledInterpreter, "_pycompile", counting)
        return compiled

    def test_traced_only_run_compiles_each_function_once(self, program, compiles):
        interp = make_interpreter(program, trace=True)
        interp.run(stdin=PROGRAMS[self.NAME].stdin, trace=True)
        interp.run(stdin=PROGRAMS[self.NAME].stdin, trace=True)
        assert sorted(compiles) == sorted((name, True) for name in program.functions)
        # Direct calls get their callee-save footprints in traced mode too.
        assert set(interp._footprints) == set(program.functions)

    def test_other_mode_compiles_on_its_first_run(self, program, compiles):
        interp = CompiledInterpreter(program)
        assert sorted(compiles) == sorted((name, False) for name in program.functions)
        for _ in range(2):
            interp.run(stdin=PROGRAMS[self.NAME].stdin, trace=True)
            interp.run(stdin=PROGRAMS[self.NAME].stdin)
        assert sorted(compiles) == sorted(
            (name, traced) for name in program.functions for traced in (False, True)
        )

    def test_traced_only_run_equals_plain_run(self, program):
        stdin = PROGRAMS[self.NAME].stdin
        traced = observe(CompiledInterpreter(program, trace=True), stdin, trace=True)
        plain = observe(CompiledInterpreter(program), stdin, trace=False)
        for field in (
            "output", "exit_code", "globals_image", "block_counts", "calls_executed"
        ):
            assert traced[field] == plain[field], field

    def test_compile_time_counter_covers_every_compile(self, program):
        from repro.obs import observing

        stdin = PROGRAMS[self.NAME].stdin
        with observing(spans=False) as obs:
            interp = CompiledInterpreter(program, trace=True)
            traced_ms = obs.metrics.counters["ease.compile.time_ms"]
            assert traced_ms == pytest.approx(interp.compile_seconds * 1000.0, abs=0.01)
            assert traced_ms > 0
            interp.run(stdin=stdin)
            counters = obs.metrics.counters
        assert counters["ease.compile.time_ms"] > traced_ms
        assert counters["ease.compile.time_ms"] == pytest.approx(
            interp.compile_seconds * 1000.0, abs=0.01
        )
        assert counters["ease.compile.functions"] == 2 * len(program.functions)

    def test_traced_measurement_compiles_only_traced_executors(self, compiles):
        from repro.ease import measure_program

        program = optimized(PROGRAMS["wc"].source)
        measure_program(
            program, get_target("sparc"), stdin=PROGRAMS["wc"].stdin, trace=True
        )
        assert compiles and all(traced for _, traced in compiles)

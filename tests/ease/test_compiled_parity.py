"""Engine parity: the compiled EASE engine vs the closure interpreter.

The compiled engine (``repro.ease.compile``) is a performance
optimization, so the closure interpreter is its differential reference:
for every program, both engines must agree on program output, exit
code, the final globals image, per-block execution counts, the number
of interpreted calls, *and* the compressed block-trace stream (the
Table-6 input — byte-identical, not just equivalent).

Coverage is the full 14-program Table-5 suite (optimized, ``jumps``
replication — the block shapes the compiler structures) plus fuzzed
mini-C from the verification campaign's generator, irreducible and
deeply nested shapes.  Step-limit accounting gets its own boundary
tests: both engines must raise :class:`StepLimitExceeded` on exactly the
same executed block with the same message, at every limit of a program
with every kind of point where the compiled engine debits its budget.
"""

import re

import pytest

from repro.benchsuite.programs import PROGRAMS, program_names
from repro.cfg import Function, Program
from repro.ease import (
    CompiledInterpreter,
    Interpreter,
    StepLimitExceeded,
    make_interpreter,
)
from repro.ease.interp import MEM_SIZE
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.rtl.arith import wrap32
from repro.rtl.insn import IndirectJump, Jump
from repro.targets import get_target
from repro.verify.fuzz import generate_program
from tests.conftest import function_from_text
from tests.core.test_random_cfgs import fuzzed_function

FUZZ_SEEDS = list(range(16))


def optimized(source, target="sparc", replication="jumps"):
    program = compile_c(source)
    optimize_program(
        program, get_target(target), OptimizationConfig(replication=replication)
    )
    return program


def switch_targets(program):
    """Distinct indirect-jump targets, summed over the program's blocks."""
    return sum(
        len(set(block.terminator.targets))
        for func in program.functions.values()
        for block in func.blocks
        if isinstance(block.terminator, IndirectJump)
    )


def observe(interp, stdin=b""):
    """What one run of ``interp`` shows; its trace if the engine is traced."""
    result = interp.run(stdin)
    return {
        "output": result.output,
        "exit_code": result.exit_code,
        "globals_image": result.globals_image,
        "block_counts": result.block_counts,
        "trace": list(result.trace.records()) if interp.trace else None,
    }


def assert_engine_parity(program, stdin=b"", max_steps=200_000_000):
    """Run both engines, traced; every observable must match.  Returns
    the compiled engine so callers can inspect it."""
    want = observe(Interpreter(program, max_steps=max_steps, trace=True), stdin)
    compiled = CompiledInterpreter(program, max_steps=max_steps, trace=True)
    got = observe(compiled, stdin)
    for field in ("output", "exit_code", "globals_image"):
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
        # The shapes Table 5 runs are reducible: loops run as loops, and
        # only switch targets are entered through a dispatch tree.
        assert compiled.dispatch_arms == switch_targets(program)

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
        return sum(result.block_counts)

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
            assert sum(result.block_counts) == total_steps


# Every point at which the compiled engine debits its step budget: a
# nested loop, a diamond in its body, a ``break``, a call inside the loop
# and a dense ``switch`` (an indirect jump).
SHAPES_SOURCE = """int sq(int x) {
    return x * x;
}
int main() {
    int i;
    int j;
    int s;
    s = 0;
    for (i = 0; i < 4; i++) {
        for (j = 0; j < 3; j++) {
            if ((i + j) % 2 == 0) {
                s = s + j;
            } else {
                s = s - 1;
            }
            if (s > 6) {
                break;
            }
        }
        s = s + sq(i);
        switch (i) {
        case 0: s = s + 1; break;
        case 1: s = s + 2; break;
        case 2: s = s + 3; break;
        case 3: s = s + 4; break;
        }
    }
    printf("%d\\n", s);
    return s & 255;
}
"""

# The block after a run of loop iterations divides by zero (the divisor
# is read from stdin, so no pass folds it).
DIVIDE_SOURCE = """int main() {
    int i;
    int s;
    int z;
    z = getchar() - 65;
    s = 0;
    for (i = 0; i < 5; i++) {
        if (i % 2 == 0) {
            s = s + i;
        }
    }
    return s / z;
}
"""


def outcome(engine_cls, program, limit, stdin=b""):
    """The exception type and message a run raises (``None`` if none)."""
    try:
        engine_cls(program, max_steps=limit).run(stdin)
    except Exception as error:  # noqa: BLE001 - the outcome is compared
        return type(error), str(error)
    return None


@pytest.mark.parametrize("shape", ["optimized", "unoptimized"])
class TestStepLimitAtEveryDebit:
    """The compiled engine debits its budget per region (back edges,
    region exits, calls, returns), yet must trip on exactly the block the
    interpreter trips on, at every limit."""

    @staticmethod
    def build(source, shape):
        return optimized(source) if shape == "optimized" else compile_c(source)

    def test_every_limit_agrees(self, shape):
        program = self.build(SHAPES_SOURCE, shape)
        compiled = assert_engine_parity(program)
        assert compiled.dispatch_arms == switch_targets(program) > 0
        total = sum(Interpreter(program).run().block_counts)
        for limit in range(1, total + 1):
            want = outcome(Interpreter, program, limit)
            assert outcome(CompiledInterpreter, program, limit) == want, limit
            if limit < total:
                assert want == (StepLimitExceeded, f"exceeded {limit} block steps")
        assert want is None

    def test_limit_lands_just_before_a_fault(self, shape):
        program = self.build(DIVIDE_SOURCE, shape)
        # k: the blocks the interpreter enters before the one that
        # divides by zero.
        k = 1
        while outcome(Interpreter, program, k + 1, b"A")[0] is StepLimitExceeded:
            k += 1
        for engine_cls in (Interpreter, CompiledInterpreter):
            assert outcome(engine_cls, program, k, b"A")[0] is StepLimitExceeded
            assert outcome(engine_cls, program, k + 1, b"A")[0] is ZeroDivisionError

    def test_exit_inside_a_loop(self, shape):
        program = self.build(
            """int main() {
    int i;
    for (i = 0; i < 10; i++) {
        if (i == 3) {
            exit(7);
        }
        putchar(65 + i);
    }
    return 0;
}
""",
            shape,
        )
        got = observe(assert_engine_parity(program))
        assert (got["output"], got["exit_code"]) == (b"ABC", 7)


# One function of 400 if/else statements: 1,202 blocks unoptimized.
LARGE_SOURCE = "int main() {\n    int s;\n    s = getchar();\n" + "".join(
    f"    if (s % 7 == {k % 7}) {{ s = s + {k}; }} else {{ s = s - 1; }}\n"
    for k in range(400)
) + '    printf("%d\\n", s);\n    return s & 255;\n}\n'


# A literal outside signed-32 range is the word a 32-bit compiler keeps,
# its value modulo 2^32 (``Const`` stores it so): 4294967297 reads 1,
# 2147483648 reads -2147483648, and ``-2147483648`` negates that word.
WIDE_SOURCE = """int g = 2147483648;
int h = 4294967297 >> 1;
int third(int x) {
    return (x | 0) / 3;
}
int main() {
    int s;
    s = third(4294967297) + (4294967297 >> 1) / 3 + (4294967297 & 4294967295) / 3;
    s = s + ~4294967297 / 3 + (4294967297 ^ 1) / 3 + 8589934594 / 2 / 3;
    s = s + 4294967300 % 8589934593 / 3 + -2147483648 / 3 + g / 5 + h;
    if (4294967297 > 5) {
        s = s + 1;
    }
    printf("%d\\n", s);
    return s & 255;
}
"""


# A cycle with two entries (L1 and L2): no block of it dominates the
# other, so it is no natural loop.
IRREDUCIBLE_TEXT = """d[1]=0;
NZ=rv[0]?{first};
PC=NZ==0,L2;
L1:
d[1]=d[1]+1;
NZ=d[1]?50;
PC=NZ>0,L3;
L2:
d[1]=d[1]+3;
NZ=d[1]?40;
PC=NZ<0,L1;
L3:
rv[0]=d[1];
PC=RT;"""

# 24 nested loops and 70 nested ifs: past the nesting the generated
# Python may have, so some blocks are entered through the dispatcher.
DEEP_SOURCE = (
    "int main() {\n    int s;\n"
    + "".join(f"    int i{d};\n" for d in range(24))
    + "    s = getchar();\n"
    + "".join(f"    for (i{d} = 0; i{d} < 1; i{d}++) {{\n" for d in range(24))
    + "    s = s + 1;\n"
    + "    }\n" * 24
    + "".join(f"    if (s > {k}) {{\n" for k in range(70))
    + "    s = s * 3;\n"
    + "    }\n" * 70
    + '    printf("%d\\n", s);\n    return s & 255;\n}\n'
)


def as_words(source):
    """``source`` with each literal of ten or more digits as its 32-bit word."""
    return re.sub(r"\d{10,}", lambda m: f"({wrap32(int(m.group()))})", source)


class TestCompiledOnly:
    """A compiled run executes generated code and nothing else."""

    def test_function_over_1024_blocks_compiles(self):
        program = compile_c(LARGE_SOURCE)
        assert len(program.functions["main"].blocks) > 1024
        compiled = assert_engine_parity(program, stdin=b"A")
        assert compiled.dispatch_arms == 0

    @pytest.mark.parametrize("first", [0, 1], ids=["enter-L2", "enter-L1"])
    def test_irreducible_cycle_runs_through_the_dispatcher(self, first):
        program = Program()
        program.add_function(
            function_from_text("main", IRREDUCIBLE_TEXT.format(first=first))
        )
        compiled = assert_engine_parity(program)
        assert compiled.dispatch_arms > 0

    @pytest.mark.parametrize("size", [15, 60, 250])
    @pytest.mark.parametrize("seed", range(4))
    def test_unstructured_cfgs_match(self, size, seed):
        # Fuel-bounded random CFGs, most of them irreducible: whatever
        # part of a function the dispatcher enters, the run is the same.
        func = fuzzed_function(size, seed)
        func.name = "main"
        program = Program()
        program.add_function(func)
        assert_engine_parity(program)

    @pytest.mark.parametrize("shape", ["unoptimized", "optimized"])
    def test_deep_nesting_compiles(self, shape):
        program = optimized(DEEP_SOURCE) if shape == "optimized" else compile_c(DEEP_SOURCE)
        compiled = assert_engine_parity(program, stdin=b"A")
        assert compiled.dispatch_arms > 0
        assert observe(compiled, b"A")["output"] == b"66\n"

    def test_wide_literals_read_as_words(self):
        want = observe(CompiledInterpreter(compile_c(as_words(WIDE_SOURCE))))
        for program in (compile_c(WIDE_SOURCE), optimized(WIDE_SOURCE)):
            got = observe(assert_engine_parity(program))
            assert (got["output"], got["exit_code"]) == (
                want["output"],
                want["exit_code"],
            )

    def test_runs_without_building_closures(self, monkeypatch):
        program = optimized(PROGRAMS["queens"].source)
        stdin = PROGRAMS["queens"].stdin
        want = observe(Interpreter(program, trace=True), stdin)

        def refuse(*args, **kwargs):
            raise AssertionError("the compiled engine built a closure")

        monkeypatch.setattr(Interpreter, "_compile_insn", refuse)
        monkeypatch.setattr(Interpreter, "_compile_terminator", refuse)
        assert observe(CompiledInterpreter(program, trace=True), stdin) == want

    def test_unknown_callee_raises_where_called(self):
        program = Program()
        program.add_function(function_from_text("main", "CALL _nosuch,0;\nPC=RT;"))
        for engine_cls in (Interpreter, CompiledInterpreter):
            engine = engine_cls(program)
            with pytest.raises(NameError, match="call to unknown function 'nosuch'"):
                engine.run()

    @pytest.mark.parametrize(
        "body", ["p[2097152] = 1; return 0;", "return p[2097152];"], ids=["store", "load"]
    )
    def test_access_past_end_of_memory_raises_index_error(self, body):
        program = compile_c(f"int main() {{ int *p; p = 0; {body} }}")
        for engine_cls in (Interpreter, CompiledInterpreter):
            with pytest.raises(IndexError):
                engine_cls(program).run()

    def test_final_cond_branch_is_rejected_when_built(self):
        func = function_from_text(
            "main", "L1:\n  NZ=d[0]?0;\n  PC=NZ!=0,L1;\n  PC=RT;"
        )
        del func.blocks[1]
        program = Program()
        program.add_function(func)
        for engine_cls in (Interpreter, CompiledInterpreter):
            with pytest.raises(
                ValueError,
                match="main: block L1: conditional branch at the function end",
            ):
                engine_cls(program)

    @pytest.mark.parametrize(
        "call",
        ["memset(p + 4194300, 7, 16)", 'strcpy(p + 4194295, "past the end")'],
        ids=["memset", "strcpy"],
    )
    def test_builtin_store_past_end_of_memory_raises_index_error(self, call):
        """A builtin's destination range that leaves memory traps; slice
        assignment would grow the memory instead."""
        program = compile_c(f"int main() {{ char *p; p = malloc(16); {call}; return 0; }}")
        for engine_cls in (Interpreter, CompiledInterpreter):
            with pytest.raises(IndexError, match="leaves memory"):
                engine_cls(program).run()

    def test_mid_block_transfer_is_rejected_when_built(self):
        program = compile_c("int main() { int i; i = 3; return i + 4; }")
        func = program.functions["main"]
        block = func.blocks[0]
        assert len(block.insns) > 1
        block.insns.insert(0, Jump(func.blocks[-1].label))
        for engine_cls in (Interpreter, CompiledInterpreter):
            with pytest.raises(ValueError, match=r"main: block \S+: transfer .* not at block end"):
                engine_cls(program)

    @staticmethod
    def access_outcomes(width, address):
        """Per load/store shape, what each engine returns or raises."""
        texts = [
            f"d[0]={address};\nrv[0]={width}[d[0]];\nPC=RT;",
            f"rv[0]={width}[{address}];\nPC=RT;",
            f"d[0]={address};\n{width}[d[0]]=-123457;\nrv[0]={width}[d[0]];\nPC=RT;",
            f"{width}[{address}]=70000;\nrv[0]={width}[{address}];\nPC=RT;",
        ]
        for text in texts:
            program = Program()
            program.add_function(function_from_text("main", text))
            outcomes = []
            for engine_cls in (Interpreter, CompiledInterpreter):
                try:
                    outcomes.append(engine_cls(program).run().exit_code)
                except Exception as error:  # noqa: BLE001 - compared by callers
                    outcomes.append(type(error))
            yield text, outcomes

    @pytest.mark.parametrize(
        "width,address",
        [
            (width, address)
            for width in ("L", "W")
            for address in (64, 66, 65, -8, -6, -4, MEM_SIZE - 4, MEM_SIZE - 2, MEM_SIZE, MEM_SIZE + 2)
        ]
        + [("W", -2)],
    )
    def test_word_access_parity(self, width, address):
        """Long and word loads and stores agree at aligned, unaligned,
        negative and past-the-end addresses: the compiled engine's
        aligned longs go through ``MachineState.words``, everything else
        through ``struct``."""
        for text, (want, got) in self.access_outcomes(width, address):
            assert got == want, text

    @pytest.mark.parametrize("width,address", [("L", -2), ("L", -1), ("W", -1)])
    def test_access_across_the_wrap_point_differs(self, width, address):
        """Known difference, left to the bounds rule (ROADMAP item 6): an
        access whose bytes run from the end of memory past address 0
        wraps byte by byte in the interpreter, while ``struct`` raises
        ``IndexError``.  Once that rule lands both engines raise."""
        for text, (want, got) in self.access_outcomes(width, address):
            assert isinstance(want, int) and got is IndexError, text

    def test_empty_function_runs(self):
        program = Program()
        program.add_function(function_from_text("main", "CALL _f,0;\nPC=RT;"))
        program.add_function(Function("f"))
        assert_engine_parity(program)


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
    """Construction compiles the engine's one mode, once per function;
    a run compiles nothing."""

    NAME = "queens"  # several functions, with compiled-to-compiled calls

    @pytest.fixture(scope="class")
    def program(self):
        return optimized(PROGRAMS[self.NAME].source)

    @pytest.fixture
    def compiles(self, monkeypatch):
        compiled = []
        original = CompiledInterpreter._pycompile

        def counting(self, func, traced, namespace):
            compiled.append((func.name, traced))
            return original(self, func, traced, namespace)

        monkeypatch.setattr(CompiledInterpreter, "_pycompile", counting)
        return compiled

    def test_traced_only_run_compiles_each_function_once(self, program, compiles):
        interp = make_interpreter(program, trace=True)
        interp.run(PROGRAMS[self.NAME].stdin)
        interp.run(PROGRAMS[self.NAME].stdin)
        assert sorted(compiles) == sorted((name, True) for name in program.functions)

    def test_traced_only_run_equals_plain_run(self, program):
        stdin = PROGRAMS[self.NAME].stdin
        traced = observe(CompiledInterpreter(program, trace=True), stdin)
        plain = observe(CompiledInterpreter(program), stdin)
        assert traced["trace"] and plain["trace"] is None
        for field in ("output", "exit_code", "globals_image", "block_counts"):
            assert traced[field] == plain[field], field

    def test_compile_time_counter_covers_every_compile(self, program):
        from repro.obs import observing

        stdin = PROGRAMS[self.NAME].stdin
        with observing(spans=False) as obs:
            interp = CompiledInterpreter(program, trace=True)
            compiled_ms = obs.metrics.counters["ease.compile.time_ms"]
            assert compiled_ms == pytest.approx(interp.compile_seconds * 1000.0, abs=0.01)
            assert compiled_ms > 0
            interp.run(stdin)
            counters = obs.metrics.counters
        assert counters["ease.compile.time_ms"] == compiled_ms
        assert counters["ease.compile.functions"] == len(program.functions)

    def test_one_register_scan_per_function(self, program, monkeypatch):
        # Bank sizing, each executor's register set and every call
        # site's callee footprint read one scan per function.
        import repro.ease.interp as interp_module

        scans = []
        scan = interp_module._registers

        def counting(func):
            scans.append(func.name)
            return scan(func)

        monkeypatch.setattr(interp_module, "_registers", counting)
        CompiledInterpreter(program, trace=True)
        assert sorted(scans) == sorted(program.functions)

    def test_traced_measurement_compiles_only_traced_executors(self, compiles):
        from repro.ease import measure_program

        program = optimized(PROGRAMS["wc"].source)
        measure_program(
            program, get_target("sparc"), stdin=PROGRAMS["wc"].stdin, trace=True
        )
        assert compiles and all(traced for _, traced in compiles)

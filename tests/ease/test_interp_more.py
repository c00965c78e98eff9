"""Additional interpreter coverage: widths, reuse, entry points."""

import pytest

from repro.cfg import Program
from repro.cfg.block import GlobalData
from repro.ease import Interpreter
from tests.conftest import function_from_text


def program_of(text, name="main", globals_=()):
    program = Program()
    program.add_function(function_from_text(name, text))
    for data in globals_:
        program.add_global(data)
    return program


def _count_for(result, func_name):
    """Total block executions inside ``func_name``."""
    return sum(
        count for (func, _block), count in result.block_counts.items()
        if func == func_name
    )


class TestWidths:
    def test_word_width_roundtrip(self):
        program = program_of(
            """
            a[0]=buf.;
            W[a[0]]=513;
            rv[0]=W[a[0]];
            PC=RT;
            """,
            globals_=[GlobalData("buf", 8)],
        )
        assert Interpreter(program).run().exit_code == 513

    def test_word_truncates_to_16_bits(self):
        program = program_of(
            """
            a[0]=buf.;
            W[a[0]]=65537;
            rv[0]=W[a[0]];
            PC=RT;
            """,
            globals_=[GlobalData("buf", 8)],
        )
        assert Interpreter(program).run().exit_code == 1

    def test_byte_store_truncates(self):
        program = program_of(
            """
            a[0]=buf.;
            B[a[0]]=300;
            rv[0]=B[a[0]];
            PC=RT;
            """,
            globals_=[GlobalData("buf", 8)],
        )
        assert Interpreter(program).run().exit_code == 300 & 0xFF

    def test_little_endian_layout(self):
        program = program_of(
            """
            a[0]=buf.;
            W[a[0]]=258;
            rv[0]=B[a[0]]*1000+B[a[0]+1];
            PC=RT;
            """,
            globals_=[GlobalData("buf", 8)],
        )
        # 258 = 0x0102 -> bytes 0x02, 0x01.
        assert Interpreter(program).run().exit_code == 2001


class TestLifecycle:
    def test_interpreter_reusable_across_runs(self):
        program = program_of(
            """
            d[0]=0;
            L1:
              d[0]=d[0]+1;
              NZ=d[0]?5;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """
        )
        interp = Interpreter(program)
        first = interp.run()
        second = interp.run()
        assert first.exit_code == second.exit_code == 5
        assert first.block_counts == second.block_counts

    def test_globals_reinitialized_between_runs(self):
        program = program_of(
            """
            a[0]=counter.;
            d[0]=L[a[0]];
            L[a[0]]=d[0]+1;
            rv[0]=d[0];
            PC=RT;
            """,
            globals_=[GlobalData("counter", 4, b"\x07\x00\x00\x00")],
        )
        interp = Interpreter(program)
        assert interp.run().exit_code == 7
        assert interp.run().exit_code == 7  # fresh memory each run

    def test_custom_entry_point(self):
        program = Program()
        program.add_function(function_from_text("main", "rv[0]=1;\nPC=RT;"))
        program.add_function(function_from_text("other", "rv[0]=2;\nPC=RT;"))
        interp = Interpreter(program)
        assert interp.run(entry="other").exit_code == 2

    def test_unknown_entry_raises(self):
        program = program_of("PC=RT;")
        with pytest.raises(KeyError):
            Interpreter(program).run(entry="nothere")

    def test_calls_executed_counter(self):
        program = Program()
        program.add_function(
            function_from_text(
                "main",
                """
                arg[0]=0;
                CALL _f,1;
                CALL _f,1;
                rv[0]=0;
                PC=RT;
                """,
            )
        )
        program.add_function(function_from_text("f", "rv[0]=arg[0];\nPC=RT;"))
        result = Interpreter(program).run()
        assert result.calls_executed == 2

    def test_count_for_helper(self):
        program = program_of("rv[0]=0;\nPC=RT;")
        result = Interpreter(program).run()
        assert _count_for(result, "main") == 1
        assert _count_for(result, "ghost") == 0

    def test_count_for_sums_all_blocks_of_a_function(self):
        program = Program()
        program.add_function(
            function_from_text(
                "main",
                """
                arg[0]=0;
                CALL _f,1;
                CALL _f,1;
                CALL _f,1;
                rv[0]=0;
                PC=RT;
                """,
            )
        )
        program.add_function(function_from_text("f", "rv[0]=arg[0];\nPC=RT;"))
        result = Interpreter(program).run()
        assert result.block_counts[("f", 0)] == 3  # entry block runs once per call
        assert _count_for(result, "f") >= 3

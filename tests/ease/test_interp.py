"""RTL interpreter tests (direct, on hand-written RTL programs)."""

import pytest

from repro.cfg import Program
from repro.ease import Interpreter, StepLimitExceeded
from repro.cfg.block import GlobalData
from tests.conftest import function_from_text
from tests.traces import expand


def program_with(main_text, globals_=(), extra_funcs=()):
    program = Program()
    func = function_from_text("main", main_text)
    program.add_function(func)
    for name, text, frame in extra_funcs:
        other = function_from_text(name, text)
        for local, size in frame:
            other.add_local(local, size)
        program.add_function(other)
    for data in globals_:
        program.add_global(data)
    return program


class TestBasics:
    def test_register_arithmetic(self):
        program = program_with(
            """
            d[0]=6;
            d[1]=7;
            rv[0]=d[0]*d[1];
            PC=RT;
            """
        )
        assert Interpreter(program).run().exit_code == 42

    def test_conditional_branch(self):
        program = program_with(
            """
            d[0]=5;
            NZ=d[0]?3;
            PC=NZ>0,L1;
            rv[0]=0;
            PC=RT;
            L1:
              rv[0]=1;
              PC=RT;
            """
        )
        assert Interpreter(program).run().exit_code == 1

    def test_loop_counts_blocks(self):
        program = program_with(
            """
            d[0]=0;
            L1:
              d[0]=d[0]+1;
              NZ=d[0]?10;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """
        )
        interp = Interpreter(program)
        result = interp.run()
        assert result.exit_code == 10
        loop_count = result.block_counts[interp.global_block_id("main", 1)]
        assert loop_count == 10

    def test_memory_widths(self):
        data = GlobalData("buf", 8)
        program = program_with(
            """
            a[0]=buf.;
            L[a[0]]=305419896;
            d[0]=B[a[0]];
            d[1]=B[a[0]+3];
            rv[0]=d[0]*256+d[1];
            PC=RT;
            """,
            globals_=[data],
        )
        # 0x12345678 little-endian: byte0 = 0x78, byte3 = 0x12.
        assert Interpreter(program).run().exit_code == 0x78 * 256 + 0x12

    def test_signed_load(self):
        data = GlobalData("x", 4)
        program = program_with(
            """
            a[0]=x.;
            L[a[0]]=-5;
            rv[0]=L[a[0]];
            PC=RT;
            """,
            globals_=[data],
        )
        assert Interpreter(program).run().exit_code == -5

    def test_global_initialization_and_relocation(self):
        text = GlobalData("msg", 3, b"ab\x00")
        pointer = GlobalData("p", 4, b"\x00\x00\x00\x00", relocs=[(0, "msg")])
        program = program_with(
            """
            a[0]=p.;
            a[1]=L[a[0]];
            rv[0]=B[a[1]+1];
            PC=RT;
            """,
            globals_=[text, pointer],
        )
        assert Interpreter(program).run().exit_code == ord("b")

    def test_indirect_jump_selects_target(self):
        program = program_with(
            """
            d[0]=1;
            PC=L[d[0]]<L0,L1,L2>;
            L0:
              rv[0]=100;
              PC=RT;
            L1:
              rv[0]=200;
              PC=RT;
            L2:
              rv[0]=300;
              PC=RT;
            """
        )
        assert Interpreter(program).run().exit_code == 200

    def test_indirect_jump_out_of_range(self):
        program = program_with(
            """
            d[0]=9;
            PC=L[d[0]]<L0>;
            L0:
              PC=RT;
            """
        )
        with pytest.raises(IndexError):
            Interpreter(program).run()

    def test_division_by_zero_traps(self):
        program = program_with(
            """
            d[0]=0;
            rv[0]=1/d[0];
            PC=RT;
            """
        )
        with pytest.raises(ZeroDivisionError):
            Interpreter(program).run()

    def test_step_limit(self):
        program = program_with(
            """
            L1:
              d[0]=d[0]+1;
              PC=L1;
            """
        )
        with pytest.raises(StepLimitExceeded):
            Interpreter(program, max_steps=1000).run()


class TestCalls:
    def test_call_and_return_value(self):
        program = program_with(
            """
            arg[0]=20;
            CALL _double,1;
            rv[0]=rv[0]+2;
            PC=RT;
            """,
            extra_funcs=[
                (
                    "double",
                    """
                    rv[0]=arg[0]*2;
                    PC=RT;
                    """,
                    [],
                )
            ],
        )
        assert Interpreter(program).run().exit_code == 42

    def test_registers_callee_saved(self):
        program = program_with(
            """
            d[0]=7;
            arg[0]=0;
            CALL _clobber,1;
            rv[0]=d[0];
            PC=RT;
            """,
            extra_funcs=[
                (
                    "clobber",
                    """
                    d[0]=999;
                    rv[0]=0;
                    PC=RT;
                    """,
                    [],
                )
            ],
        )
        assert Interpreter(program).run().exit_code == 7

    def test_frames_are_disjoint_across_recursion(self):
        # f(n): local = n; if n>0 call f(n-1); return local
        program = program_with(
            """
            arg[0]=3;
            CALL _f,1;
            PC=RT;
            """,
            extra_funcs=[
                (
                    "f",
                    """
                    L[FP+local.]=arg[0];
                    NZ=arg[0]?0;
                    PC=NZ<=0,L1;
                    arg[0]=arg[0]-1;
                    CALL _f,1;
                    L1:
                      rv[0]=L[FP+local.];
                      PC=RT;
                    """,
                    [("local", 4)],
                )
            ],
        )
        # Wait: arg[0] is modified before the recursive call, but restored
        # by callee-save on return; local must still hold the outer n.
        assert Interpreter(program).run().exit_code == 3

    def test_unknown_function_raises(self):
        program = program_with("CALL _nosuch,0;\nPC=RT;")
        with pytest.raises(NameError):
            Interpreter(program).run()

    def test_builtin_dispatch(self):
        program = program_with(
            """
            arg[0]=88;
            CALL _putchar,1;
            rv[0]=0;
            PC=RT;
            """
        )
        assert Interpreter(program).run().output == b"X"


class TestTrace:
    def test_trace_records_blocks_in_order(self):
        program = program_with(
            """
            d[0]=0;
            L1:
              d[0]=d[0]+1;
              NZ=d[0]?3;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """
        )
        interp = Interpreter(program, trace=True)
        result = interp.run()
        entry = interp.global_block_id("main", 0)
        loop = interp.global_block_id("main", 1)
        exit_ = interp.global_block_id("main", 2)
        assert expand(result.trace) == [entry, loop, loop, loop, exit_]

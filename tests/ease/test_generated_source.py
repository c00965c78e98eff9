"""The compiled engine's generated source is a function of the RTL alone.

Register sets (``Insn.used_regs()``) iterate in the order of the interned
nodes' addresses, which differ between processes.  The executor orders
its registers by (bank, index) instead, so the lines that load, flush and
save them come out the same in every process.
"""

from repro.cfg import Program
from repro.ease.compile import CompiledInterpreter, _FunctionCompiler
from tests.conftest import function_from_text

# Registers first seen out of (bank, index) order, in both functions.
CALLEE = "d[7]=1;\na[3]=d[7];\nd[2]=a[3];\nrv[0]=d[2];\nPC=RT;"
CALLER = "d[5]=2;\na[1]=d[5];\nCALL _f,0;\nd[0]=rv[0]+a[1];\nrv[0]=d[0];\nPC=RT;"


def source_lines():
    program = Program()
    program.add_function(function_from_text("f", CALLEE))
    program.add_function(function_from_text("main", CALLER))
    compiler = _FunctionCompiler(
        CompiledInterpreter(program), program.functions["main"], False
    )
    return [line.strip() for line in compiler.generate().splitlines()]


def test_registers_load_and_flush_in_bank_index_order():
    lines = source_lines()
    entry = lines[: lines.index("try:")]
    loads = [line for line in entry if line.startswith("_R_")]
    assert loads == [
        "_R_a_1 = _K_a[1]",
        "_R_d_0 = _K_d[0]",
        "_R_d_5 = _K_d[5]",
        "_R_rv_0 = _K_rv[0]",
    ]
    flush = [" = ".join(reversed(load.split(" = "))) for load in loads]
    finally_at = lines.index("finally:")
    assert [line for line in lines[finally_at:] if line.startswith("_K_")] == flush
    # The call site flushes the same registers in the same order.
    call_at = lines.index("_steps = _x_f(interp, state, result, _fb, _steps)")
    flushed = [line for line in lines[:call_at] if line.startswith("_K_")]
    assert [line for line in flushed if "= _R_" in line] == flush


def test_call_site_saves_the_callee_footprint_in_bank_index_order():
    lines = source_lines()
    saves = [line for line in lines if line.startswith("_t") and "= _K_" in line]
    assert saves == ["_t1 = _K_a[3]", "_t2 = _K_d[2]", "_t3 = _K_d[7]"]
    banks = [line for line in lines if line.startswith("_K_") and "= _regs[" in line]
    assert banks == ["_K_a = _regs['a']", "_K_d = _regs['d']", "_K_rv = _regs['rv']"]

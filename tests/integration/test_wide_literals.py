"""A mini-C integer literal is a 32-bit word: its value modulo 2^32.

An RTL ``Const`` stores an ``int`` as its signed 32-bit value, so a
literal reads the same whether the variable it is assigned to lives in
memory (unoptimized) or in a register (after ``promote_locals``), and a
global initializer packs the same word.  Each program below returns one
exit code unoptimized and optimized, on both targets and in all three
configurations, under the full translation-validation oracle.
"""

import pytest

from repro import compile_and_measure
from repro.ease import make_interpreter
from repro.frontend import compile_c

# (source, the exit code of its literals read as 32-bit words)
PROGRAMS = {
    "sign-bit": (
        "int main() { int x; x = 2147483648; if (x < 0) return 7; return 3; }",
        7,
    ),
    "over-wide": (
        "int main() { int x; x = 4294967297; if (x == 1) return 5; return 9; }",
        5,
    ),
    "global": (
        "int g = 2147483648;\n"
        "int a[2] = {4294967295, 2147483648};\n"
        "int h = -2147483648 / 3;\n"
        "int r = -2147483648 % 7;\n"
        "int main() {\n"
        "  if (g < 0 && a[0] + a[1] > 0 && h == -715827882 && r == -2)\n"
        "    return 7;\n"
        "  return 3;\n"
        "}",
        7,
    ),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_unoptimized_run_reads_words(name):
    source, exit_code = PROGRAMS[name]
    assert make_interpreter(compile_c(source)).run().exit_code == exit_code


@pytest.mark.parametrize("replication", ["none", "loops", "jumps"])
@pytest.mark.parametrize("target", ["sparc", "m68020"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_optimized_run_keeps_the_exit_code(name, target, replication):
    source, exit_code = PROGRAMS[name]
    result = compile_and_measure(
        source, target=target, replication=replication, verify="full"
    )
    assert result.exit_code == exit_code

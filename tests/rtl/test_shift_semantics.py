"""The canonical shift-count model: counts reduced modulo 32.

One model, everywhere: :func:`repro.rtl.arith.eval_binop` masks shift
counts with ``SHIFT_MASK`` (31), and every consumer — the front-end's
literal folder, ``const_fold``, CSE, the EASE interpreter — calls that
one function, so compile-time folding and run-time evaluation agree by
construction.  These tests pin the model itself and cross-check
folder-vs-interpreter on whole programs where one side folds at compile
time and the other shifts at run time.
"""

import pytest

from repro.rtl.arith import SHIFT_MASK, eval_binop
from tests.conftest import run_c

COUNTS = [0, 1, 5, 31, 32, 33, 40, 63, 64, 65]


class TestModel:
    def test_mask_is_mod_32(self):
        assert SHIFT_MASK == 31

    @pytest.mark.parametrize("count", COUNTS)
    def test_left_shift_wraps_count(self, count):
        assert eval_binop("<<", 1, count) == eval_binop("<<", 1, count & 31)

    @pytest.mark.parametrize("count", COUNTS)
    def test_right_shift_wraps_count(self, count):
        assert eval_binop(">>", -8, count) == eval_binop(">>", -8, count & 31)

    def test_canonical_values(self):
        assert eval_binop("<<", 1, 32) == 1  # not 0: mod-32, not mod-64
        assert eval_binop("<<", 1, 33) == 2
        assert eval_binop("<<", 3, 31) == -0x80000000  # sign-bit wrap
        assert eval_binop(">>", -8, 1) == -4  # arithmetic, not logical
        assert eval_binop(">>", -1, 63) == -1
        assert eval_binop("<<", 1, -1) == eval_binop("<<", 1, 31)


def _const_source(count: int) -> str:
    # Both operands literal: folded at compile time (front end or
    # const_fold, depending on the pipeline).
    return (
        "int main() {\n"
        f"    return ((5 << {count}) ^ ((0 - 7) >> {count})) & 255;\n"
        "}\n"
    )


_OPAQUE_SOURCE = """
int main() {
    int c;
    c = getchar();
    return ((5 << c) ^ ((0 - 7) >> c)) & 255;
}
"""


class TestFolderInterpreterAgree:
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("target", ["sparc", "m68020"])
    def test_constant_fold_matches_runtime_shift(self, count, target):
        # Constant counts fold at compile time; the opaque count arrives
        # via stdin and is shifted by the interpreter at run time.  The
        # exit codes must agree — this is exactly the divergence a
        # mismatched folder/interpreter shift model would produce.
        folded = run_c(_const_source(count), target=target)
        runtime = run_c(_OPAQUE_SOURCE, stdin=bytes([count]), target=target)
        reference = run_c(_OPAQUE_SOURCE, stdin=bytes([count]))
        assert folded[1] == runtime[1] == reference[1]

    @pytest.mark.parametrize("count", [31, 32, 33, 64])
    def test_replicated_pipeline_agrees_too(self, count):
        folded = run_c(_const_source(count), target="sparc", replication="jumps")
        reference = run_c(_OPAQUE_SOURCE, stdin=bytes([count]))
        assert folded[1] == reference[1]

"""The optimizer computes each fact once per real change, and stays exact.

Two shortcuts are pinned here over the 14 suite programs on both targets
(plus a few fuzz seeds for ``combine``):

* ``combine`` builds one :class:`~repro.opt.Liveness` per call instead
  of one per changed block.  That is exact only because combining never
  moves a block's live-in or live-out set, so every changed block is
  checked against a fresh liveness at the point where the rebuild used
  to happen.
* ``Insn.used_regs()`` is a frozenset assembled from the expressions'
  memoized :func:`~repro.rtl.expr.reg_set`; it must equal the plain
  ``regs_in`` walk for every instruction the pipeline produces.
"""

import pytest

from repro.benchsuite import PROGRAMS, program_names
from repro.frontend import compile_c
from repro.opt import Liveness, OptimizationConfig, optimize_program
from repro.opt import instruction_selection
from repro.rtl import regs_in
from repro.targets import get_target
from repro.verify.fuzz import generate_program

TARGETS = ("m68020", "sparc")
FUZZ_SEEDS = (0, 1, 2, 3, 5, 8)


def _liveness_drift(before: Liveness, func) -> list:
    """Blocks whose live sets differ between ``before`` and a fresh build."""
    fresh = Liveness(func)
    return [
        block.label
        for block in func.blocks
        if fresh.block_live_in(block) != before.block_live_in(block)
        or fresh.block_live_out(block) != before.block_live_out(block)
    ]


def _optimize_checking_combine(source: str, target_name: str, monkeypatch):
    """Optimize under JUMPS; return (drifted block labels, blocks checked)."""
    real = instruction_selection._combine_block
    drift = []
    checked = [0]

    def checking(block, target, liveness):
        changed = real(block, target, liveness)
        if changed:
            checked[0] += 1
            drift.extend(_liveness_drift(liveness, liveness.func))
        return changed

    monkeypatch.setattr(instruction_selection, "_combine_block", checking)
    program = compile_c(source)
    optimize_program(
        program, get_target(target_name), OptimizationConfig(replication="jumps")
    )
    return drift, checked[0]


class TestCombineKeepsLiveness:
    @pytest.mark.parametrize("target_name", TARGETS)
    @pytest.mark.parametrize("name", program_names())
    def test_suite_program(self, name, target_name, monkeypatch):
        drift, checked = _optimize_checking_combine(
            PROGRAMS[name].source, target_name, monkeypatch
        )
        assert drift == []
        assert checked > 0  # combine rewrote something on every program

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_program(self, seed, monkeypatch):
        drift, _ = _optimize_checking_combine(
            generate_program(seed), "sparc", monkeypatch
        )
        assert drift == []


class TestUsedRegsParity:
    @pytest.mark.parametrize("target_name", TARGETS)
    @pytest.mark.parametrize("name", program_names())
    def test_matches_regs_in_walk(self, name, target_name):
        program = compile_c(PROGRAMS[name].source)
        optimize_program(
            program, get_target(target_name), OptimizationConfig(replication="jumps")
        )
        for func in program.functions.values():
            for insn in func.insns():
                used = insn.used_regs()
                assert isinstance(used, frozenset)
                walked = {reg for expr in insn.used_exprs() for reg in regs_in(expr)}
                assert used == walked, insn

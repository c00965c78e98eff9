"""CFG invariant checks: the sanitizer, directly and as the driver's
per-pass check.

A corrupted CFG is caught by :func:`repro.verify.check_sanitized`, the
one CFG checker; in the driver it runs after every pass
(``Verifier("sanitize")``): a clean optimization run passes it, and a
pass that corrupts the graph mid-pipeline is named by it.
"""

import pytest

from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.opt import driver as driver_module
from repro.rtl.insn import Jump
from repro.targets import get_target
from repro.verify import SanitizeError, Verifier, check_sanitized

SOURCE = """
int main() {
    int i, total;
    total = 0;
    for (i = 0; i < 10; i++) {
        if (i & 1) {
            total += i;
        } else {
            total -= 1;
        }
    }
    return total & 255;
}
"""


def compiled_main():
    program = compile_c(SOURCE)
    return program, program.functions["main"]


@pytest.mark.parametrize("target_name", ["sparc", "m68020"])
@pytest.mark.parametrize("replication", ["none", "loops", "jumps"])
def test_validation_passes_on_clean_pipeline(target_name, replication):
    program, _ = compiled_main()
    optimize_program(
        program,
        get_target(target_name),
        OptimizationConfig(replication=replication),
        verifier=Verifier("sanitize"),
    )


def test_validator_catches_duplicate_labels():
    _, func = compiled_main()
    assert len(func.blocks) >= 2
    func.blocks[1].label = func.blocks[0].label
    with pytest.raises(SanitizeError, match="duplicate label"):
        check_sanitized(func, "corruption")


def test_validator_catches_transfer_mid_block():
    _, func = compiled_main()
    victim = next(block for block in func.blocks if len(block.insns) >= 2)
    victim.insns.insert(0, Jump(func.blocks[0].label))
    with pytest.raises(SanitizeError, match="not at block end"):
        check_sanitized(func, "corruption")


def test_validator_catches_stale_edges():
    _, func = compiled_main()
    func.blocks[0].preds.append(func.blocks[0])
    with pytest.raises(SanitizeError, match="stale predecessors"):
        check_sanitized(func, "corruption")


def test_validator_catches_fall_off_function_end():
    _, func = compiled_main()
    last = func.blocks[-1]
    assert not last.falls_through()
    del last.insns[-1]  # drop the return; the block now falls off the end
    if not last.insns:
        last.insns = func.blocks[0].insns[:1]  # keep the block non-empty
    with pytest.raises(SanitizeError, match="falls off"):
        check_sanitized(func, "corruption")


def test_driver_flags_corrupting_pass(monkeypatch):
    """A pass that leaves stale edges is caught and named immediately."""

    def corrupting_branch_chaining(func):
        func.blocks[0].preds.append(func.blocks[0])
        return False

    monkeypatch.setattr(
        driver_module, "branch_chaining", corrupting_branch_chaining
    )
    program, _ = compiled_main()
    with pytest.raises(
        SanitizeError, match="sanitizer failed for 'main' after branch_chaining"
    ):
        optimize_program(
            program,
            get_target("sparc"),
            OptimizationConfig(),
            verifier=Verifier("sanitize"),
        )

    # Without the sanitizer the corruption goes unnoticed (compute_flow
    # later repairs the edges) — which is exactly why the check exists.
    program, _ = compiled_main()
    optimize_program(program, get_target("sparc"), OptimizationConfig())

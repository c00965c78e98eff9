"""The pipeline model's input: ``Measurement.taken_transfers``.

The §6 pipeline table charges ``dynamic_insns + 2 × taken`` cycles, where
a taken transfer is an executed block followed by one other than its
positional successor (the final return counts too).  A traced
``measure_program`` counts them over the compressed trace's records.
"""

import pytest

from repro.ease import make_interpreter, measure_program
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.targets import get_target
from repro.verify.fuzz import generate_program
from tests.traces import expand, limits

LOOP_SOURCE = """
int main() {
    int i, s;
    s = 0;
    for (i = 0; i < 100; i++)
        s += i;
    return s;
}
"""


def measured(replication, source=LOOP_SOURCE, trace=True):
    program = compile_c(source)
    target = get_target("sparc")
    optimize_program(program, target, OptimizationConfig(replication=replication))
    return measure_program(program, target, trace=trace)


def pairwise_taken(program, interpreter, trace):
    """Brute force: every adjacent pair of the expanded trace, one at a time."""
    successor = {}
    for name, func in program.functions.items():
        for index in range(len(func.blocks) - 1):
            successor[interpreter.global_block_id(name, index)] = (
                interpreter.global_block_id(name, index + 1)
            )
    ids = expand(trace)
    falls = sum(successor.get(a) == b for a, b in zip(ids, ids[1:]))
    return len(ids) - falls


class TestPipelineModel:
    def test_straight_line_has_one_taken_transfer(self):
        # Only the final return is taken.
        assert measured("none", source="int main() { return 1 + 2; }").taken_transfers == 1

    def test_replication_reduces_taken_transfers(self):
        # The loop's per-iteration unconditional jump (always taken)
        # becomes a fall-through + reversed branch (taken only at the
        # loop back edge, which was taken before too) — strictly fewer
        # taken transfers.
        assert measured("jumps").taken_transfers < measured("none").taken_transfers

    def test_untraced_run_counts_no_taken_transfers(self):
        assert measured("none", trace=False).taken_transfers is None

    @pytest.mark.parametrize(
        "source",
        [pytest.param(LOOP_SOURCE, id="loop")]
        + [pytest.param(generate_program(seed), id=f"fuzz{seed}") for seed in range(6)],
    )
    @pytest.mark.parametrize("replication", ["none", "jumps"])
    def test_count_equals_a_pairwise_count(self, source, replication):
        program = compile_c(source)
        target = get_target("sparc")
        optimize_program(program, target, OptimizationConfig(replication=replication))
        interpreter = make_interpreter(program)
        plain = measure_program(program, target, trace=True, interpreter=interpreter)
        expected = pairwise_taken(program, interpreter, plain.trace)
        assert plain.taken_transfers == expected
        # Tiny literal chunks and loop bodies put many record boundaries
        # and folded laps in the way of the compressed count.
        with limits(max_body=3, chunk_size=2):
            chopped = measure_program(program, target, trace=True, interpreter=interpreter)
        assert all(len(body) <= 3 for body, _ in chopped.trace.records())
        assert expand(chopped.trace) == expand(plain.trace)
        assert chopped.taken_transfers == expected

"""Property tests for block reordering."""

from hypothesis import given, settings

from repro.cfg import Program
from repro.core import clone_function
from repro.ease import Interpreter
from repro.opt import eliminate_dead_code, reorder_blocks
from repro.verify import check_sanitized
from tests.core.test_random_cfgs import random_functions


def run(func):
    program = Program()
    program.add_function(func)
    return Interpreter(program, max_steps=2_000_000).run().exit_code


class TestReorderProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_functions())
    def test_reorder_preserves_behaviour(self, func):
        reference = run(clone_function(func))
        candidate = clone_function(func)
        reorder_blocks(candidate)
        check_sanitized(candidate, "reorder_blocks")
        assert run(candidate) == reference

    @settings(max_examples=60, deadline=None)
    @given(random_functions())
    def test_reorder_plus_cleanup_never_adds_jumps(self, func):
        candidate = clone_function(func)
        before = candidate.jump_count()
        reorder_blocks(candidate)
        eliminate_dead_code(candidate)
        assert candidate.jump_count() <= before

    @settings(max_examples=40, deadline=None)
    @given(random_functions())
    def test_entry_block_stays_first(self, func):
        candidate = clone_function(func)
        entry_label = candidate.entry.label
        reorder_blocks(candidate)
        assert candidate.entry.label == entry_label

    @settings(max_examples=40, deadline=None)
    @given(random_functions())
    def test_block_multiset_preserved(self, func):
        candidate = clone_function(func)
        before = sorted(b.label for b in candidate.blocks)
        reorder_blocks(candidate)
        after = sorted(b.label for b in candidate.blocks)
        assert before == after

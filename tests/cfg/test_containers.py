"""Unit tests for Function/Program containers and frame layout."""

import pytest

from repro.cfg import Function, Program
from repro.cfg.block import GlobalData
from tests.conftest import function_from_text


class TestFrameLayout:
    def test_slots_are_four_byte_aligned(self):
        func = Function("f")
        func.add_local("a", 1)
        func.add_local("b", 4)
        func.add_local("c", 2)
        offsets = {name: off for name, (off, _) in func.frame.items()}
        for offset in offsets.values():
            assert offset % 4 == 0
        assert offsets["a"] < offsets["b"] < offsets["c"]

    def test_duplicate_local_rejected(self):
        func = Function("f")
        func.add_local("x", 4)
        with pytest.raises(ValueError):
            func.add_local("x", 4)

    def test_frame_size_covers_all_slots(self):
        func = Function("f")
        func.add_local("a", 40)
        func.add_local("b", 4)
        offset, size = func.frame["b"]
        assert func.frame_size >= offset + size


class TestLabels:
    def test_new_label_avoids_collisions(self):
        func = function_from_text("f", "L1000:\n  PC=RT;")
        label = func.new_label()
        assert label != "L1000"
        assert all(label != b.label for b in func.blocks)


class TestProgram:
    def test_duplicate_function_rejected(self):
        program = Program()
        program.add_function(function_from_text("main", "PC=RT;"))
        with pytest.raises(ValueError):
            program.add_function(function_from_text("main", "PC=RT;"))

    def test_duplicate_global_rejected(self):
        program = Program()
        program.add_global(GlobalData("g", 4))
        with pytest.raises(ValueError):
            program.add_global(GlobalData("g", 8))

    def test_intern_string_deduplicates(self):
        program = Program()
        first = program.intern_string("hello")
        second = program.intern_string("hello")
        third = program.intern_string("other")
        assert first == second
        assert first != third
        assert program.globals[first].init == b"hello\x00"

    def test_program_counts(self):
        program = Program()
        program.add_function(function_from_text("main", "PC=L1;\nL1:\n  PC=RT;"))
        assert program.insn_count() == 2
        assert program.jump_count() == 1

    def test_empty_function_entry_raises(self):
        with pytest.raises(ValueError):
            Function("f").entry

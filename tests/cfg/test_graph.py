"""Tests for basic-block construction and flow-edge maintenance."""

import pytest

from repro.cfg import (
    build_function,
    compute_flow,
    postorder,
)
from repro.rtl import parse_insns
from repro.verify import SanitizeError, check_sanitized
from tests.conftest import function_from_text


class TestBlockSplitting:
    def test_blocks_split_at_labels_and_transfers(self):
        func = function_from_text(
            "f",
            """
            d[0]=1;
            L1:
              d[0]=d[0]+1;
              NZ=d[0]?10;
              PC=NZ<0,L1;
              PC=RT;
            """,
        )
        assert [b.label for b in func.blocks] == ["B1", "L1", "B2"]
        assert func.blocks[0].size() == 1
        assert func.blocks[1].size() == 3
        assert func.blocks[2].size() == 1

    def test_label_in_midstream_splits_block(self):
        func = function_from_text(
            "f",
            """
            d[0]=1;
            L1:
              d[0]=2;
              PC=RT;
            """,
        )
        assert len(func.blocks) == 2
        # The first block falls through into L1.
        assert func.blocks[0].succs == [func.blocks[1]]

    def test_transfer_always_ends_block(self):
        func = function_from_text("f", "PC=L1;\nL1:\n  PC=RT;")
        assert len(func.blocks) == 2
        for block in func.blocks:
            for insn in block.insns[:-1]:
                assert not insn.is_transfer()


class TestFlowEdges:
    def test_cond_branch_has_fallthrough_and_taken(self):
        func = function_from_text(
            "f",
            """
            NZ=d[0]?1;
            PC=NZ==0,L2;
            d[0]=1;
            L2:
              PC=RT;
            """,
        )
        entry = func.blocks[0]
        assert [s.label for s in entry.succs] == ["B2", "L2"]

    def test_jump_has_single_successor(self):
        func = function_from_text("f", "PC=L9;\nL9:\n  PC=RT;")
        assert [s.label for s in func.blocks[0].succs] == ["L9"]

    def test_return_has_no_successors(self):
        func = function_from_text("f", "PC=RT;")
        assert func.blocks[0].succs == []

    def test_preds_are_mirror_of_succs(self):
        func = function_from_text(
            "f",
            """
            NZ=d[0]?1;
            PC=NZ==0,L2;
            d[0]=1;
            L2:
              PC=RT;
            """,
        )
        for block in func.blocks:
            for succ in block.succs:
                assert block in succ.preds

    def test_indirect_jump_edges(self):
        func = function_from_text(
            "f",
            """
            PC=L[a[0]]<L1,L2>;
            L1:
              PC=RT;
            L2:
              PC=RT;
            """,
        )
        assert {s.label for s in func.blocks[0].succs} == {"L1", "L2"}

    def test_unknown_target_raises(self):
        with pytest.raises(KeyError):
            function_from_text("f", "PC=Lmissing;\nPC=RT;")

    def test_cond_branch_at_function_end_raises(self):
        with pytest.raises(ValueError):
            function_from_text("f", "NZ=d[0]?1;\nPC=NZ==0,B1;")


class TestEdition:
    """``compute_flow`` bumps ``cfg_edition`` on any layout or edge change."""

    @staticmethod
    def _jumps_only():
        # Every block ends in a jump or a return: no fall-through edge, so
        # a permutation keeps every successor list.
        return function_from_text(
            "f",
            """
            PC=L3;
            L2:
              d[0]=2;
              PC=RT;
            L3:
              d[0]=3;
              PC=L2;
            L4:
              d[0]=4;
              PC=L2;
            """,
        )

    def test_unchanged_recompute_keeps_the_edition(self):
        func = self._jumps_only()
        edition, layout = func.cfg_edition, func.flow_layout
        compute_flow(func)
        assert func.cfg_edition == edition
        assert func.flow_layout is layout

    def test_permutation_keeping_every_successor_bumps(self):
        func = self._jumps_only()
        succs = {block.label: list(block.succs) for block in func.blocks}
        edition = func.cfg_edition
        func.blocks[1], func.blocks[2] = func.blocks[2], func.blocks[1]
        compute_flow(func)
        assert {block.label: block.succs for block in func.blocks} == succs
        assert func.cfg_edition == edition + 1
        assert func.flow_layout == tuple(func.blocks)

    def test_deleting_an_unreachable_block_bumps(self):
        func = self._jumps_only()
        edition = func.cfg_edition
        assert func.blocks[3].label == "L4" and not func.blocks[3].preds
        del func.blocks[3]
        compute_flow(func)
        assert func.cfg_edition == edition + 1


class TestReachability:
    def test_unreachable_block_detected(self):
        func = function_from_text(
            "f",
            """
            PC=L2;
            d[0]=99;
            PC=L2;
            L2:
              PC=RT;
            """,
        )
        reachable = postorder(func)
        labels = {b.label for b in reachable}
        assert labels == {"B1", "L2"}

    def test_sanitizer_passes_on_wellformed(self):
        func = function_from_text(
            "f",
            """
            NZ=d[0]?1;
            PC=NZ==0,L2;
            d[0]=1;
            L2:
              PC=RT;
            """,
        )
        check_sanitized(func, "build_function")

    def test_sanitizer_rejects_fallthrough_off_end(self):
        func = function_from_text("f", "PC=RT;")
        func.blocks[0].insns.pop()
        compute_flow(func)
        with pytest.raises(SanitizeError, match="falls off"):
            check_sanitized(func, "build_function")

"""Edge cases of the control-flow cleanup pass."""

from repro.opt import eliminate_dead_code
from repro.opt.dead_code import merge_blocks, remove_redundant_jumps, remove_unreachable
from repro.verify import check_sanitized
from tests.conftest import function_from_text


class TestRemoveUnreachable:
    def test_cascading_unreachability(self):
        # B2 is only reachable from B3, which is only reachable from B2.
        func = function_from_text(
            "f",
            """
            PC=L9;
            L2:
              d[0]=1;
              PC=L3;
            L3:
              d[0]=2;
              PC=L2;
            L9:
              PC=RT;
            """,
        )
        assert remove_unreachable(func)
        assert [b.label for b in func.blocks] == ["B1", "L9"]

    def test_everything_reachable_untouched(self):
        func = function_from_text(
            "f",
            """
            NZ=d[0]?1;
            PC=NZ==0,L1;
            d[0]=1;
            L1:
              PC=RT;
            """,
        )
        assert not remove_unreachable(func)


class TestRedundantJumps:
    def test_multiple_redundant_jumps_in_one_pass(self):
        func = function_from_text(
            "f",
            """
            d[0]=1;
            PC=L1;
            L1:
              d[0]=2;
              PC=L2;
            L2:
              PC=RT;
            """,
        )
        assert remove_redundant_jumps(func)
        assert func.jump_count() == 0
        check_sanitized(func, "remove_redundant_jumps")

    def test_non_adjacent_jump_kept(self):
        func = function_from_text(
            "f",
            """
            d[0]=1;
            PC=L2;
            L1:
              d[0]=2;
            L2:
              PC=RT;
            """,
        )
        assert not remove_redundant_jumps(func)
        assert func.jump_count() == 1


class TestMergeBlocks:
    def test_chain_merges_fully(self):
        func = function_from_text(
            "f",
            """
            d[0]=1;
            PC=L1;
            L1:
              d[1]=2;
              PC=L2;
            L2:
              d[2]=3;
              PC=RT;
            """,
        )
        eliminate_dead_code(func)
        assert len(func.blocks) == 1
        assert func.blocks[0].size() == 4

    def test_branch_target_blocks_merge(self):
        func = function_from_text(
            "f",
            """
            NZ=d[0]?1;
            PC=NZ==0,L1;
            d[0]=1;
            L1:
              d[1]=2;
              PC=RT;
            """,
        )
        before = len(func.blocks)
        merge_blocks(func)
        # L1 has two predecessors (fall-through and branch): no merge.
        assert len(func.blocks) == before

    def test_single_block_function_untouched(self):
        func = function_from_text("f", "d[0]=1;\nPC=RT;\n")
        assert not eliminate_dead_code(func)
        assert [b.label for b in func.blocks] == ["B1"]
        check_sanitized(func, "eliminate_dead_code")

    def test_jump_to_adjacent_last_label_removed_and_merged(self):
        func = function_from_text(
            "f",
            """
            d[0]=1;
            PC=L9;
            L9:
              PC=RT;
            """,
        )
        assert eliminate_dead_code(func)
        assert len(func.blocks) == 1
        assert func.jump_count() == 0
        check_sanitized(func, "eliminate_dead_code")

    def test_jump_to_nonadjacent_last_label_kept(self):
        # L9 has two predecessors (the jump and L1's fall-through): the
        # jump is not redundant and the last block must not merge away.
        func = function_from_text(
            "f",
            """
            NZ=d[0]?1;
            PC=NZ==0,L1;
            d[0]=1;
            PC=L9;
            L1:
              d[0]=2;
            L9:
              PC=RT;
            """,
        )
        assert not eliminate_dead_code(func)
        assert [b.label for b in func.blocks] == ["B1", "B2", "L1", "L9"]
        assert func.jump_count() == 1
        check_sanitized(func, "eliminate_dead_code")

    def test_unreachable_empty_final_block_removed(self):
        from repro.cfg.graph import compute_flow

        func = function_from_text("f", "d[0]=1;\nPC=RT;\n")
        func.blocks.append(type(func.blocks[0])(label="L99"))
        compute_flow(func)
        assert eliminate_dead_code(func)
        assert [b.label for b in func.blocks] == ["B1"]
        check_sanitized(func, "eliminate_dead_code")

    def test_reachable_empty_final_block_preserved(self):
        # An empty final block that is a live branch target must survive
        # every cleanup: it is reachable, its label is referenced, and it
        # has two predecessors — none of the three rules may fire.
        from repro.cfg.graph import compute_flow

        func = function_from_text(
            "f",
            """
            NZ=d[0]?1;
            PC=NZ==0,L9;
            d[0]=1;
            PC=RT;
            L9:
              PC=RT;
            """,
        )
        func.blocks[-1].insns.clear()
        compute_flow(func)
        assert not eliminate_dead_code(func)
        assert [b.label for b in func.blocks] == ["B1", "B2", "L9"]
        assert func.blocks[-1].size() == 0

    def test_merge_preserves_execution(self):
        from repro.cfg import Program
        from repro.ease import Interpreter

        func = function_from_text(
            "main",
            """
            d[0]=5;
            PC=L1;
            L1:
              d[0]=d[0]*3;
              PC=L2;
            L2:
              rv[0]=d[0];
              PC=RT;
            """,
        )
        program = Program()
        program.add_function(func)
        before = Interpreter(program).run().exit_code
        eliminate_dead_code(func)
        program2 = Program()
        program2.add_function(func)
        assert Interpreter(program2).run().exit_code == before == 15

"""Natural-loop detection tests."""

from repro.cfg import find_loops
from tests.conftest import function_from_text
from tests.cfg.test_dominators import build_graph


class TestNaturalLoops:
    def test_simple_while_loop(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              NZ=d[0]?10;
              PC=NZ>=0,L2;
              d[0]=d[0]+1;
              PC=L1;
            L2:
              PC=RT;
            """,
        )
        info = find_loops(func)
        assert len(info.loops) == 1
        loop = info.loops[0]
        assert loop.header.label == "L1"
        assert {b.label for b in loop.blocks} == {"L1", "B2"}

    def test_nested_loops(self):
        func = build_graph(
            [(0, 1), (1, 2), (2, 1), (2, 3), (1, 3), (3, 0)], 4
        )
        # Edges: inner loop 1<->2, outer loop 0..3->0.
        info = find_loops(func)
        headers = {loop.header.label for loop in info.loops}
        assert "N1" in headers
        assert "N0" in headers
        inner = info.loop_with_header(func.block_by_label("N1"))
        outer = info.loop_with_header(func.block_by_label("N0"))
        assert inner is not None and outer is not None
        assert len(inner.blocks) < len(outer.blocks)
        assert inner.blocks <= outer.blocks

    def test_self_loop(self):
        func = function_from_text(
            "f",
            """
            L1:
              d[0]=d[0]+1;
              NZ=d[0]?10;
              PC=NZ<0,L1;
              PC=RT;
            """,
        )
        info = find_loops(func)
        assert len(info.loops) == 1
        assert {b.label for b in info.loops[0].blocks} == {"L1"}

    def test_two_back_edges_same_header_merge(self):
        func = function_from_text(
            "f",
            """
            L1:
              NZ=d[0]?1;
              PC=NZ==0,L2;
              d[0]=d[0]+1;
              PC=L1;
            L2:
              NZ=d[0]?99;
              PC=NZ>=0,L3;
              d[0]=d[0]*2;
              PC=L1;
            L3:
              PC=RT;
            """,
        )
        info = find_loops(func)
        loops = [l for l in info.loops if l.header.label == "L1"]
        assert len(loops) == 1
        assert len(loops[0].back_edges) == 2
        assert {b.label for b in loops[0].blocks} == {"L1", "B1", "L2", "B2"}

    def test_no_loops_in_dag(self):
        func = build_graph([(0, 1), (0, 2), (1, 3), (2, 3)], 4)
        assert find_loops(func).loops == []

    def test_members_in_layout_order(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              NZ=d[0]?10;
              PC=NZ>=0,L2;
              d[0]=d[0]+1;
              PC=L1;
            L2:
              PC=RT;
            """,
        )
        info = find_loops(func)
        members = info.loops[0].members
        assert [b.label for b in members] == ["L1", "B2"]

    def test_exits(self):
        func = function_from_text(
            "f",
            """
            L1:
              NZ=d[0]?10;
              PC=NZ>=0,L2;
              d[0]=d[0]+1;
              PC=L1;
            L2:
              PC=RT;
            """,
        )
        info = find_loops(func)
        exits = info.loops[0].exits()
        assert [(a.label, b.label) for a, b in exits] == [("L1", "L2")]

    def test_innermost_loop_of(self):
        func = function_from_text(
            "f",
            """
            L1:
              NZ=d[0]?1;
              PC=NZ==0,L9;
            L2:
              d[1]=d[1]+1;
              NZ=d[1]?5;
              PC=NZ<0,L2;
              PC=L1;
            L9:
              PC=RT;
            """,
        )
        info = find_loops(func)
        inner_body = func.block_by_label("L2")
        innermost = info.innermost_loop_of(inner_body)
        assert innermost is not None
        assert innermost.header.label == "L2"

"""Tests for the Floyd/Warshall shortest-path matrix (the step-1 oracle)."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from tests.core.floyd_warshall import ShortestPathMatrix
from tests.cfg.test_dominators import build_graph, random_edge_lists
from tests.conftest import function_from_text, labelled


class TestMatrixBasics:
    def test_direct_edge_distance_counts_both_blocks(self):
        func = function_from_text(
            "f",
            """
            d[0]=1;
            d[1]=2;
            PC=L1;
            L1:
              d[2]=3;
              PC=RT;
            """,
        )
        matrix = ShortestPathMatrix(func)
        b1, l1 = func.blocks
        assert matrix.dist(b1, l1) == b1.size() + l1.size() == 5

    def test_no_path_is_infinite(self):
        func = function_from_text(
            "f",
            """
            PC=RT;
            L1:
              PC=RT;
            """,
        )
        matrix = ShortestPathMatrix(func)
        a, b = func.blocks
        assert matrix.dist(a, b) == float("inf")
        assert matrix.path(a, b) is None

    def test_self_distance_excluded(self):
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
        matrix = ShortestPathMatrix(func)
        l1 = func.blocks[0]
        assert matrix.dist(l1, l1) == float("inf")

    def test_shortest_of_two_paths_chosen(self):
        # Entry branches to a short path (1 insn) and long path (3 insns),
        # both reaching the same join.
        func = function_from_text(
            "f",
            """
            NZ=d[0]?0;
            PC=NZ==0,Llong;
            d[1]=1;
            PC=Ljoin;
            Llong:
              d[1]=1;
              d[2]=2;
              d[3]=3;
            Ljoin:
              PC=RT;
            """,
        )
        matrix = ShortestPathMatrix(func)
        entry = func.blocks[0]
        join = labelled(func, "Ljoin")
        path = matrix.path(entry, join)
        assert path is not None
        labels = [b.label for b in path]
        assert "Llong" not in labels

    def test_indirect_jump_block_has_no_out_paths(self):
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
        matrix = ShortestPathMatrix(func)
        src = func.blocks[0]
        assert matrix.dist(src, labelled(func, "L1")) == float("inf")
        assert matrix.dist(src, labelled(func, "L2")) == float("inf")

    def test_sequence_to_return(self):
        func = function_from_text(
            "f",
            """
            PC=L1;
            L1:
              d[0]=1;
            L2:
              PC=RT;
            """,
        )
        matrix = ShortestPathMatrix(func)
        l1 = labelled(func, "L1")
        seq = matrix.shortest_sequence_to_return(l1)
        assert seq is not None
        assert [b.label for b in seq] == ["L1", "L2"]

    def test_sequence_to_return_when_start_returns(self):
        func = function_from_text("f", "PC=L1;\nL1:\n  PC=RT;")
        matrix = ShortestPathMatrix(func)
        l1 = labelled(func, "L1")
        seq = matrix.shortest_sequence_to_return(l1)
        assert seq is not None and [b.label for b in seq] == ["L1"]

    def test_sequence_to_fallthrough_excludes_follow(self):
        func = function_from_text(
            "f",
            """
            d[0]=0;
            PC=L2;
            L1:
              d[1]=d[1]+d[0];
            L2:
              NZ=d[0]?10;
              PC=NZ<0,L1;
              PC=RT;
            """,
        )
        matrix = ShortestPathMatrix(func)
        l2 = labelled(func, "L2")
        l1 = labelled(func, "L1")
        seq = matrix.shortest_sequence_to_fallthrough(l2, l1)
        assert seq is not None
        assert [b.label for b in seq] == ["L2"]


class TestDifferentialAgainstNetworkx:
    @settings(max_examples=60, deadline=None)
    @given(random_edge_lists())
    def test_distances_match_dijkstra(self, data):
        n, edges = data
        func = build_graph(edges, n)
        matrix = ShortestPathMatrix(func)

        graph = nx.DiGraph()
        for block in func.blocks:
            graph.add_node(block.label)
        for block in func.blocks:
            for succ in block.succs:
                if succ is not block:
                    # Node-weighted shortest path: model as edge weight of
                    # the successor's size.
                    graph.add_edge(block.label, succ.label, weight=succ.size())

        for src in func.blocks:
            lengths = nx.single_source_dijkstra_path_length(graph, src.label)
            for dst in func.blocks:
                if dst is src:
                    continue
                mine = matrix.dist(src, dst)
                if dst.label in lengths:
                    expected = lengths[dst.label] + src.size()
                    assert mine == expected, (src.label, dst.label)
                else:
                    assert mine == float("inf")

    @settings(max_examples=40, deadline=None)
    @given(random_edge_lists())
    def test_paths_are_consistent_with_distances(self, data):
        n, edges = data
        func = build_graph(edges, n)
        matrix = ShortestPathMatrix(func)
        for src in func.blocks:
            for dst in func.blocks:
                if dst is src:
                    continue
                path = matrix.path(src, dst)
                if path is None:
                    assert matrix.dist(src, dst) == float("inf")
                    continue
                assert path[0] is src and path[-1] is dst
                # Path must follow real CFG edges and its cost must equal
                # the reported distance.
                for a, b in zip(path, path[1:]):
                    assert b in a.succs
                assert sum(b.size() for b in path) == matrix.dist(src, dst)


class TestSequenceProperties:
    """Validity of the step-2 sequences on random control-flow graphs."""

    @settings(max_examples=60, deadline=None)
    @given(random_edge_lists())
    def test_return_sequences_are_connected_paths(self, data):
        n, edges = data
        func = build_graph(edges, n)
        matrix = ShortestPathMatrix(func)
        for start in func.blocks:
            seq = matrix.shortest_sequence_to_return(start)
            if seq is None:
                continue
            assert seq[0] is start
            assert seq[-1].ends_in_return()
            for a, b in zip(seq, seq[1:]):
                assert b in a.succs

    @settings(max_examples=60, deadline=None)
    @given(random_edge_lists())
    def test_fallthrough_sequences_end_adjacent_to_follow(self, data):
        n, edges = data
        func = build_graph(edges, n)
        matrix = ShortestPathMatrix(func)
        for start in func.blocks:
            for follow in func.blocks:
                if follow is start:
                    continue
                seq = matrix.shortest_sequence_to_fallthrough(start, follow)
                if seq is None:
                    continue
                assert seq[0] is start
                assert follow not in seq or seq[-1] is not follow
                assert follow in seq[-1].succs
                for a, b in zip(seq, seq[1:]):
                    assert b in a.succs

    @settings(max_examples=40, deadline=None)
    @given(random_edge_lists())
    def test_sequences_are_no_longer_than_any_alternative(self, data):
        # The chosen return sequence is minimal among return blocks.
        n, edges = data
        func = build_graph(edges, n)
        matrix = ShortestPathMatrix(func)
        for start in func.blocks:
            seq = matrix.shortest_sequence_to_return(start)
            if seq is None or len(seq) == 1:
                continue
            cost = sum(b.size() for b in seq)
            for other in func.blocks:
                if other is start or not other.ends_in_return():
                    continue
                alt = matrix.dist(start, other)
                assert cost <= alt

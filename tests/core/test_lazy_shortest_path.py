"""Differential tests: demand-driven Dijkstra vs the dense matrix.

Decision parity is the load-bearing property of step 1: the product
:class:`ShortestPaths` must answer every query *identically* to the
Floyd/Warshall oracle — not merely with equal costs, but with the very
same canonical paths and sequences — so the replication engine makes
byte-identical decisions either way.  These tests compare the two
query-by-query on fuzzer CFGs and check the Dijkstra distances against
networkx as an independent oracle.
"""

import networkx as nx
from hypothesis import given, settings

from repro.core import ShortestPaths
from repro.obs import observing
from tests.core.floyd_warshall import ShortestPathMatrix
from tests.cfg.test_dominators import build_graph, random_edge_lists
from tests.conftest import function_from_text


def _labels(seq):
    return None if seq is None else [b.label for b in seq]


class TestLazyAgainstDense:
    @settings(max_examples=60, deadline=None)
    @given(random_edge_lists())
    def test_all_pairs_distances_agree(self, data):
        n, edges = data
        func = build_graph(edges, n)
        dense = ShortestPathMatrix(func)
        lazy = ShortestPaths(func)
        for src in func.blocks:
            for dst in func.blocks:
                assert lazy.dist(src, dst) == dense.dist(src, dst), (
                    src.label,
                    dst.label,
                )

    @settings(max_examples=60, deadline=None)
    @given(random_edge_lists())
    def test_all_pairs_paths_are_identical(self, data):
        # Stronger than equal cost: the canonical reconstruction makes
        # the chosen path a pure function of the distance values, so the
        # two must return the *same block sequence*.
        n, edges = data
        func = build_graph(edges, n)
        dense = ShortestPathMatrix(func)
        lazy = ShortestPaths(func)
        for src in func.blocks:
            for dst in func.blocks:
                if dst is src:
                    continue
                assert _labels(lazy.path(src, dst)) == _labels(
                    dense.path(src, dst)
                ), (src.label, dst.label)

    @settings(max_examples=60, deadline=None)
    @given(random_edge_lists())
    def test_step2_sequences_are_identical(self, data):
        n, edges = data
        func = build_graph(edges, n)
        dense = ShortestPathMatrix(func)
        lazy = ShortestPaths(func)
        for start in func.blocks:
            assert _labels(lazy.shortest_sequence_to_return(start)) == _labels(
                dense.shortest_sequence_to_return(start)
            ), start.label
            for follow in func.blocks:
                if follow is start:
                    continue
                assert _labels(
                    lazy.shortest_sequence_to_fallthrough(start, follow)
                ) == _labels(
                    dense.shortest_sequence_to_fallthrough(start, follow)
                ), (start.label, follow.label)


class TestLazyAgainstNetworkx:
    @settings(max_examples=40, deadline=None)
    @given(random_edge_lists())
    def test_distances_match_dijkstra(self, data):
        n, edges = data
        func = build_graph(edges, n)
        engine = ShortestPaths(func)

        graph = nx.DiGraph()
        for block in func.blocks:
            graph.add_node(block.label)
        for block in func.blocks:
            for succ in block.succs:
                if succ is not block:
                    graph.add_edge(block.label, succ.label, weight=succ.size())

        for src in func.blocks:
            lengths = nx.single_source_dijkstra_path_length(graph, src.label)
            for dst in func.blocks:
                if dst is src:
                    continue
                mine = engine.dist(src, dst)
                if dst.label in lengths:
                    assert mine == lengths[dst.label] + src.size()
                else:
                    assert mine == float("inf")


class TestLaziness:
    def test_only_queried_sources_run_dijkstra(self):
        # A diamond with several blocks: querying two sources must run
        # exactly two Dijkstras (memoized on repeat), not one per block.
        func = function_from_text(
            "f",
            """
            PC=L2;
            L1:
              d[0]=1;
            L2:
              d[1]=2;
            L3:
              PC=RT;
            """,
        )
        with observing(spans=False) as obs:
            engine = ShortestPaths(func)
            a, b = func.blocks[0], func.blocks[1]
            engine.dist(a, func.blocks[-1])
            engine.dist(a, func.blocks[2])  # memoized row — no new run
            engine.shortest_sequence_to_return(b)
        runs = obs.metrics.counters["sssp.dijkstra_runs"]
        assert runs == 2
        assert obs.metrics.counters["sssp.relaxations"] >= runs

"""Reducibility tests: known graphs, and random graphs against T1/T2."""

import random

from repro.cfg import get_analyses, is_reducible
from tests.cfg.t1t2 import t1t2_reducible
from tests.cfg.test_dominators import build_graph
from tests.conftest import function_from_text


class TestReducibility:
    def test_straight_line_is_reducible(self):
        func = build_graph([(0, 1), (1, 2)], 3)
        assert is_reducible(func)

    def test_single_loop_is_reducible(self):
        func = build_graph([(0, 1), (1, 2), (2, 1), (2, 3)], 4)
        assert is_reducible(func)

    def test_classic_irreducible_triangle(self):
        # 0 branches to 1 and 2; 1 and 2 form a two-entry cycle.
        func = build_graph([(0, 1), (0, 2), (1, 2), (2, 1)], 3)
        assert not is_reducible(func)

    def test_nested_loops_reducible(self):
        func = build_graph([(0, 1), (1, 2), (2, 1), (2, 3), (3, 0)], 4)
        assert is_reducible(func)

    def test_self_loop_reducible(self):
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
        assert is_reducible(func)

    def test_irreducible_with_preamble(self):
        # Entry -> A; A -> B or C; B <-> C (two-entry loop reached two ways).
        func = build_graph([(0, 1), (1, 2), (1, 3), (2, 3), (3, 2)], 4)
        assert not is_reducible(func)

    def test_unreachable_irreducible_part_is_ignored(self):
        func = function_from_text(
            "f",
            """
            PC=RT;
            L1:
              NZ=d[0]?1;
              PC=NZ==0,L2;
              PC=L2;
            L2:
              PC=L1;
            """,
        )
        # Blocks L1/L2 are unreachable; only the reachable part matters.
        assert is_reducible(func)


class TestAgainstIntervalCollapse:
    def test_random_graphs_agree_with_t1_t2(self):
        """The dominator test and T1/T2 collapsing give one verdict on
        random graphs of up to 12 nodes, reducible and irreducible."""
        rng = random.Random(0)
        verdicts = []
        for _ in range(2000):
            n = rng.randint(1, 12)
            edges = [
                (a, rng.randrange(n)) for a in range(n) for _ in range(rng.randint(0, 2))
            ]
            func = build_graph(edges, n)
            expected = t1t2_reducible(func)
            assert is_reducible(func) == expected, edges
            assert get_analyses(func).reducible() == expected, edges
            verdicts.append(expected)
        assert 0 < verdicts.count(False) < len(verdicts)

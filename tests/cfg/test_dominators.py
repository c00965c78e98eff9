"""Dominator-tree tests, including a networkx differential oracle."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg import BasicBlock, Function, compute_dominators, compute_flow
from repro.rtl import Assign, Compare, CondBranch, Const, Jump, Reg, Return
from tests.conftest import labelled


def build_graph(edges, n):
    """Build a function whose CFG realizes the given edge list on n nodes.

    Node 0 is the entry.  Every node gets 0, 1 or 2 successors expressed as
    conditional branches / jumps; extra successors are not representable and
    are filtered by callers.
    """
    func = Function("g")
    blocks = [BasicBlock(f"N{i}") for i in range(n)]
    func.blocks = list(blocks)
    succs = {i: [] for i in range(n)}
    for a, b in edges:
        if b not in succs[a] and len(succs[a]) < 2:
            succs[a].append(b)
    for i, block in enumerate(blocks):
        block.insns = [Assign(Reg("d", 0), Const(i))]
        out = succs[i]
        if len(out) == 0:
            block.insns.append(Return())
        elif len(out) == 1:
            block.insns.append(Jump(f"N{out[0]}"))
        else:
            block.insns.append(Compare(Reg("d", 0), Const(0)))
            block.insns.append(CondBranch("==", f"N{out[0]}"))
            # Fall-through is positional; force the second edge with a
            # trampoline jump appended at the end of the function.
            tramp = BasicBlock(f"T{i}", [Jump(f"N{out[1]}")])
            func.blocks.append(tramp)
    # Re-home conditional fall-throughs: move each trampoline right after
    # its owner so the fall-through edge goes to the right place.
    owned = [b for b in func.blocks if b.label.startswith("T")]
    for tramp in owned:
        func.blocks.remove(tramp)
        owner = labelled(func, f"N{tramp.label[1:]}")
        func.blocks.insert(func.blocks.index(owner) + 1, tramp)
    compute_flow(func)
    return func


class TestKnownGraphs:
    def test_diamond(self):
        #    0
        #   / \
        #  1   2
        #   \ /
        #    3
        func = build_graph([(0, 1), (0, 2), (1, 3), (2, 3)], 4)
        dom = compute_dominators(func)
        n = {b.label: b for b in func.blocks}
        assert dom.idom(n["N3"]) is n["N0"]
        assert dom.idom(n["N1"]) is n["N0"]
        # N2 is reached through the T0 trampoline block.
        assert dom.idom(n["N2"]) is n["T0"]
        assert dom.dominates(n["N0"], n["N2"])
        assert dom.dominates(n["N0"], n["N3"])
        assert not dom.dominates(n["N1"], n["N3"])

    def test_chain(self):
        func = build_graph([(0, 1), (1, 2)], 3)
        dom = compute_dominators(func)
        n = {b.label: b for b in func.blocks}
        assert dom.idom(n["N2"]) is n["N1"]
        assert dom.dominates(n["N0"], n["N2"])

    def test_loop_header_dominates_body(self):
        func = build_graph([(0, 1), (1, 2), (2, 1)], 3)
        dom = compute_dominators(func)
        n = {b.label: b for b in func.blocks}
        assert dom.dominates(n["N1"], n["N2"])
        assert not dom.dominates(n["N2"], n["N1"])

    def test_entry_dominates_everything_reachable(self):
        func = build_graph([(0, 1), (0, 2), (1, 3), (2, 3), (3, 1)], 4)
        dom = compute_dominators(func)
        for block in func.blocks:
            if block in dom:
                assert dom.dominates(func.entry, block)


@st.composite
def random_edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=1, max_value=2 * n))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(m)
    ]
    # Ensure some connectivity from the entry.
    edges.append((0, draw(st.integers(0, n - 1))))
    return n, edges


class TestDifferentialAgainstNetworkx:
    @settings(max_examples=60, deadline=None)
    @given(random_edge_lists())
    def test_idom_matches_networkx(self, data):
        n, edges = data
        func = build_graph(edges, n)
        dom = compute_dominators(func)

        graph = nx.DiGraph()
        for block in func.blocks:
            graph.add_node(block.label)
            for succ in block.succs:
                graph.add_edge(block.label, succ.label)
        oracle = nx.immediate_dominators(graph, func.entry.label)
        # Both dominator computations ran on the identical graph (including
        # trampoline blocks), so immediate dominators must agree exactly.
        for block in func.blocks:
            if block not in dom or block is func.entry:
                continue
            mine = dom.idom(block)
            assert mine is not None
            assert oracle[block.label] == mine.label

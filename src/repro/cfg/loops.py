"""Natural-loop detection.

A back edge is an edge ``t -> h`` where ``h`` dominates ``t``.  The natural
loop of that edge is ``h`` plus every block that can reach ``t`` without
passing through ``h``.  Loops sharing a header are merged, following the
usual convention (and the paper's: "all blocks inside this loop").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .block import BasicBlock, Function
from .dominators import DominatorTree, compute_dominators

__all__ = ["Loop", "LoopInfo", "find_loops"]


class Loop:
    """A natural loop: its header and its member blocks, as a set and
    (``members``) in the layout order :func:`find_loops` saw."""

    def __init__(self, header: BasicBlock) -> None:
        self.header = header
        self.blocks: Set[BasicBlock] = {header}
        self.members: List[BasicBlock] = []
        self.back_edges: List[Tuple[BasicBlock, BasicBlock]] = []

    def __contains__(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def exits(self) -> List[Tuple[BasicBlock, BasicBlock]]:
        """Edges leaving the loop, as (inside block, outside successor)."""
        edges = []
        for block in self.blocks:
            for succ in block.succs:
                if succ not in self.blocks:
                    edges.append((block, succ))
        return edges

    def __repr__(self) -> str:
        labels = sorted(block.label for block in self.blocks)
        return f"<Loop header={self.header.label} blocks={labels}>"


class LoopInfo:
    """All natural loops of a function, with membership queries."""

    def __init__(self, loops: List[Loop], dom: DominatorTree) -> None:
        self.loops = loops
        self.dom = dom
        self._header_map: Dict[BasicBlock, Loop] = {
            loop.header: loop for loop in loops
        }

    def loop_with_header(self, block: BasicBlock) -> Optional[Loop]:
        return self._header_map.get(block)

    def innermost_loop_of(self, block: BasicBlock) -> Optional[Loop]:
        """The smallest loop containing ``block`` (``None`` if not in a loop)."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if block in loop and (best is None or len(loop.blocks) < len(best.blocks)):
                best = loop
        return best

    def loops_containing(self, block: BasicBlock) -> List[Loop]:
        return [loop for loop in self.loops if block in loop]


def find_loops(func: Function, dom: Optional[DominatorTree] = None) -> LoopInfo:
    """Detect all natural loops of ``func`` (reachable part only)."""
    if dom is None:
        dom = compute_dominators(func)
    loops: Dict[BasicBlock, Loop] = {}
    for block in func.blocks:
        if block not in dom:
            continue  # unreachable
        for succ in block.succs:
            if succ in dom and dom.dominates(succ, block):
                loop = loops.setdefault(succ, Loop(succ))
                loop.back_edges.append((block, succ))
                _collect(loop, block, dom)
    position = {block: i for i, block in enumerate(func.blocks)}
    for loop in loops.values():
        loop.members = sorted(loop.blocks, key=position.__getitem__)
    return LoopInfo(list(loops.values()), dom)


def _collect(loop: Loop, tail: BasicBlock, dom: DominatorTree) -> None:
    """Add to ``loop`` every block reaching ``tail`` without passing the header."""
    stack = [tail]
    while stack:
        block = stack.pop()
        if block in loop.blocks or block not in dom:
            continue
        loop.blocks.add(block)
        stack.extend(block.preds)

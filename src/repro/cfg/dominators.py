"""Dominator computation.

Implements the classic iterative dataflow algorithm (Cooper/Harvey/Kennedy
style, using reverse postorder and intersection of immediate dominators).
Unreachable blocks are not assigned dominators; callers run dead-code
elimination first or must tolerate missing entries.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .block import BasicBlock, Function
from .traversal import reverse_postorder

__all__ = ["compute_dominators", "DominatorTree"]


class DominatorTree:
    """Immediate-dominator mapping with a `dominates` query."""

    def __init__(self, idom: Dict[BasicBlock, Optional[BasicBlock]]) -> None:
        self._idom = idom

    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate dominator of ``block`` (``None`` for the entry block)."""
        return self._idom.get(block)

    def __contains__(self, block: BasicBlock) -> bool:
        return block in self._idom

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` dominates ``b`` (reflexive)."""
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            node = self._idom.get(node)
        return False


def compute_dominators(
    func: Function, order: Optional[List[BasicBlock]] = None
) -> DominatorTree:
    """The dominator tree of the reachable part of ``func``, from its
    reverse postorder ``order`` (computed here when not given)."""
    order = reverse_postorder(func) if order is None else order
    index = {block: i for i, block in enumerate(order)}
    idom: Dict[BasicBlock, Optional[BasicBlock]] = {func.entry: None}

    def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while index[a] > index[b]:
                parent = idom[a]
                assert parent is not None
                a = parent
            while index[b] > index[a]:
                parent = idom[b]
                assert parent is not None
                b = parent
        return a

    changed = True
    while changed:
        changed = False
        for block in order:
            if block is func.entry:
                continue
            processed = [p for p in block.preds if p in idom and p in index]
            if not processed:
                continue
            new_idom = processed[0]
            for pred in processed[1:]:
                new_idom = intersect(pred, new_idom)
            if idom.get(block) is not new_idom:
                idom[block] = new_idom
                changed = True
    return DominatorTree(idom)

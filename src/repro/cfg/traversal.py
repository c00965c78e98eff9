"""Graph traversals over the CFG."""

from __future__ import annotations

from typing import Dict, List

from .block import BasicBlock, Function

__all__ = ["reverse_postorder", "postorder"]


def postorder(func: Function) -> List[BasicBlock]:
    """Depth-first postorder from the entry block (iterative)."""
    seen: Dict[int, bool] = {}
    order: List[BasicBlock] = []
    # Each stack entry is (block, next successor index to visit).
    stack: List[List] = [[func.entry, 0]]
    seen[id(func.entry)] = True
    while stack:
        block, index = stack[-1]
        if index < len(block.succs):
            stack[-1][1] += 1
            succ = block.succs[index]
            if id(succ) not in seen:
                seen[id(succ)] = True
                stack.append([succ, 0])
        else:
            stack.pop()
            order.append(block)
    return order


def reverse_postorder(func: Function) -> List[BasicBlock]:
    """Reverse postorder — the canonical iteration order for forward dataflow."""
    return list(reversed(postorder(func)))

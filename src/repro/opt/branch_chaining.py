"""Branch chaining: retarget branches whose destination only jumps on.

If a branch (conditional or not) targets a block that consists of a single
unconditional jump, the branch can go straight to the final destination.
Chains of any length are followed, with cycle protection (a chain of jumps
forming a loop is an infinite loop and is left alone).
"""

from __future__ import annotations

from typing import Dict

from ..cfg.block import BasicBlock, Function
from ..cfg.graph import compute_flow
from ..rtl.insn import Jump

__all__ = ["branch_chaining"]


def _final_destination(by_label: Dict[str, BasicBlock], label: str) -> str:
    """Follow jump-only blocks from ``label``; return the last label."""
    seen = {label}
    current = label
    while True:
        block = by_label[current]
        if len(block.insns) == 1 and isinstance(block.insns[0], Jump):
            nxt = block.insns[0].target
            if nxt in seen:
                return current  # a cycle of jumps: leave it
            seen.add(nxt)
            current = nxt
        else:
            return current


def branch_chaining(func: Function) -> bool:
    """Apply branch chaining to every transfer; return True if changed.

    Chains follow the transfers' current labels, not ``succs``: transfers
    are retargeted as the walk goes, and the edges are recomputed once at
    the end.
    """
    changed = False
    by_label = {block.label: block for block in func.blocks}
    cache: Dict[str, str] = {}
    for block in func.blocks:
        term = block.terminator
        if term is None:
            continue
        for target in term.branch_targets():
            final = cache.get(target)
            if final is None:
                final = _final_destination(by_label, target)
                cache[target] = final
            if final != target:
                term.retarget(target, final)
                changed = True
    if changed:
        compute_flow(func)
    return changed

"""Dead-code elimination at the control-flow level.

Three cleanups, iterated to a fixpoint:

* removal of blocks unreachable from the entry ("As a result of the
  replication process, blocks which cannot be reached by the control flow
  anymore can sometimes occur.  Therefore, dead code elimination is invoked
  to delete these blocks." — §4);
* removal of an unconditional jump to the positionally next block;
* merging a block into its unique predecessor when that predecessor falls
  through into it and has no other way in — longer straight-line blocks
  expose more local optimization (and model the bigger basic blocks the
  paper credits replication with).
"""

from __future__ import annotations

from ..cfg.analyses import get_analyses
from ..cfg.block import Function
from ..cfg.graph import compute_flow
from ..rtl.insn import Jump

__all__ = ["eliminate_dead_code", "remove_unreachable", "merge_blocks"]


def remove_unreachable(func: Function) -> bool:
    """Delete blocks not in the cached reverse postorder; True if changed."""
    reachable = set(get_analyses(func).reverse_postorder())
    if len(reachable) == len(func.blocks):
        return False
    # Deleting a block must not break a fall-through of a survivor: the
    # predecessor of a deleted block never falls through into it (a
    # fall-through edge would have made it reachable), so layout is safe.
    func.blocks = [block for block in func.blocks if block in reachable]
    compute_flow(func)
    return True


def remove_redundant_jumps(func: Function) -> bool:
    """Drop ``PC=L;`` when block L is positionally next; True if changed.

    The block then falls through to L, its successor already: no edge moves.
    """
    changed = False
    for index, block in enumerate(func.blocks[:-1]):
        term = block.terminator
        if isinstance(term, Jump) and func.blocks[index + 1].label == term.target:
            block.insns.pop()
            changed = True
    return changed


def merge_blocks(func: Function) -> bool:
    """Merge fall-through-only successors into their predecessor.

    A block no branch names has one way in, the fall-through.  Merging
    moves a terminator, not a target, so the named labels hold for the
    whole sweep and one ``compute_flow`` at its end serves every merge.
    """
    referenced = {
        label
        for block in func.blocks
        if block.terminator is not None
        for label in block.terminator.branch_targets()
    }
    changed = False
    index = 0
    while index + 1 < len(func.blocks):
        block = func.blocks[index]
        nxt = func.blocks[index + 1]
        if block.terminator is None and nxt.label not in referenced:
            block.insns.extend(nxt.insns)
            del func.blocks[index + 1]
            changed = True
            continue  # the merged block may merge again
        index += 1
    if changed:
        compute_flow(func)
    return changed


def eliminate_dead_code(func: Function) -> bool:
    """Run all control-flow cleanups to a fixpoint; True if anything changed."""
    changed = False
    progress = True
    while progress:
        progress = False
        if remove_unreachable(func):
            progress = True
        if remove_redundant_jumps(func):
            progress = True
        if merge_blocks(func):
            progress = True
        changed = changed or progress
    return changed

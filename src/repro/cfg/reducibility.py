"""Flow-graph reducibility, read off the dominator tree.

Step 6 of the paper's JUMPS algorithm requires checking whether the flow
graph is still reducible after a replication; if not, the replication is
rolled back.  The test (Hecht & Ullman): the graph is reducible iff every
edge that does not go forward in reverse postorder — a retreating edge of
the depth-first search — is a back edge, its target dominating its
source.  Both inputs are the analyses the replicator already caches
(:meth:`repro.cfg.analyses.AnalysisManager.reducible`).
"""

from __future__ import annotations

from typing import Sequence

from .block import BasicBlock, Function
from .dominators import DominatorTree, compute_dominators
from .traversal import reverse_postorder

__all__ = ["is_reducible", "reducible"]


def reducible(order: Sequence[BasicBlock], dominators: DominatorTree) -> bool:
    """True when every retreating edge of ``order`` is a back edge.

    ``order`` is the reverse postorder of the reachable blocks and
    ``dominators`` their dominator tree.
    """
    index = {block: i for i, block in enumerate(order)}
    return all(
        dominators.dominates(succ, block)
        for block in order
        for succ in block.succs
        if index[succ] <= index[block]
    )


def is_reducible(func: Function) -> bool:
    """True when the reachable flow graph of ``func`` is reducible."""
    return reducible(reverse_postorder(func), compute_dominators(func))

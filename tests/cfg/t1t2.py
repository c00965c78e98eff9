"""T1/T2 interval collapsing: the reducibility oracle.

The classic test, kept here to cross-check the dominator-based
:func:`repro.cfg.is_reducible`: repeatedly apply

* **T1** — remove a self edge ``n -> n``;
* **T2** — if node ``n`` (other than the entry) has exactly one
  predecessor ``p``, merge ``n`` into ``p``;

the graph is reducible iff it collapses to a single node.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.cfg import Function, postorder


def collapse(succs: Dict[int, Set[int]], entry: int) -> int:
    """Apply T1/T2 until fixpoint; return the number of remaining nodes.

    ``succs`` maps node id -> set of successor ids and is modified in place.
    """
    preds: Dict[int, Set[int]] = {node: set() for node in succs}
    for node, targets in succs.items():
        for target in targets:
            preds[target].add(node)

    worklist: List[int] = list(succs)
    in_worklist: Set[int] = set(worklist)
    while worklist:
        node = worklist.pop()
        in_worklist.discard(node)
        if node not in succs:
            continue
        # T1: remove self edges.
        if node in succs[node]:
            succs[node].discard(node)
            preds[node].discard(node)
        # T2: merge into a unique predecessor.
        if node != entry and len(preds[node]) == 1:
            (parent,) = preds[node]
            # Redirect node's out-edges to come from parent.
            succs[parent].discard(node)
            for target in succs[node]:
                preds[target].discard(node)
                if target != node:
                    succs[parent].add(target)
                    preds[target].add(parent)
            del succs[node]
            del preds[node]
            if parent not in in_worklist:
                worklist.append(parent)
                in_worklist.add(parent)
            # Parent's successors may now be T2 candidates.
            for target in list(succs[parent]):
                if target not in in_worklist:
                    worklist.append(target)
                    in_worklist.add(target)
    return len(succs)


def t1t2_reducible(func: Function) -> bool:
    """True when the reachable flow graph of ``func`` collapses to one node."""
    reachable = set(postorder(func))
    succs: Dict[int, Set[int]] = {
        id(block): {id(s) for s in block.succs if s in reachable}
        for block in reachable
    }
    return collapse(succs, id(func.entry)) == 1

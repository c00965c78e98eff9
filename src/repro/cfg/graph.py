"""Control-flow graph construction and maintenance.

Two entry points matter to the rest of the system:

* :func:`build_function` splits a flat ``(label, insn)`` listing into basic
  blocks (used by the front-end and by the RTL parser based tests).
* :func:`compute_flow` (re)computes predecessor/successor edges from the
  block terminators and the positional layout.  A pass calls it after it
  changes the block list or a terminator's targets, and only then:
  straight-line edits, no-ops and dropping a jump to the positional
  successor (the fall-through successor anyway) keep every edge.

It is the one place the optimizer turns a label into a block.  Edges are
current at every pass and replication-sweep boundary (the sanitizer
checks them against a fresh recomputation), so passes read ``succs``,
not labels: a jump's target is ``succs[0]``, a conditional branch's
edges are ``(fall, taken)`` and an indirect jump's follow its table.
Branch chaining alone follows labels, because it retargets transfers
before its one ``compute_flow``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..rtl.insn import CondBranch, IndirectJump, Insn, Jump, Return
from .block import BasicBlock, Function

__all__ = [
    "build_function",
    "compute_flow",
    "split_into_blocks",
]


def split_into_blocks(
    pairs: Sequence[Tuple[Optional[str], Insn]], make_label
) -> List[BasicBlock]:
    """Split a labelled instruction listing into basic blocks.

    A new block starts at every label and after every control transfer.
    Blocks without an explicit label receive one from ``make_label``.
    """
    blocks: List[BasicBlock] = []
    current: Optional[BasicBlock] = None
    for label, insn in pairs:
        if label is not None or current is None:
            current = BasicBlock(label if label is not None else make_label())
            blocks.append(current)
        current.insns.append(insn)
        if insn.is_transfer():
            current = None
    return blocks


def build_function(
    name: str,
    pairs: Sequence[Tuple[Optional[str], Insn]],
    params: Optional[Sequence[str]] = None,
) -> Function:
    """Build a :class:`Function` from a labelled instruction listing."""
    func = Function(name, params)
    # Two-phase labelling: we need fresh labels that do not clash with the
    # listing's own labels, so collect those first.
    used = {label for label, _ in pairs if label is not None}
    counter = [0]

    def make_label() -> str:
        while True:
            counter[0] += 1
            candidate = f"B{counter[0]}"
            if candidate not in used:
                return candidate

    func.blocks = split_into_blocks(pairs, make_label)
    compute_flow(func)
    return func


def compute_flow(func: Function) -> None:
    """Recompute predecessor/successor edges of every block in ``func``.

    Bumps ``func.cfg_edition`` when the block list differs from
    ``func.flow_layout``, the one the previous call saw (a permutation,
    insertion or deletion), or any successor list changed: that is what
    invalidates the cached analyses of :mod:`repro.cfg.analyses`.
    """
    layout = tuple(func.blocks)
    old_succs = [block.succs for block in layout]
    by_label: Dict[str, BasicBlock] = {}
    for block in layout:
        by_label[block.label] = block
        block.preds = []
        block.succs = []

    for index, block in enumerate(layout):
        nxt = layout[index + 1] if index + 1 < len(layout) else None
        term = block.terminator
        succs: List[BasicBlock] = []
        if isinstance(term, Jump):
            succs.append(_lookup(by_label, term.target, func, block))
        elif isinstance(term, CondBranch):
            # Fall-through edge first, branch-taken edge second.
            if nxt is None:
                raise ValueError(
                    f"{func.name}: block {block.label} ends in a conditional "
                    "branch but has no fall-through block"
                )
            succs.append(nxt)
            succs.append(_lookup(by_label, term.target, func, block))
        elif isinstance(term, Return):
            pass
        elif isinstance(term, IndirectJump):
            for target in term.targets:
                succs.append(_lookup(by_label, target, func, block))
        else:
            if nxt is not None:
                succs.append(nxt)
        block.succs = succs
        for succ in succs:
            succ.preds.append(block)

    # Blocks compare by identity, so inequality is a layout or edge change.
    if layout != func.flow_layout or any(
        old != block.succs for old, block in zip(old_succs, layout)
    ):
        func.flow_layout = layout
        func.cfg_edition += 1


def _lookup(
    by_label: Dict[str, BasicBlock], label: str, func: Function, src: BasicBlock
) -> BasicBlock:
    try:
        return by_label[label]
    except KeyError:
        raise KeyError(
            f"{func.name}: block {src.label} targets unknown label {label!r}"
        ) from None

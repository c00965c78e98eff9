"""Control-flow graph construction and maintenance.

Three entry points matter to the rest of the system:

* :func:`build_function` splits a flat ``(label, insn)`` listing into basic
  blocks (used by the front-end and by the RTL parser based tests).
* :func:`successors` is the one place a label becomes a block: it
  resolves every block's edges from the terminators and the positional
  layout, and reports what it cannot resolve.  The optimizer (through
  :func:`compute_flow`), the sanitizer (against the stored edges) and
  the compiled EASE engine (as block indices) all read it.
* :func:`compute_flow` stores those edges as ``preds``/``succs``.  A pass
  calls it after it changes the block list or a terminator's targets,
  and only then: straight-line edits, no-ops and dropping a jump to the
  positional successor (the fall-through successor anyway) keep every
  edge.

Edges are current at every pass and replication-sweep boundary (the
sanitizer checks them), so passes read ``succs``, not labels: a jump's
target is ``succs[0]``, a conditional branch's edges are ``(fall,
taken)`` and an indirect jump's follow its table.  Branch chaining alone
follows labels, because it retargets transfers before its one
``compute_flow``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..rtl.insn import CondBranch, IndirectJump, Insn, Jump, Return
from .block import BasicBlock, Function

__all__ = [
    "build_function",
    "compute_flow",
    "split_into_blocks",
    "successors",
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


def successors(
    blocks: Sequence[BasicBlock], problems: List[str]
) -> List[List[BasicBlock]]:
    """Each block's successors, resolved from the terminators' labels.

    In ``blocks`` order: the positional successor first when a block
    falls through (for a conditional branch, ``(fall, taken)``), then its
    branch targets in order.  A duplicate label, a target that names no
    block, a conditional branch with no next block and an empty indirect
    table are appended to ``problems``, and the faulty edge is left out.
    Pure: reads the blocks, mutates nothing.
    """
    by_label: Dict[str, BasicBlock] = {}
    for block in blocks:
        if block.label in by_label:
            problems.append(f"duplicate label {block.label!r}")
        by_label[block.label] = block

    edges: List[List[BasicBlock]] = []
    for index, block in enumerate(blocks, 1):
        term = block.terminator
        succs: List[BasicBlock] = []
        if not isinstance(term, (Jump, Return, IndirectJump)):
            if index < len(blocks):
                succs.append(blocks[index])
            elif isinstance(term, CondBranch):
                problems.append(
                    f"block {block.label}: conditional branch at the "
                    "function end has no fall-through block"
                )
        elif isinstance(term, IndirectJump) and not term.targets:
            problems.append(
                f"block {block.label}: indirect jump with an empty target table"
            )
        for label in term.branch_targets() if term is not None else ():
            target = by_label.get(label)
            if target is None:
                problems.append(
                    f"block {block.label}: branch target {label!r} "
                    "resolves to no block (label table broken)"
                )
            else:
                succs.append(target)
        edges.append(succs)
    return edges


def compute_flow(func: Function) -> None:
    """Recompute predecessor/successor edges of every block in ``func``.

    Raises ``ValueError`` naming the first fault :func:`successors`
    finds, before it changes any edge.  Bumps ``func.cfg_edition`` when
    the block list differs from ``func.flow_layout``, the one the
    previous call saw (a permutation, insertion or deletion), or any
    successor list changed: that is what invalidates the cached analyses
    of :mod:`repro.cfg.analyses`.
    """
    layout = tuple(func.blocks)
    problems: List[str] = []
    edges = successors(layout, problems)
    if problems:
        raise ValueError(f"{func.name}: {problems[0]}")
    # Blocks compare by identity, so inequality is a layout or edge change.
    if layout != func.flow_layout or any(
        block.succs != succs for block, succs in zip(layout, edges)
    ):
        func.flow_layout = layout
        func.cfg_edition += 1
    for block in layout:
        block.preds = []
    for block, succs in zip(layout, edges):
        block.succs = succs
        for succ in succs:
            succ.preds.append(block)

"""Delay-slot filling for the RISC target (Figure 3's final phase).

On the SPARC every control transfer (conditional branch, jump, call,
return) has an architectural delay slot.  The classic filling strategy
moves an earlier, independent instruction of the same block into the slot;
when none is available a no-op must be inserted.

Block invariants in this code base require transfers to terminate blocks,
so the model keeps filled slots implicit (the "moved" instruction simply
stays where it is — execution order is equivalent) and materializes only
the *unfilled* slots as explicit :class:`~repro.rtl.insn.Nop` instructions
placed directly before the transfer.  Counts, sizes and cache layout all
see the no-op; the interpreter executes it as one instruction.

The paper reports that code replication eliminated about 50 % of executed
no-ops on the SPARC: larger basic blocks offer more independent
instructions to move into slots, which this model captures.
"""

from __future__ import annotations

from typing import List

from ..cfg.block import Function
from ..rtl.insn import Assign, Call, Insn, Nop

__all__ = ["fill_delay_slots", "count_nops"]


def _is_movable(insn: Insn) -> bool:
    """Instructions that may be moved into a delay slot.

    Compares are excluded: a conditional branch depends on the condition
    codes, so the compare cannot execute after the branch decision; being
    conservative, we never use compares as slot fillers.
    """
    return isinstance(insn, Assign)


def fill_delay_slots(func: Function) -> int:
    """Fill delay slots in ``func``; return the number of no-ops inserted.

    Walks each block keeping a pool of not-yet-consumed movable
    instructions.  Each delay-slotted instruction (calls inside the block
    and the terminating transfer) consumes one pooled instruction, or
    forces an explicit no-op.
    """
    inserted = 0
    for block in func.blocks:
        available = 0
        new_insns: List[Insn] = []
        for insn in block.insns:
            if isinstance(insn, Call):
                if available > 0:
                    available -= 1
                else:
                    new_insns.append(Nop())
                    inserted += 1
                new_insns.append(insn)
                continue
            if insn.is_transfer():
                if available > 0:
                    available -= 1
                else:
                    new_insns.append(Nop())
                    inserted += 1
                new_insns.append(insn)
                continue
            if _is_movable(insn):
                available += 1
            new_insns.append(insn)
        block.insns = new_insns  # each transfer still ends its block
    return inserted


def count_nops(func: Function) -> int:
    """The number of explicit no-ops currently in ``func``."""
    return sum(1 for insn in func.insns() if isinstance(insn, Nop))

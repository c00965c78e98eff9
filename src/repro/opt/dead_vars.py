"""Dead-variable elimination.

Removes assignments to registers that are not live afterwards (loads are
side-effect free in this model, so dead loads disappear too) and compares
whose condition codes nobody reads.  Iterates with recomputed liveness
until nothing changes — removing one dead assignment can make another dead.
"""

from __future__ import annotations

from ..cfg.block import Function
from ..rtl.expr import Reg
from ..rtl.insn import Assign, Compare
from .liveness import Liveness

__all__ = ["eliminate_dead_variables"]


def _one_pass(func: Function) -> bool:
    liveness = Liveness(func)
    changed = False
    for block in func.blocks:
        keep = []
        doomed = set()
        for insn, live_after in liveness.walk_backward(block):
            if isinstance(insn, Assign) and isinstance(insn.dst, Reg):
                if insn.dst not in live_after and insn.dst.bank not in ("arg", "rv"):
                    doomed.add(id(insn))
            elif isinstance(insn, Compare):
                if insn.defined_reg() not in live_after:
                    doomed.add(id(insn))
        if doomed:
            block.insns = [i for i in block.insns if id(i) not in doomed]
            changed = True
    return changed


#: Sweeps before giving up on a fixpoint (each sweep can expose more
#: dead assignments upstream of the ones it removed).
MAX_PASSES = 20


def eliminate_dead_variables(func: Function) -> bool:
    """Remove dead register assignments; True if anything changed."""
    changed = False
    for _ in range(MAX_PASSES):
        if not _one_pass(func):
            break
        changed = True
    return changed

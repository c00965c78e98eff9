"""Strength reduction of induction-variable multiplications.

The classic transformation (Figure 3 lists "strength reduction" and
"recurrences" in VPO's optimization loop): for a basic induction variable
``i`` (single definition ``i = i + c`` in the loop) and a use ``i * k``
with constant ``k``, introduce a register ``s`` holding ``i * k``,
initialized in the preheader and advanced by ``c * k`` next to ``i``'s
increment, then replace the multiplication.

This is what turns array indexing (``base + i*4``) into the pointer-walk
style code visible in the paper's Table 1 (``a[0]=a[0]+1``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cfg.analyses import get_analyses
from ..cfg.block import BasicBlock, Function
from ..cfg.loops import Loop
from ..rtl.expr import BinOp, Const, Expr, Reg
from ..rtl.insn import Assign, Insn
from .code_motion import ensure_preheader
from .instruction_selection import RegFactory

__all__ = ["strength_reduce"]


def _increment_of(insn: Insn, reg: Reg) -> Optional[int]:
    """The constant c when ``insn`` is ``reg = reg ± c``, else ``None``."""
    if not isinstance(insn, Assign):
        return None
    src = insn.src
    if (
        isinstance(src, BinOp)
        and src.op in ("+", "-")
        and src.left == reg
        and isinstance(src.right, Const)
    ):
        return src.right.value if src.op == "+" else -src.right.value
    return None


def _find_basic_ivs(loop: Loop) -> Dict[Reg, List[Tuple[Insn, int, BasicBlock]]]:
    """Registers whose every in-loop def is ``i = i ± c`` (same ``c``).

    Code replication duplicates loop-closing increments, so a basic
    induction variable may legitimately have several identical update
    sites; the derived register is then advanced after each of them.
    Blocks are scanned in layout order so the resulting dict order (and
    hence derived-register numbering) is deterministic.
    """
    defs: Dict[Reg, List[Tuple[Insn, BasicBlock]]] = {}
    for block in loop.members:
        for insn in block.insns:
            reg = insn.defined_reg()
            if reg is not None:
                defs.setdefault(reg, []).append((insn, block))
    ivs: Dict[Reg, List[Tuple[Insn, int, BasicBlock]]] = {}
    for reg, sites in defs.items():
        steps = [(_increment_of(insn, reg), insn, block) for insn, block in sites]
        if any(step is None for step, _, _ in steps):
            continue
        constants = {step for step, _, _ in steps}
        if len(constants) != 1:
            continue
        ivs[reg] = [(insn, step, block) for step, insn, block in steps]
    return ivs


def _multiplications_of(loop: Loop, iv: Reg) -> List[Expr]:
    """Distinct ``iv * k`` expressions used inside the loop, layout order."""
    found: Dict[Expr, None] = {}
    for block in loop.members:
        for insn in block.insns:
            for expr in insn.used_exprs():
                for node in _walk(expr):
                    if (
                        isinstance(node, BinOp)
                        and node.op == "*"
                        and node.left == iv
                        and isinstance(node.right, Const)
                        and node.right.value not in (0, 1)
                    ):
                        found[node] = None
    return list(found)


def _walk(expr: Expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def strength_reduce(func: Function) -> bool:
    """Strength-reduce induction-variable multiplies; True if changed."""
    changed = False
    factory = RegFactory.virtual(func)
    # Re-detect loops after every change: reductions add preheader blocks,
    # and stale loop member sets would misclassify the new definitions.
    guard = 0
    while True:
        guard += 1
        if guard > 100:
            break
        info = get_analyses(func).loops()
        progress = False
        for loop in sorted(info.loops, key=lambda l: len(l.blocks)):
            if _reduce_loop(func, loop, factory):
                progress = True
                changed = True
                break
        if not progress:
            break
    return changed


def _reduce_loop(func: Function, loop: Loop, factory: RegFactory) -> bool:
    ivs = _find_basic_ivs(loop)
    if not ivs:
        return False
    plans = []
    for iv, sites in ivs.items():
        for product in _multiplications_of(loop, iv):
            plans.append((iv, sites, product))
    if not plans:
        return False

    preheader = ensure_preheader(func, loop)
    for iv, sites, product in plans:
        assert isinstance(product, BinOp)
        k = product.right
        assert isinstance(k, Const)
        derived = factory.new()
        preheader.insns.append(Assign(derived, BinOp("*", iv, k)))
        update_sites = {id(insn) for insn, _, _ in sites}

        # Replace iv*k everywhere in the loop, *before* inserting the
        # updates so the updates themselves are not rewritten.
        mapping = {product: derived}
        for block in loop.blocks:
            for insn in block.insns:
                if id(insn) not in update_sites:
                    insn.substitute(mapping)

        # Advance the derived register right after *each* IV increment.
        for iv_insn, step, iv_block in sites:
            position = iv_block.insns.index(iv_insn) + 1
            iv_block.insns.insert(
                position,
                Assign(derived, BinOp("+", derived, Const(step * k.value))),
            )
    return True


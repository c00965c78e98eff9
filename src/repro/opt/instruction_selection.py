"""Instruction selection, VPO style (Davidson/Fraser).

Two directions:

* :func:`legalize` splits RTLs the target cannot express as a single
  instruction into several legal RTLs, materializing sub-expressions into
  fresh registers.  On the RISC target this imposes the load/store
  discipline and simple addressing; on the 68020 it mostly bounds memory
  operands per instruction.

* :func:`combine` merges pairs of RTLs by forward-substituting a register
  definition into its sole use when the combined RTL is still legal.  This
  is what folds loads/stores into 68020 memory-operand instructions and
  immediates into both targets, and what lets replication feed later
  "elimination of instructions" (§3.3.2).
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..cfg.block import BasicBlock, Function
from ..rtl.expr import BinOp, Const, Expr, Mem, Reg, UnOp, reg_set, walk
from ..rtl.insn import Assign, Call, Compare, Insn
from ..targets.machine import Machine
from .liveness import Liveness

__all__ = ["legalize", "combine", "RegFactory"]


class RegFactory:
    """Produces fresh registers for legalization.

    Before register allocation it hands out virtual registers; after
    allocation (re-legalizing spill code) it cycles through the target's
    reserved scratch registers.
    """

    def __init__(self, scratch: Optional[List[Reg]] = None, start: int = 0) -> None:
        self._scratch = list(scratch) if scratch else None
        self._cursor = 0
        self._counter = itertools.count(start)

    @classmethod
    def virtual(cls, func: Function) -> "RegFactory":
        highest = -1
        for insn in func.insns():
            for reg in insn.used_regs():
                if reg.bank == "v":
                    highest = max(highest, reg.index)
            defined = insn.defined_reg()
            if defined is not None and defined.bank == "v":
                highest = max(highest, defined.index)
        return cls(start=highest + 1)

    def new(self) -> Reg:
        if self._scratch is not None:
            reg = self._scratch[self._cursor % len(self._scratch)]
            self._cursor += 1
            return reg
        return Reg("v", next(self._counter))


# ---------------------------------------------------------------------------
# Legalization
# ---------------------------------------------------------------------------


def _hoist(expr: Expr, factory: RegFactory, out: List[Insn], target: Machine) -> Reg:
    """Materialize ``expr`` into a fresh register, legally."""
    reg = factory.new()
    insn = Assign(reg, expr)
    _legalize_insn(insn, factory, out, target)
    out.append(insn)
    return reg


def _legal_operand(expr: Expr, target: Machine) -> bool:
    if isinstance(expr, Reg):
        return True
    probe = Assign(Reg("v", 999_999), expr)
    return target.legal(probe)


def _reduce_addr(
    addr: Expr, factory: RegFactory, out: List[Insn], target: Machine
) -> Expr:
    """Rewrite ``addr`` until the target accepts it as an address."""
    guard = 0
    while not target.legal_addr(addr):
        guard += 1
        if guard > 16:
            return _hoist(addr, factory, out, target)
        if isinstance(addr, BinOp) and addr.op == "+":
            # Hoist the structurally larger half first.
            left_simple = isinstance(addr.left, (Reg, Const))
            right_simple = isinstance(addr.right, (Reg, Const))
            if not left_simple:
                addr = BinOp(
                    "+", _hoist(addr.left, factory, out, target), addr.right
                )
            elif not right_simple:
                addr = BinOp(
                    "+", addr.left, _hoist(addr.right, factory, out, target)
                )
            else:
                # reg+reg / reg+const but still illegal (e.g. big const):
                return _hoist(addr, factory, out, target)
        else:
            return _hoist(addr, factory, out, target)
    return addr


def _legalize_src(
    src: Expr, factory: RegFactory, out: List[Insn], target: Machine
) -> Expr:
    """Decompose ``src`` until ``Assign(reg, src)`` would be legal."""
    guard = 0
    while not target.legal(Assign(Reg("v", 999_999), src)):
        guard += 1
        if guard > 24:
            raise RuntimeError(f"cannot legalize source {src!r} for {target.name}")
        if isinstance(src, Mem):
            src = Mem(_reduce_addr(src.addr, factory, out, target), src.width)
            if target.legal(Assign(Reg("v", 999_999), src)):
                break
            # Address legal but the load still refused: hoist fully.
            return _hoist(src, factory, out, target)
        elif isinstance(src, BinOp):
            if not isinstance(src.left, Reg):
                src = BinOp(
                    src.op, _hoist(src.left, factory, out, target), src.right
                )
            elif not _legal_operand(src.right, target) or not target.legal(
                Assign(Reg("v", 999_999), src)
            ):
                src = BinOp(
                    src.op, src.left, _hoist(src.right, factory, out, target)
                )
        elif isinstance(src, UnOp):
            src = UnOp(src.op, _hoist(src.operand, factory, out, target))
        else:
            # A leaf the target refuses in this position (e.g. big const
            # as a store source): materialize it.
            return _hoist(src, factory, out, target)
    return src


def _legalize_insn(
    insn: Insn, factory: RegFactory, out: List[Insn], target: Machine
) -> None:
    """Emit preparatory RTLs into ``out`` and rewrite ``insn`` legally."""
    if isinstance(insn, Assign):
        if isinstance(insn.dst, Mem):
            addr = _reduce_addr(insn.dst.addr, factory, out, target)
            insn.dst = Mem(addr, insn.dst.width)
            if not target.legal(insn):
                # Either the source shape or the total memory-operand count
                # is the problem; try a legal source first, then a register.
                insn.src = _legalize_src(insn.src, factory, out, target)
                if not target.legal(insn):
                    insn.src = _hoist(insn.src, factory, out, target)
        else:
            if not target.legal(insn):
                insn.src = _legalize_src(insn.src, factory, out, target)
    elif isinstance(insn, Compare):
        guard = 0
        while not target.legal(insn):
            guard += 1
            if guard > 8:
                raise RuntimeError(f"cannot legalize {insn!r} for {target.name}")
            if not isinstance(insn.left, Reg):
                insn.left = _hoist(insn.left, factory, out, target)
            elif not isinstance(insn.right, (Reg, Const)) or not target.legal(insn):
                insn.right = _hoist(insn.right, factory, out, target)


def legalize(
    func: Function, target: Machine, factory: Optional[RegFactory] = None
) -> bool:
    """Make every RTL of ``func`` legal for ``target``; True if changed."""
    if factory is None:
        factory = RegFactory.virtual(func)
    changed = False
    for block in func.blocks:
        new_insns: List[Insn] = []
        for insn in block.insns:
            if target.legal(insn):
                new_insns.append(insn)
                continue
            out: List[Insn] = []
            _legalize_insn(insn, factory, out, target)
            if not target.legal(insn):
                raise RuntimeError(
                    f"legalization failed for {insn!r} on {target.name}"
                )
            new_insns.extend(out)
            new_insns.append(insn)
            changed = True
        block.insns = new_insns
    return changed


# ---------------------------------------------------------------------------
# Combining
# ---------------------------------------------------------------------------


def _is_combinable_def(insn: Insn) -> bool:
    if not isinstance(insn, Assign):
        return False
    dst = insn.defined_reg()
    if dst is None or dst.bank in ("cc", "arg"):
        return False
    return True


def _src_reads_mem(expr: Expr) -> bool:
    return any(isinstance(node, Mem) for node in walk(expr))


def combine(func: Function, target: Machine) -> bool:
    """Forward-substitute single-use register definitions (per block).

    One :class:`Liveness` serves the whole call: combining never changes
    any block's live-in or live-out set.  A rewrite deletes ``r = e`` at
    index *i* and substitutes ``e`` into the sole use of ``r`` at *j* of
    the same block.  No instruction strictly between *i* and *j*
    redefines a register of ``e`` (the barrier check), so the block's
    upward-exposed uses are unchanged; the registers the block defines
    change at most by ``r``, and ``r`` is either redefined at or after
    *j* or not live out of the block.  Every block's transfer function
    is therefore the same, and so is the fixpoint.
    """
    changed = False
    liveness = Liveness(func)
    for block in func.blocks:
        if _combine_block(block, target, liveness):
            changed = True
    return changed


def _combine_block(block: BasicBlock, target: Machine, liveness: Liveness) -> bool:
    changed = False
    index = 0
    while index < len(block.insns):
        if _try_combine_at(block, index, target, liveness):
            changed = True
            # The def was deleted; stay at the same index.
            continue
        index += 1
    return changed


def _try_combine_at(
    block: BasicBlock, index: int, target: Machine, liveness: Liveness
) -> bool:
    insn = block.insns[index]
    if not _is_combinable_def(insn):
        return False
    assert isinstance(insn, Assign)
    reg = insn.dst
    assert isinstance(reg, Reg)
    expr = insn.src
    expr_regs = reg_set(expr)
    if reg in expr_regs:
        return False  # e.g. r = r + 1: nothing to forward
    expr_reads_mem = _src_reads_mem(expr)

    use_at: Optional[int] = None
    dead_after_use = False
    for j in range(index + 1, len(block.insns)):
        other = block.insns[j]
        if use_at is None:
            if reg in other.used_regs():
                use_at = j
                if other.defined_reg() == reg:
                    dead_after_use = True  # e.g. r = r + 1 consumes the def
                    break
                continue
            # Barriers between the definition and its (future) use:
            if other.defined_reg() == reg:
                return False  # dead def; dead-variable elimination's job
            if other.defined_reg() in expr_regs:
                return False
            if expr_reads_mem and (other.stores_mem() or isinstance(other, Call)):
                return False
        else:
            if reg in other.used_regs():
                return False  # a second use: not single-use
            if other.defined_reg() == reg:
                dead_after_use = True
                break
    if use_at is None:
        return False
    if not dead_after_use and reg in liveness.block_live_out(block):
        return False

    user = block.insns[use_at]
    candidate = user.clone()
    candidate.substitute({reg: expr})
    if reg in candidate.used_regs():
        # The use is implicit (Return/Call conventions) or survived the
        # substitution some other way; the definition must stay.
        return False
    if not target.legal(candidate):
        return False
    block.insns[use_at] = candidate
    del block.insns[index]
    return True

"""Register assignment and allocation by graph colouring.

Two phases, following VPO's structure (Figure 3 lists "register
assignment" early and "register allocation by register coloring" in the
loop):

* :func:`promote_locals` replaces scalar frame slots whose address is
  never taken by virtual registers, turning memory traffic into register
  traffic that the colourer then maps onto machine registers.
* :func:`color_registers` builds an interference graph over the virtual
  registers from liveness, colours it Chaitin-style with the target's
  register pool, and spills the rest back to frame slots (shuttled through
  the target's reserved scratch registers).

Calling convention note: the modelled machines save and restore registers
around calls (callee-saved semantics), so live ranges crossing calls need
no special treatment.  DESIGN.md records this simplification.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..cfg.analyses import get_analyses
from ..cfg.block import Function
from ..rtl.expr import Expr, Local, Mem, Reg, walk
from ..rtl.insn import Assign, Compare, IndirectJump, Insn
from ..targets.machine import Machine
from .instruction_selection import RegFactory, legalize
from .liveness import Liveness

__all__ = ["promote_locals", "color_registers"]


# ---------------------------------------------------------------------------
# Local-variable promotion
# ---------------------------------------------------------------------------


def _promotable_locals(func: Function) -> Set[str]:
    """Locals whose every occurrence is exactly ``L[FP+name.]``."""
    seen: Set[str] = set()
    bad: Set[str] = set()

    def scan(expr: Expr) -> None:
        # Walk with parent context: a Local is fine only directly under a
        # 4-byte Mem; anywhere else its address escapes.
        stack: List[Tuple[Expr, Optional[Expr]]] = [(expr, None)]
        while stack:
            node, parent = stack.pop()
            if isinstance(node, Local):
                seen.add(node.name)
                ok = (
                    isinstance(parent, Mem)
                    and parent.width == "L"
                    and parent.addr is node
                )
                if not ok:
                    bad.add(node.name)
            for child in node.children():
                stack.append((child, node))

    for insn in func.insns():
        if isinstance(insn, Assign):
            scan(insn.src)
            scan(insn.dst)
        elif isinstance(insn, Compare):
            scan(insn.left)
            scan(insn.right)
        elif isinstance(insn, IndirectJump):
            scan(insn.addr)
    return seen - bad


def promote_locals(func: Function) -> int:
    """Promote eligible scalar locals to virtual registers; return count."""
    eligible = _promotable_locals(func)
    # Only 4-byte slots are scalars; larger slots are arrays/aggregates.
    eligible = {
        name
        for name in eligible
        if name not in func.frame or func.frame[name][1] == 4
    }
    if not eligible:
        return 0
    factory = RegFactory.virtual(func)
    # Sorted so virtual-register numbering (and every downstream
    # r.index tie-break) is independent of set iteration order.
    mapping: Dict[Expr, Expr] = {
        Mem(Local(name), "L"): factory.new() for name in sorted(eligible)
    }
    for insn in func.insns():
        # Uses first, then a promoted store destination becomes a register
        # definition.
        insn.substitute(mapping)
        if isinstance(insn, Assign) and isinstance(insn.dst, Mem):
            replacement = mapping.get(insn.dst)
            if replacement is not None:
                insn.dst = replacement  # type: ignore[assignment]
    return len(eligible)


# ---------------------------------------------------------------------------
# Colouring
# ---------------------------------------------------------------------------


class AllocationResult:
    """Colour assignments and spill list of one allocation run."""

    def __init__(self) -> None:
        self.assigned: Dict[Reg, Reg] = {}
        self.spilled: List[Reg] = []

    def __repr__(self) -> str:
        return f"<AllocationResult assigned={len(self.assigned)} spilled={len(self.spilled)}>"


def _loop_depths(func: Function) -> Dict[int, int]:
    info = get_analyses(func).loops()
    depths: Dict[int, int] = {id(b): 0 for b in func.blocks}
    for loop in info.loops:
        for block in loop.blocks:
            depths[id(block)] = depths.get(id(block), 0) + 1
    return depths


def _address_regs(func: Function) -> Set[Reg]:
    """Registers that appear inside some memory-address expression."""
    found: Set[Reg] = set()
    for insn in func.insns():
        for expr in insn.used_exprs():
            for node in walk(expr):
                if isinstance(node, Mem):
                    for sub in walk(node.addr):
                        if isinstance(sub, Reg):
                            found.add(sub)
    return found


def color_registers(func: Function, target: Machine) -> AllocationResult:
    """Colour all virtual registers of ``func`` with the target's pool."""
    result = AllocationResult()
    pending = True
    rounds = 0
    while pending:
        rounds += 1
        if rounds > 8:
            raise RuntimeError(f"register allocation did not converge in {func.name}")
        pending = _color_once(func, target, result)
    # Spill shuttling may have produced illegal address arithmetic.
    legalize(func, target, RegFactory(scratch=list(target.scratch)))
    return result


def _color_once(func: Function, target: Machine, result: AllocationResult) -> bool:
    """One colouring attempt; returns True when spilling forced a retry."""
    liveness = Liveness(func)
    vregs: Set[Reg] = set()
    for insn in func.insns():
        defined = insn.defined_reg()
        if defined is not None and defined.bank == "v":
            vregs.add(defined)
        for reg in insn.used_regs():
            if reg.bank == "v":
                vregs.add(reg)
    if not vregs:
        return False

    # Interference: a definition interferes with everything live after it.
    adjacency: Dict[Reg, Set[Reg]] = {reg: set() for reg in vregs}
    for block in func.blocks:
        for insn, live_after in liveness.walk_backward(block):
            defined = insn.defined_reg()
            if defined is None or defined.bank != "v":
                continue
            copy_source = (
                insn.src
                if isinstance(insn, Assign) and isinstance(insn.src, Reg)
                else None
            )
            for other in live_after:
                if other.bank != "v" or other == defined or other == copy_source:
                    continue
                adjacency[defined].add(other)
                adjacency[other].add(defined)

    depths = _loop_depths(func)
    cost: Dict[Reg, float] = {reg: 0.0 for reg in vregs}
    for block in func.blocks:
        weight = 10.0 ** min(depths.get(id(block), 0), 4)
        for insn in block.insns:
            defined = insn.defined_reg()
            if defined in cost:
                cost[defined] += weight
            for reg in insn.used_regs():
                if reg in cost:
                    cost[reg] += weight

    k = len(target.pool)
    work = dict(adjacency)
    degrees = {reg: len(neigh) for reg, neigh in work.items()}
    stack: List[Reg] = []
    remaining = set(vregs)
    while remaining:
        simplifiable = [r for r in remaining if degrees[r] < k]
        if simplifiable:
            reg = min(simplifiable, key=lambda r: (degrees[r], r.index))
        else:
            # Potential spill: cheapest per degree goes on the stack last.
            reg = min(
                remaining,
                key=lambda r: (cost[r] / max(1, degrees[r]), r.index),
            )
        remaining.discard(reg)
        stack.append(reg)
        for neighbour in work[reg]:
            if neighbour in remaining:
                degrees[neighbour] -= 1

    address_regs = _address_regs(func)
    colors: Dict[Reg, Reg] = {}
    spills: List[Reg] = []
    while stack:
        reg = stack.pop()
        taken = {
            colors[n] for n in adjacency[reg] if n in colors
        }
        choice = None
        for candidate in target.preferred_regs(reg in address_regs):
            if candidate not in taken:
                choice = candidate
                break
        if choice is None:
            spills.append(reg)
        else:
            colors[reg] = choice

    if spills:
        _spill(func, target, spills)
        result.spilled.extend(spills)
        return True

    # Apply the colouring.
    mapping: Dict[Expr, Expr] = dict(colors)
    for insn in func.insns():
        insn.substitute(mapping)
        if isinstance(insn, Assign) and isinstance(insn.dst, Reg):
            replacement = colors.get(insn.dst)
            if replacement is not None:
                insn.dst = replacement
    result.assigned.update(colors)
    return False


def _spill(func: Function, target: Machine, spills: List[Reg]) -> None:
    """Rewrite spilled virtual registers through frame slots."""
    slots: Dict[Reg, Mem] = {}
    for reg in spills:
        name = f"_spill_v{reg.index}"
        if name not in func.frame:
            func.add_local(name, 4)
        slots[reg] = Mem(Local(name), "L")

    scratch = list(target.scratch)
    for block in func.blocks:
        new_insns: List[Insn] = []
        for insn in block.insns:
            used = [r for r in insn.used_regs() if r in slots]
            loads: Dict[Reg, Reg] = {}
            for i, reg in enumerate(sorted(set(used), key=lambda r: r.index)):
                shuttle = scratch[i % len(scratch)]
                new_insns.append(Assign(shuttle, slots[reg]))
                loads[reg] = shuttle
            if loads:
                insn.substitute(dict(loads))
            defined = insn.defined_reg()
            if isinstance(insn, Assign) and defined in slots:
                shuttle = scratch[-1]
                store_slot = slots[defined]  # type: ignore[index]
                insn.dst = shuttle
                new_insns.append(insn)
                new_insns.append(Assign(store_slot, shuttle))
            else:
                new_insns.append(insn)
        block.insns = new_insns

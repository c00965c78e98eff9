"""Loop-invariant code motion, with preheader creation.

Invariant register assignments are hoisted into the loop's preheader — a
block created (or reused) immediately before the loop header in the layout,
so that external control falls through it into the loop while back edges
keep targeting the header.

The paper's §3.3.3 ("Relocating the Preheader of Loops") relies on the
interaction between this pass and code replication: after replication the
preheader may end up on one side of a conditional branch, so the hoisted
instructions are skipped entirely when the loop does not execute.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..cfg.analyses import get_analyses
from ..cfg.block import BasicBlock, Function
from ..cfg.graph import compute_flow
from ..cfg.loops import Loop
from ..rtl.expr import Expr, Mem, Reg, reg_set, walk
from ..rtl.insn import Assign, Call, Insn
from .liveness import Liveness

__all__ = ["loop_invariant_code_motion", "ensure_preheader"]


def ensure_preheader(func: Function, loop: Loop) -> BasicBlock:
    """Return the loop's preheader, creating one when necessary.

    An existing block qualifies when it is the positional predecessor of
    the header, falls through into it, is outside the loop, and is the
    *only* external predecessor.
    """
    header = loop.header
    external = [p for p in header.preds if p not in loop.blocks]
    index = func.blocks.index(header)
    if (
        len(external) == 1
        and index > 0
        and func.blocks[index - 1] is external[0]
        and external[0].terminator is None
    ):
        return external[0]

    # A loop member may reach the header by positional fall-through (a
    # fall-through back edge); it must not run through the preheader, so
    # make its back edge explicit first.
    if index > 0:
        before = func.blocks[index - 1]
        if before in loop.blocks and before.falls_through():
            from ..rtl.insn import Jump

            if before.terminator is None:
                before.insns.append(Jump(header.label))
            else:
                # A conditional branch falls through into the header: give
                # it a landing block that jumps to the header instead.
                landing = BasicBlock(func.new_label(), [Jump(header.label)])
                func.blocks.insert(index, landing)
                index += 1

    preheader = BasicBlock(func.new_label())
    func.blocks.insert(index, preheader)
    # External predecessors that *branch* to the header must branch to the
    # preheader instead; the positional predecessor now falls through into
    # the preheader, which falls through into the header.
    for pred in external:
        term = pred.terminator
        if term is not None:
            term.retarget(header.label, preheader.label)
    compute_flow(func)
    return preheader


def _defined_regs_in_loop(loop: Loop) -> Dict[Reg, int]:
    counts: Dict[Reg, int] = {}
    for block in loop.blocks:
        for insn in block.insns:
            reg = insn.defined_reg()
            if reg is not None:
                counts[reg] = counts.get(reg, 0) + 1
    return counts


def _loop_has_stores_or_calls(loop: Loop) -> bool:
    for block in loop.blocks:
        for insn in block.insns:
            if insn.stores_mem() or isinstance(insn, Call):
                return True
    return False


def _may_trap(expr: Expr) -> bool:
    for node in walk(expr):
        op = getattr(node, "op", None)
        if op in ("/", "%"):
            return True
    return False


def _reads_mem(expr: Expr) -> bool:
    return any(isinstance(node, Mem) for node in walk(expr))


def loop_invariant_code_motion(func: Function) -> bool:
    """Hoist invariant assignments out of natural loops; True if changed."""
    changed = False
    # Innermost first (fewest blocks first).  After every successful hoist
    # the loop structure is *recomputed from scratch*: hoisting creates
    # preheader blocks inside enclosing loops, and stale member sets would
    # otherwise miss the definitions they carry.
    #
    # One liveness serves a whole round: ``_hoist_from_loop`` either
    # hoists (and the round ends) or returns False without mutating
    # anything, so the facts stay exact for every loop tried.
    guard = 0
    while True:
        guard += 1
        if guard > 100:
            break
        info = get_analyses(func).loops()
        if not info.loops:
            break
        liveness = Liveness(func)
        progress = False
        for loop in sorted(info.loops, key=lambda l: len(l.blocks)):
            if _hoist_from_loop(func, loop, liveness):
                progress = True
                changed = True
                break
        if not progress:
            break
    return changed


def _hoist_from_loop(func: Function, loop: Loop, liveness: Liveness) -> bool:
    """Hoist ``loop``'s invariants; False (and nothing mutated) if none."""
    defs = _defined_regs_in_loop(loop)
    loop_writes_mem = _loop_has_stores_or_calls(loop)
    dom = get_analyses(func).dominators()
    exits = loop.exits()
    header_live_in = liveness.block_live_in(loop.header)

    candidates: List[Insn] = []
    extra_deletions: List[Tuple[BasicBlock, Insn]] = []
    homes: Dict[int, BasicBlock] = {}
    hoisted_regs: Set[Reg] = set()

    # Multi-def case first: when *every* definition of a register in the
    # loop is the identical invariant, non-trapping assignment (a common
    # result of replicating loop entries — e.g. address formation repeated
    # in two rotated-loop headers), hoist one copy and delete the rest.
    multi = _identical_invariant_defs(loop, defs, loop_writes_mem, header_live_in)
    for reg, (keeper, keeper_block, duplicates) in multi.items():
        candidates.append(keeper)
        homes[id(keeper)] = keeper_block
        hoisted_regs.add(reg)
        extra_deletions.extend(duplicates)

    for block in loop.members:
        for insn in block.insns:
            if not isinstance(insn, Assign) or not isinstance(insn.dst, Reg):
                continue
            reg = insn.dst
            if reg.bank in ("arg", "rv", "cc") or reg in hoisted_regs:
                continue
            if defs.get(reg, 0) != 1:
                continue
            src_regs = reg_set(insn.src)
            if any(r in defs or r in hoisted_regs for r in src_regs):
                continue  # operands vary within the loop
            if reg in src_regs:
                continue
            if _reads_mem(insn.src) and loop_writes_mem:
                continue
            if reg in header_live_in:
                continue  # the pre-loop value of reg is observable
            dominates_exits = all(
                dom.dominates(block, exit_block) for exit_block, _ in exits
            )
            if not dominates_exits:
                if _may_trap(insn.src):
                    continue
                live_at_exit = any(
                    reg in liveness.block_live_in(outside)
                    for _, outside in exits
                )
                if live_at_exit:
                    continue
            candidates.append(insn)
            homes[id(insn)] = block
            hoisted_regs.add(reg)

    if not candidates:
        return False
    preheader = ensure_preheader(func, loop)
    for insn in candidates:
        homes[id(insn)].insns.remove(insn)
        # Preheaders have no terminator, so appending keeps them valid.
        preheader.insns.append(insn)
    for block, duplicate in extra_deletions:
        block.insns.remove(duplicate)
    return True


def _identical_invariant_defs(
    loop: Loop,
    defs: Dict[Reg, int],
    loop_writes_mem: bool,
    header_live_in,
) -> Dict[Reg, Tuple[Insn, BasicBlock, List[Tuple[BasicBlock, Insn]]]]:
    """Registers whose in-loop defs are all the same invariant assignment.

    Returns, per register: the definition to hoist, its home block, and
    the duplicate definitions to delete.
    """
    sites: Dict[Reg, List[Tuple[BasicBlock, Insn]]] = {}
    for block in loop.members:
        for insn in block.insns:
            if isinstance(insn, Assign) and isinstance(insn.dst, Reg):
                sites.setdefault(insn.dst, []).append((block, insn))
    result: Dict[Reg, Tuple[Insn, BasicBlock, List[Tuple[BasicBlock, Insn]]]] = {}
    for reg, places in sites.items():
        if len(places) < 2 or reg.bank in ("arg", "rv", "cc"):
            continue
        if defs.get(reg, 0) != len(places):
            continue  # defined by non-Assign instructions too (e.g. Call)
        first_src = places[0][1].src
        if any(insn.src != first_src for _, insn in places[1:]):
            continue
        src_regs = reg_set(first_src)
        if reg in src_regs or any(r in defs for r in src_regs):
            continue
        if _may_trap(first_src):
            continue
        if _reads_mem(first_src) and loop_writes_mem:
            continue
        if reg in header_live_in:
            continue
        keeper_block, keeper = places[0]
        result[reg] = (keeper, keeper_block, places[1:])
    return result

"""The whole-function sanitizer, kept as a test oracle.

Before the sanitizer carried verdicts between checks, every check walked
the whole function: each instruction and expression tree, every edge,
and a set-based may-defined dataflow in depth-first stack order.  This is
that checker.  ``test_carried_verdicts.py`` asserts that the product
sanitizer, fresh or carrying state, lists the same problems in the same
order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cfg.block import BasicBlock, Function, Program
from repro.cfg.traversal import reverse_postorder
from repro.ease.runtime import is_builtin
from repro.rtl.expr import BinOp, Const, Expr, Local, Mem, Reg, Sym, UnOp
from repro.rtl.insn import (
    Assign,
    Call,
    Compare,
    CondBranch,
    IndirectJump,
    Insn,
    Jump,
    Nop,
    RELATIONS,
    Return,
)

__all__ = ["reference_sanitize"]

_KNOWN_BANKS = {"d", "a", "r", "v", "arg", "rv", "cc"}
_KNOWN_WIDTHS = {"B", "W", "L"}
_KNOWN_BINOPS = {"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}
_KNOWN_UNOPS = {"-", "~"}
_KNOWN_INSNS = (
    Assign,
    Compare,
    CondBranch,
    Jump,
    IndirectJump,
    Call,
    Return,
    Nop,
)


# --------------------------------------------------------------------------
# CFG invariants
# --------------------------------------------------------------------------


def _expected_edges(
    func: Function, problems: List[str]
) -> Dict[int, List[BasicBlock]]:
    """Recompute successor lists into a local table (no mutation)."""
    by_label: Dict[str, BasicBlock] = {}
    for block in func.blocks:
        if block.label in by_label:
            problems.append(f"duplicate label {block.label!r}")
        by_label[block.label] = block

    succs: Dict[int, List[BasicBlock]] = {}
    for index, block in enumerate(func.blocks):
        nxt = func.blocks[index + 1] if index + 1 < len(func.blocks) else None
        term = block.terminator
        expected: List[BasicBlock] = []

        def resolve(label: str) -> Optional[BasicBlock]:
            target = by_label.get(label)
            if target is None:
                problems.append(
                    f"block {block.label}: branch target {label!r} "
                    "resolves to no block (label table broken)"
                )
            return target

        if isinstance(term, Jump):
            target = resolve(term.target)
            if target is not None:
                expected.append(target)
        elif isinstance(term, CondBranch):
            if nxt is None:
                problems.append(
                    f"block {block.label}: conditional branch at the "
                    "function end has no fall-through block"
                )
            else:
                expected.append(nxt)
            target = resolve(term.target)
            if target is not None:
                expected.append(target)
        elif isinstance(term, Return):
            pass
        elif isinstance(term, IndirectJump):
            if not term.targets:
                problems.append(
                    f"block {block.label}: indirect jump with an empty "
                    "target table"
                )
            for label in term.targets:
                target = resolve(label)
                if target is not None:
                    expected.append(target)
        else:
            if nxt is not None:
                expected.append(nxt)
        succs[id(block)] = expected
    return succs


def _check_cfg(func: Function, problems: List[str]) -> None:
    if not func.blocks:
        problems.append("function has no blocks")
        return

    for block in func.blocks:
        for insn in block.insns[:-1]:
            if insn.is_transfer():
                problems.append(
                    f"block {block.label}: transfer {insn!r} not at block end"
                )

    last = func.blocks[-1]
    if last.falls_through():
        problems.append(
            f"final block {last.label} falls off the end of the function"
        )

    expected_succs = _expected_edges(func, problems)

    # Expected predecessor lists, rebuilt in compute_flow's append order.
    expected_preds: Dict[int, List[BasicBlock]] = {
        id(block): [] for block in func.blocks
    }
    for block in func.blocks:
        for succ in expected_succs[id(block)]:
            expected_preds[id(succ)].append(block)

    for block in func.blocks:
        want = expected_succs[id(block)]
        got = block.succs
        if len(want) != len(got) or any(a is not b for a, b in zip(want, got)):
            problems.append(
                f"block {block.label}: stale successors "
                f"{[s.label for s in got]} vs fresh "
                f"{[s.label for s in want]}"
            )
        want_p = expected_preds[id(block)]
        got_p = block.preds
        if len(want_p) != len(got_p) or any(
            a is not b for a, b in zip(want_p, got_p)
        ):
            problems.append(
                f"block {block.label}: stale predecessors "
                f"{[p.label for p in got_p]} vs fresh "
                f"{[p.label for p in want_p]}"
            )


def _check_edition_coherence(func: Function, problems: List[str]) -> None:
    """The AnalysisManager cache must agree with the current structure."""
    manager = getattr(func, "_analysis_manager", None)
    if manager is None:
        return
    if manager._edition > func.cfg_edition:
        problems.append(
            f"analysis cache edition {manager._edition} is ahead of "
            f"cfg_edition {func.cfg_edition}"
        )
        return
    if manager._edition != func.cfg_edition:
        return  # stale cache: will be rebuilt on next use; nothing to check
    layout = func.flow_layout
    if len(layout) != len(func.blocks) or any(
        a is not b for a, b in zip(layout, func.blocks)
    ):
        problems.append(
            f"block list {[b.label for b in func.blocks]} is not the layout "
            f"{[b.label for b in layout]} of cfg_edition "
            f"{func.cfg_edition} — a pass changed the layout without compute_flow"
        )
    cached_rpo = manager._cache.get("rpo")
    if cached_rpo is not None:
        fresh = reverse_postorder(func)
        if len(cached_rpo) != len(fresh) or any(
            a is not b for a, b in zip(cached_rpo, fresh)
        ):
            problems.append(
                "cached reverse postorder "
                f"{[b.label for b in cached_rpo]} disagrees with a fresh "
                f"recomputation {[b.label for b in fresh]} at the same "
                f"cfg_edition {func.cfg_edition} — a pass mutated the "
                "graph without compute_flow noticing"
            )
    cached_loops = manager._cache.get("loops")
    if cached_loops is not None:
        position = {id(block): i for i, block in enumerate(func.blocks)}
        for loop in cached_loops.loops:
            in_layout = sorted(
                (b for b in loop.blocks if id(b) in position),
                key=lambda b: position[id(b)],
            )
            if len(in_layout) != len(loop.members) or any(
                a is not b for a, b in zip(loop.members, in_layout)
            ):
                problems.append(
                    f"cached loop of {loop.header.label} lists members "
                    f"{[b.label for b in loop.members]}, the layout "
                    f"{[b.label for b in in_layout]}"
                )


# --------------------------------------------------------------------------
# RTL invariants
# --------------------------------------------------------------------------


def _check_expr(
    expr: Expr,
    func: Function,
    program: Optional[Program],
    faults: List[str],
) -> None:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Const):
            if not isinstance(node.value, int):
                faults.append(f"Const holds {node.value!r} (not int)")
        elif isinstance(node, Reg):
            if node.bank not in _KNOWN_BANKS:
                faults.append(f"unknown register bank {node.bank!r}")
            if not isinstance(node.index, int) or node.index < 0:
                faults.append(f"bad register index {node.index!r}")
        elif isinstance(node, Sym):
            if program is not None and node.name not in program.globals:
                faults.append(f"Sym {node.name!r} names no program global")
        elif isinstance(node, Local):
            if node.name not in func.frame:
                faults.append(f"Local {node.name!r} names no frame slot")
        elif isinstance(node, Mem):
            if node.width not in _KNOWN_WIDTHS:
                faults.append(f"bad memory width {node.width!r}")
            stack.append(node.addr)
        elif isinstance(node, BinOp):
            if node.op not in _KNOWN_BINOPS:
                faults.append(f"unknown binary operator {node.op!r}")
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, UnOp):
            if node.op not in _KNOWN_UNOPS:
                faults.append(f"unknown unary operator {node.op!r}")
            stack.append(node.operand)
        else:
            faults.append(f"unknown expression node {node!r}")


def _insn_faults(
    insn: Insn,
    func: Function,
    program: Optional[Program],
    post_regalloc: bool,
) -> List[str]:
    """The violations of one instruction, without their location."""
    if not isinstance(insn, _KNOWN_INSNS):
        return ["unknown instruction kind"]
    faults: List[str] = []
    if isinstance(insn, Assign):
        if not isinstance(insn.dst, (Reg, Mem)):
            faults.append(
                f"assignment destination {insn.dst!r} is neither Reg nor Mem"
            )
        elif isinstance(insn.dst, Mem) and insn.dst.width not in _KNOWN_WIDTHS:
            # The store's cell: its address is walked with the operands.
            faults.append(f"bad memory width {insn.dst.width!r}")
    if isinstance(insn, CondBranch) and insn.rel not in RELATIONS:
        faults.append(f"bad branch relation {insn.rel!r}")
    if isinstance(insn, Call):
        if (
            program is not None
            and insn.func not in program.functions
            and not is_builtin(insn.func)
        ):
            faults.append(f"call to unknown function {insn.func!r}")
    for expr in insn.used_exprs():
        _check_expr(expr, func, program, faults)
    if isinstance(insn, Assign) and isinstance(insn.dst, Reg):
        _check_expr(insn.dst, func, program, faults)
    if post_regalloc:
        regs = set(insn.used_regs())
        defined = insn.defined_reg()
        if defined is not None:
            regs.add(defined)
        for reg in regs:
            if reg.bank == "v":
                faults.append(
                    f"virtual register {reg!r} survived register allocation"
                )
    return faults


def _check_insns(
    func: Function,
    program: Optional[Program],
    post_regalloc: bool,
    problems: List[str],
) -> None:
    for block in func.blocks:
        for insn in block.insns:
            faults = _insn_faults(insn, func, program, post_regalloc)
            if faults:
                # The location costs a repr; build it only for a report.
                where = f"{block.label}/{insn!r}"
                problems.extend(f"{where}: {fault}" for fault in faults)


def _check_vreg_defined_before_use(func: Function, problems: List[str]) -> None:
    """Flag ``v``-bank uses that no definition reaches on any path.

    Only *reachable* blocks participate: a pass that proves a branch
    constant (``fold_branches``) may strand blocks until the next dead
    code sweep, and uses inside stranded blocks are vacuous.
    """
    if not func.blocks:
        return
    reachable: List[BasicBlock] = []
    seen: Set[int] = set()
    stack = [func.blocks[0]]
    while stack:
        block = stack.pop()
        if id(block) in seen:
            continue
        seen.add(id(block))
        reachable.append(block)
        stack.extend(block.succs)

    all_defs: Set[Reg] = set()
    for block in reachable:
        for insn in block.insns:
            defined = insn.defined_reg()
            if defined is not None and defined.bank == "v":
                all_defs.add(defined)
    if not all_defs:
        return

    # Forward may-defined dataflow over virtual registers only.
    may_in: Dict[int, Set[Reg]] = {id(block): set() for block in reachable}
    gen: Dict[int, Set[Reg]] = {}
    for block in reachable:
        defs: Set[Reg] = set()
        for insn in block.insns:
            defined = insn.defined_reg()
            if defined is not None and defined.bank == "v":
                defs.add(defined)
        gen[id(block)] = defs

    changed = True
    while changed:
        changed = False
        for block in reachable:
            out = may_in[id(block)] | gen[id(block)]
            for succ in block.succs:
                before = may_in[id(succ)]
                merged = before | out
                if len(merged) != len(before):
                    may_in[id(succ)] = merged
                    changed = True

    for block in reachable:
        available = set(may_in[id(block)])
        for insn in block.insns:
            for reg in insn.used_regs():
                if (
                    reg.bank == "v"
                    and reg in all_defs
                    and reg not in available
                ):
                    problems.append(
                        f"{block.label}/{insn!r}: virtual register {reg!r} "
                        "used before any definition can reach it "
                        "(on every path)"
                    )
            defined = insn.defined_reg()
            if defined is not None and defined.bank == "v":
                available.add(defined)


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def reference_sanitize(
    func: Function,
    program: Optional[Program] = None,
    post_regalloc: bool = False,
) -> List[str]:
    """Every violated invariant of ``func``, from scratch, in report order."""
    problems: List[str] = []
    _check_cfg(func, problems)
    _check_edition_coherence(func, problems)
    _check_insns(func, program, post_regalloc, problems)
    _check_vreg_defined_before_use(func, problems)
    return problems

"""The structural sanitizer: CFG and RTL invariants, checked without mutation.

This is the cheap half of translation validation.  After every optimizer
pass (and after every JUMPS/LOOPS replication sweep) the sanitizer walks
one function and verifies every invariant the rest of the system leans
on.  It is the one CFG checker, and it never mutates the function —
edges are recomputed into local tables and *compared*, so a sanitizer
run can be interposed anywhere (including inside a bisection replay)
without perturbing the very state it is checking.

Invariant groups
----------------

CFG:

* the function has blocks, block labels are unique;
* only the final instruction of a block is a control transfer;
* the final block does not fall off the end of the function;
* every branch target resolves to a block of the function (label-table
  integrity; ``IndirectJump`` tables are non-empty);
* a block ending in a conditional branch has a positional successor;
* predecessor/successor lists match a fresh (non-mutating) edge
  recomputation by :func:`repro.cfg.graph.successors` exactly — same
  blocks, same order;
* ``cfg_edition`` coherence: the :class:`~repro.cfg.analyses.AnalysisManager`
  attached to the function must not be *ahead* of the function's
  edition; at the current edition the block list must be the one
  ``compute_flow`` last saw (``Function.flow_layout``), a cached reverse
  postorder must match a fresh one and cached loop members follow the
  layout (a pass that changed layout or edges without ``compute_flow``
  shows up here).

RTL:

* every instruction/expression node is a known kind with well-formed
  operands (register banks, memory widths, operators, branch relations);
* ``Local`` references name a frame slot, ``Sym`` references a program
  global, ``Call`` targets a program function or interpreter builtin
  (when the program context is supplied);
* defined-before-use for virtual registers: a use of a ``v``-bank
  register that **no** definition can reach along *any* path is flagged
  (may-reach dataflow; virtual registers with no definition anywhere are
  exempt — they model source variables read before first assignment,
  which the zero-initialised machine defines as 0);
* post-regalloc: no ``v``-bank register survives colouring.

Carried verdicts
----------------

A :class:`Sanitizer` serves one run and re-checks only what differs, by
identity (``is``), from a function's last *clean* check.  It finds an
expression node's faults once per run (``Local``/``Sym`` names are looked
up each time), skips an instruction whose fields are the objects they
were unless its context (post-regalloc flag, frame slot, global and
function names) changed, reuses a block's ``v``-register bitsets while its
instructions are unchanged, and recomputes no edge while every block
keeps its position, label, ``preds``, ``succs`` and terminator (a final
instruction that is a transfer before or after the change).
Carried state was clean and holds its objects (no identity is reused), so
a check reports what a fresh one does, in order; an unchanged one is skipped.
"""

from __future__ import annotations

from operator import attrgetter, is_
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..cfg.block import BasicBlock, Function, Program
from ..cfg.graph import successors
from ..cfg.traversal import reverse_postorder
from ..ease.runtime import is_builtin
from ..rtl.expr import BinOp, Const, Expr, Local, Mem, Reg, Sym, UnOp
from ..rtl.insn import (
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
from .errors import SanitizeError

__all__ = ["Sanitizer", "sanitize_function", "check_sanitized"]

_KNOWN_BANKS = {"d", "a", "r", "v", "arg", "rv", "cc"}
_KNOWN_WIDTHS = {"B", "W", "L"}
_KNOWN_BINOPS = {"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}
_KNOWN_UNOPS = {"-", "~"}
_KNOWN_INSNS = (Assign, Compare, CondBranch, Jump, IndirectJump, Call, Return, Nop)


def _same(old: Sequence[object], new: Sequence[object]) -> bool:
    """True when two sequences hold the same objects (``is``) in order."""
    return len(old) == len(new) and all(map(is_, old, new))


# --------------------------------------------------------------------------
# CFG invariants
# --------------------------------------------------------------------------


def _check_cfg(
    func: Function, problems: List[str], bodies: Sequence[BasicBlock], edges: bool
) -> None:
    """Check the CFG; only ``bodies`` for transfers, and the edges if ``edges``."""
    if not func.blocks:
        problems.append("function has no blocks")
        return

    for block in bodies:
        for insn in block.insns[:-1]:
            if insn.is_transfer():
                problems.append(
                    f"block {block.label}: transfer {insn!r} not at block end"
                )

    # A final conditional branch is reported once, by the edge rule.
    last = func.blocks[-1]
    if last.terminator is None:
        problems.append(
            f"final block {last.label} falls off the end of the function"
        )

    if not edges:
        return
    expected_succs = successors(func.blocks, problems)

    # Expected predecessor lists, rebuilt in compute_flow's append order.
    expected_preds: Dict[int, List[BasicBlock]] = {
        id(block): [] for block in func.blocks
    }
    for block, succs in zip(func.blocks, expected_succs):
        for succ in succs:
            expected_preds[id(succ)].append(block)

    for block, want in zip(func.blocks, expected_succs):
        got = block.succs
        if not _same(want, got):
            problems.append(
                f"block {block.label}: stale successors "
                f"{[s.label for s in got]} vs fresh "
                f"{[s.label for s in want]}"
            )
        want_p = expected_preds[id(block)]
        got_p = block.preds
        if not _same(want_p, got_p):
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
    if not _same(func.flow_layout, func.blocks):
        problems.append(
            f"block list {[b.label for b in func.blocks]} is not the layout "
            f"{[b.label for b in func.flow_layout]} of cfg_edition "
            f"{func.cfg_edition} — a pass changed the layout without compute_flow"
        )
    cached_rpo = manager._cache.get("rpo")
    if cached_rpo is not None:
        fresh = reverse_postorder(func)
        if not _same(cached_rpo, fresh):
            problems.append(
                "cached reverse postorder "
                f"{[b.label for b in cached_rpo]} disagrees with a fresh "
                f"recomputation {[b.label for b in fresh]} at the same "
                f"cfg_edition {func.cfg_edition} — a pass mutated the "
                "graph without compute_flow noticing"
            )
    cached_loops = manager._cache.get("loops")
    for loop in cached_loops.loops if cached_loops is not None else ():
        in_layout = [block for block in func.blocks if block in loop.blocks]
        if not _same(loop.members, in_layout):
            problems.append(
                f"cached loop of {loop.header.label} lists members "
                f"{[b.label for b in loop.members]}, the layout "
                f"{[b.label for b in in_layout]}"
            )


# --------------------------------------------------------------------------
# RTL invariants
# --------------------------------------------------------------------------


def _expr_facts(node: Expr, memo: Dict[Expr, tuple]) -> tuple:
    """The faults of ``node``'s tree, found once per interned node.

    In right-operand-first pre-order: messages, and ``(Local | Sym, name)``
    pairs, faults unless the frame or the program has the name.
    """
    facts = memo.get(node) if isinstance(node, Expr) else None
    if facts is not None:
        return facts
    facts = ()
    if isinstance(node, Const):
        if not isinstance(node.value, int):
            facts = (f"Const holds {node.value!r} (not int)",)
    elif isinstance(node, Reg):
        if node.bank not in _KNOWN_BANKS:
            facts += (f"unknown register bank {node.bank!r}",)
        if not isinstance(node.index, int) or node.index < 0:
            facts += (f"bad register index {node.index!r}",)
    elif isinstance(node, (Sym, Local)):
        facts = ((node.__class__, node.name),)
    elif isinstance(node, Mem):
        if node.width not in _KNOWN_WIDTHS:
            facts = (f"bad memory width {node.width!r}",)
        facts += _expr_facts(node.addr, memo)
    elif isinstance(node, BinOp):
        if node.op not in _KNOWN_BINOPS:
            facts = (f"unknown binary operator {node.op!r}",)
        facts += _expr_facts(node.right, memo) + _expr_facts(node.left, memo)
    elif isinstance(node, UnOp):
        if node.op not in _KNOWN_UNOPS:
            facts = (f"unknown unary operator {node.op!r}",)
        facts += _expr_facts(node.operand, memo)
    else:
        return (f"unknown expression node {node!r}",)
    memo[node] = facts
    return facts


def _insn_faults(
    insn: Insn,
    func: Function,
    program: Optional[Program],
    post_regalloc: bool,
    memo: Dict[Expr, tuple],
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
    exprs = insn.used_exprs()
    if isinstance(insn, Assign) and isinstance(insn.dst, Reg):
        exprs += (insn.dst,)
    for expr in exprs:
        for item in _expr_facts(expr, memo):
            if isinstance(item, str):
                faults.append(item)
            elif item[0] is Local:
                if item[1] not in func.frame:
                    faults.append(f"Local {item[1]!r} names no frame slot")
            elif program is not None and item[1] not in program.globals:
                faults.append(f"Sym {item[1]!r} names no program global")
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


#: A block's ``v``-register bitsets: those it defines, and reads first.
_Summary = Tuple[int, int]


def _summary(
    insns: Sequence[Insn], bits: Dict[Reg, int], defs: int = 0, uses: Any = None
) -> _Summary:
    """Scan ``insns``; ``uses`` collects each ``(insn, reg, bit)`` undefined."""
    exposed = 0
    for insn in insns:
        for reg in insn.used_regs():
            if reg.bank == "v":
                bit = bits.setdefault(reg, 1 << len(bits))
                if not bit & defs:
                    exposed |= bit
                    if uses is not None:
                        uses.append((insn, reg, bit))
        reg = insn.defined_reg()
        if reg is not None and reg.bank == "v":
            defs |= bits.setdefault(reg, 1 << len(bits))
    return defs, exposed


def _check_vreg_defined_before_use(
    func: Function,
    summaries: Dict[BasicBlock, _Summary],
    bits: Dict[Reg, int],
    problems: List[str],
) -> None:
    """Flag ``v``-bank uses that no definition reaches on any path.

    Only *reachable* blocks participate: a pass that proves a branch
    constant (``fold_branches``) may strand blocks until the next dead
    code sweep, and uses inside stranded blocks are vacuous.  The
    may-defined sets are solved by a worklist in reverse postorder;
    problems are reported in the order of a depth-first stack walk.
    """
    if not func.blocks:
        return
    order = reverse_postorder(func)
    all_defs = 0
    for block in order:
        if block not in summaries:  # reached through a stale edge only
            summaries[block] = _summary(block.insns, bits)
        all_defs |= summaries[block][0]
    index = {block: i for i, block in enumerate(order)}
    may_in = [0] * len(order)
    pending = (1 << len(order)) - 1 if all_defs else 0  # bit i: order[i]
    while pending:
        low = pending & -pending
        pending ^= low
        i = low.bit_length() - 1
        out = may_in[i] | summaries[order[i]][0]
        for succ in order[i].succs:
            j = index[succ]
            if out & ~may_in[j]:
                may_in[j] |= out
                pending |= 1 << j
    if not any(summaries[b][1] & all_defs & ~may_in[i] for i, b in enumerate(order)):
        return
    seen, stack = set(), [func.blocks[0]]
    while stack:
        block = stack.pop()
        if block not in seen:
            seen.add(block)
            stack.extend(block.succs)
            uses: list = []
            _summary(block.insns, bits, may_in[index[block]], uses)
            problems.extend(
                f"{block.label}/{insn!r}: virtual register {reg!r} used before "
                "any definition can reach it (on every path)"
                for insn, reg, bit in uses
                if bit & all_defs
            )


# --------------------------------------------------------------------------
# Carried verdicts
# --------------------------------------------------------------------------

#: Closes every variable-length run in a walk (no two layouts flatten alike).
_END = object()


class _FieldGetters(dict):
    """Per instruction class, a function returning every slot of one."""

    def __missing__(self, cls: type) -> Callable[[Insn], Tuple[object, ...]]:
        names = [
            name
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
        ]
        getter: Callable[[Insn], Tuple[object, ...]]
        if not names:
            getter = lambda insn: ()  # noqa: E731
        elif len(names) == 1:
            name = names[0]
            getter = lambda insn: (getattr(insn, name),)  # noqa: E731
        else:
            getter = attrgetter(*names)
        if issubclass(cls, IndirectJump):
            # The one list-valued field: its labels count elementwise.
            fields = getter
            getter = lambda insn: (*fields(insn), *insn.targets, _END)  # noqa: E731
        self[cls] = getter
        return getter


_FIELD_GETTERS = _FieldGetters()

#: A block's span in a walk: start, first instruction, last one, end.
_Span = Tuple[int, int, int, int]


def _walk(func: Function) -> Tuple[List[object], Dict[BasicBlock, _Span]]:
    """All the sanitizer reads of ``func`` but its context, and block spans.

    That is ``cfg_edition``, ``flow_layout``, the analysis manager, its
    edition, and per block the block, label, ``preds``, ``succs``, and
    each instruction and its fields.  Not the cached RPO and loops: a
    cache fills only from the current graph at the current edition, and
    every graph change is in the walk, so a fill alone is no change.
    """
    manager = getattr(func, "_analysis_manager", None)
    walk: List[object] = [func.cfg_edition, func.flow_layout, manager]
    if manager is not None:
        walk.append(manager._edition)
    spans: Dict[BasicBlock, _Span] = {}
    getters = _FIELD_GETTERS
    for block in func.blocks:
        start = len(walk)
        walk += (block, block.label, *block.preds, _END, *block.succs, _END)
        body = tail = len(walk)
        for insn in block.insns:
            tail = len(walk)
            walk.append(insn)
            walk += getters[insn.__class__](insn)
        spans[block] = (start, body, tail, len(walk))
        walk.append(_END)
    return walk, spans


def _ends_in_transfer(walk: Sequence[object], span: _Span) -> bool:
    """Does the block whose span in ``walk`` is ``span`` end in a transfer?"""
    tail, end = span[2], span[3]
    return tail < end and walk[tail].is_transfer()


class _Clean(NamedTuple):
    """What a function's last clean check established."""

    context: Sequence[object]
    walk: Sequence[object]
    spans: Dict[BasicBlock, _Span]  # in block order
    summaries: Dict[BasicBlock, _Summary]
    verdicts: Dict[Insn, Tuple[object, ...]]  # a clean instruction's fields


_NEVER = _Clean((), (), {}, {}, {})


class Sanitizer:
    """One run's sanitizer, carrying verdicts (above) from clean checks."""

    def __init__(self) -> None:
        self._facts: Dict[Expr, tuple] = {}
        self._bits: Dict[Reg, int] = {}
        self._clean: Dict[str, _Clean] = {}

    def check(
        self,
        func: Function,
        program: Optional[Program] = None,
        post_regalloc: bool = False,
    ) -> Optional[List[str]]:
        """``func``'s violations as a fresh check lists them (empty: clean).

        ``None`` when nothing the sanitizer reads changed since the
        function's last clean check.  Never mutates the function.
        """
        context: List[object] = [func, post_regalloc, program, *func.frame, _END]
        if program is not None:
            context += (*program.globals, _END, *program.functions, _END)
        walk, spans = _walk(func)
        last = self._clean.get(func.name, _NEVER)
        same_context = _same(last.context, context)
        if same_context and _same(last.walk, walk):
            return None

        old_walk = last.walk
        summaries: Dict[BasicBlock, _Summary] = {}
        changed = set()  # blocks whose instructions or their fields changed
        # Does each block keep its position, label, edges and terminator?
        same_cfg = _same(list(last.spans), func.blocks)
        for block, span in spans.items():
            start, body, tail, end = span
            old = last.spans.get(block)
            if old is not None and _same(old_walk[old[1] : old[3]], walk[body:end]):
                summaries[block] = last.summaries[block]
            else:
                changed.add(block)
                summaries[block] = _summary(block.insns, self._bits)
            same_cfg = same_cfg and _same(old_walk[old[0] : old[1]], walk[start:body])
            # A changed final instruction that is no transfer, before or
            # after, leaves the block falling through: no edge depends on it.
            if same_cfg and not _same(old_walk[old[2] : old[3]], walk[tail:end]):
                same_cfg = not (
                    _ends_in_transfer(old_walk, old) or _ends_in_transfer(walk, span)
                )

        problems: List[str] = []
        bodies = [block for block in func.blocks if block in changed]
        _check_cfg(func, problems, bodies, not same_cfg)
        _check_edition_coherence(func, problems)
        verdicts = last.verdicts if same_context else {}
        checked = []
        for block in func.blocks:
            if same_context and block not in changed:
                continue
            for insn in block.insns:
                fields = _FIELD_GETTERS[insn.__class__](insn)
                clean = verdicts.get(insn)
                if clean is not None and _same(clean, fields):
                    continue
                checked.append((insn, fields))
                faults = _insn_faults(insn, func, program, post_regalloc, self._facts)
                # The location costs a repr; build it only for a report.
                problems.extend(f"{block.label}/{insn!r}: {f}" for f in faults)
        if not same_cfg or any(summaries[b] != last.summaries[b] for b in changed):
            _check_vreg_defined_before_use(func, summaries, self._bits, problems)

        if not problems:
            verdicts.update(checked)
            self._clean[func.name] = _Clean(context, walk, spans, summaries, verdicts)
        return problems


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def sanitize_function(
    func: Function,
    program: Optional[Program] = None,
    post_regalloc: bool = False,
) -> List[str]:
    """Collect every violated invariant of ``func`` (empty list = clean).

    A from-scratch check: one check on a fresh :class:`Sanitizer`.  Never
    mutates the function; safe to interpose after any pass.
    """
    return Sanitizer().check(func, program, post_regalloc) or []


def check_sanitized(
    func: Function,
    stage: str,
    program: Optional[Program] = None,
    post_regalloc: bool = False,
) -> None:
    """Raise :class:`SanitizeError` naming ``stage`` if ``func`` is dirty."""
    problems = sanitize_function(func, program, post_regalloc)
    if problems:
        raise SanitizeError(func.name, stage, problems)

"""The compiled EASE execution engine: RTL → Python code objects.

The closure interpreter (:class:`~repro.ease.interp.Interpreter`) pays
one Python call per executed RTL plus one per block terminator.  This
module removes both: each function is translated *once* into the source
of a single Python function — straight-line basic blocks fused into
runs of plain statements, registers promoted to Python locals, branches
lowered to a ``while`` dispatch loop over a binary decision tree keyed
on block index — and ``compile()``d into one code object.  Executing a
block then costs inline local-variable arithmetic instead of a closure
call per RTL.

Semantics are the interpreter's, by construction:

* every arithmetic template mirrors :func:`repro.rtl.arith.eval_binop`
  exactly (32-bit wrap-around inlined branch-free, shift counts masked
  with the declared ``Machine.shift_mask`` model, C-style division via
  the *same* ``_div_trunc``/``_rem_trunc`` helpers);
* step accounting debits one block-step at every basic-block entry —
  including blocks fused into a predecessor's dispatch arm — so
  :class:`StepLimitExceeded` fires on exactly the same executed block
  as the interpreter (regression-tested at the limit boundary);
* per-block execution counts and the block-level trace stream are
  emitted at block entry in execution order, so a traced run feeds the
  existing :class:`~repro.ease.trace.RleTraceSink` a byte-identical
  stream and every Table-5/6 number is unchanged;
* calls flush promoted registers back to the machine state, delegate to
  the interpreter's ``_do_call`` (callee-save snapshot, builtins, stack
  checks), and reload only ``rv`` — exactly the callee-save contract.

Functions the compiler declines — pathologically large block counts
(the 4000-block replication-valve shapes), empty bodies, or any
codegen surprise — fall back *per function* to the interpreter's
threaded-code path, with a decision-log event and an
``ease.compile.fallbacks`` metric recording the reason; the two engines
interoperate freely through ``_do_call`` within one run.

Product measurement runs on this engine only
(:func:`make_interpreter`).  The closure interpreter stays the
verification oracle's engine and the differential reference
(`tests/ease/test_compiled_parity.py` is the parity gate).
"""

from __future__ import annotations

from struct import pack_into as _pack_into
from struct import unpack_from as _unpack_from
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..cfg.block import Function, Program
from ..obs import ReplicationDecision
from ..obs import active as _active_observer
from ..rtl.arith import SHIFT_MASK, _div_trunc, _rem_trunc, wrap32
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
    Return,
)
from .interp import Interpreter, StepLimitExceeded
from .runtime import call_builtin, is_builtin

__all__ = [
    "CompiledInterpreter",
    "CompileDeclined",
    "make_interpreter",
    "MAX_COMPILED_BLOCKS",
]

#: Functions with more basic blocks than this are declined and fall
#: back to the interpreter: generating and ``compile()``ing a dispatch
#: body for a replication-valve-sized CFG costs more than it saves.
MAX_COMPILED_BLOCKS = 1024

_WRAP_LO = -(1 << 31)


def make_interpreter(program: Program, **kwargs) -> CompiledInterpreter:
    """Build the measurement engine for ``program``.

    Keyword arguments go to the constructor (``max_steps``, ``trace``).
    """
    return CompiledInterpreter(program, **kwargs)


class CompileDeclined(Exception):
    """Internal: this function shape should use the interpreter instead."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


def _is_atom(text: str) -> bool:
    """True for expression strings safe to duplicate (names, literals)."""
    return text.isidentifier() or text.isdigit() or (
        text.startswith("(-") and text.endswith(")") and text[2:-1].isdigit()
    )


def _static_footprint(func: Function) -> List[Tuple[str, int]]:
    """Every register ``func`` touches, minus rv — its callee-save set.

    Derivable from the RTL alone (no compilation needed), and identical
    to the compiled function's promoted-register set: a direct call
    site uses it to save/restore exactly the slots the callee can
    disturb.
    """
    seen: Dict[Tuple[str, int], None] = {}
    for block in func.blocks:
        for insn in block.insns:
            for reg in insn.used_regs():
                seen[(reg.bank, reg.index)] = None
            defined = insn.defined_reg()
            if defined is not None:
                seen[(defined.bank, defined.index)] = None
    seen.pop(("rv", 0), None)
    return list(seen)


class _FunctionCompiler:
    """Generates the Python source of one function's execution body."""

    def __init__(
        self,
        interp: "CompiledInterpreter",
        func: Function,
        traced: bool,
    ) -> None:
        self.interp = interp
        self.func = func
        self.traced = traced
        self.temp_counter = 0
        #: (bank, index) pairs referenced by the function, collected by a
        #: whole-function pre-scan *before* codegen — loaded into locals
        #: on entry, flushed at call sites and on exit.  The scan must be
        #: complete up front: a call site flushes every cached register,
        #: and codegen order is not execution order.
        self.regs_used: Dict[Tuple[str, int], None] = {}
        self.banks_used: Dict[str, None] = {}
        #: Block indices actually emitted (reachable); only these get
        #: execution counters.
        self.emitted: Set[int] = set()
        self.blocks_fused = 0
        self.uses_unpack = False
        self.uses_pack = False
        self.uses_call = False
        self.uses_builtin = False
        #: Reverse map of register locals, for compare/branch fusion.
        self._local_names: Dict[str, Tuple[str, int]] = {}
        #: Per-block: is cc live after the block's terminator?
        self.cc_live_out: List[bool] = []
        #: The current block's fusable Compare (see :meth:`block_body`).
        self._fuse_insn: Optional[Insn] = None
        self._fused_operands: Optional[Tuple[str, str]] = None
        #: Registers redefined between the fused Compare and its branch.
        self._fuse_written: Set[Tuple[str, int]] = set()
        #: Callee names referenced as ``_x_{name}`` globals; the compile
        #: pass injects the executors after every function is compiled.
        self.direct_calls: Dict[str, None] = {}

    # ------------------------------------------------------------ helpers

    def _temp(self) -> str:
        self.temp_counter += 1
        return f"_t{self.temp_counter}"

    def _reg(self, bank: str, index: int) -> str:
        self.regs_used[(bank, index)] = None
        self.banks_used[bank] = None
        name = f"_R_{bank}_{index}"
        self._local_names[name] = (bank, index)
        return name

    def _wrap_pre(self, text: str, pre: List[str]) -> str:
        """Signed-32 wrap of ``text`` as statements; returns the temp.

        Statement form — mask, then a rarely-taken sign-fix branch —
        measures faster than the branch-free ``((x + 2^31) & mask) -
        2^31`` expression, and matches :func:`wrap32` bit for bit.
        """
        temp = self._temp()
        pre.append(f"{temp} = {text} & 4294967295")
        pre.append(f"if {temp} >= 2147483648: {temp} -= 4294967296")
        return temp

    def _bind(self, text: str, pre: List[str]) -> str:
        """Materialize a non-atomic expression into a temp."""
        if _is_atom(text):
            return text
        temp = self._temp()
        pre.append(f"{temp} = {text}")
        return temp

    # ------------------------------------------------------------ expressions

    def expr(self, node: Expr, pre: List[str]) -> str:
        """Python source for ``node``; prelude statements go to ``pre``."""
        if isinstance(node, Const):
            value = node.value
            if not _WRAP_LO <= value < -_WRAP_LO:
                # The interpreter carries out-of-range constants through
                # eval_binop's per-op wrapping; our inline templates
                # assume in-range operands, so decline rather than risk
                # a divergence (the front end never emits these).
                raise CompileDeclined("constant outside signed-32 range")
            return str(value) if value >= 0 else f"(-{-value})"
        if isinstance(node, Reg):
            return self._reg(node.bank, node.index)
        if isinstance(node, Sym):
            # Link-time constant; the base constructor already resolved
            # every symbol (unknown ones raised there).
            return str(self.interp.symaddr[node.name])
        if isinstance(node, Local):
            offset = self.func.frame[node.name][0]
            return "fp" if offset == 0 else f"(fp + {offset})"
        if isinstance(node, Mem):
            addr = self.expr(node.addr, pre)
            if node.width == "B":
                return f"mem[{addr}]"
            # One struct call replaces the interpreter's per-byte
            # assembly: ``<H`` is its unsigned word read, ``<i`` its
            # sign-fixed long read, bit for bit.
            self.uses_unpack = True
            if node.width == "W":
                return f"_up('<H', mem, {addr})[0]"
            return f"_up('<i', mem, {addr})[0]"
        if isinstance(node, BinOp):
            left = self.expr(node.left, pre)
            right = self.expr(node.right, pre)
            op = node.op
            if op in ("+", "-", "*"):
                return self._wrap_pre(f"({left}) {op} ({right})", pre)
            if op in ("&", "|", "^"):
                # Bitwise ops on in-range signed-32 values stay in range.
                return f"(({left}) {op} ({right}))"
            if op == "<<":
                return self._wrap_pre(
                    f"({left}) << (({right}) & {SHIFT_MASK})", pre
                )
            if op == ">>":
                # Arithmetic shift of an in-range value stays in range.
                return f"(({left}) >> (({right}) & {SHIFT_MASK}))"
            if op == "/":
                if isinstance(node.right, Const) and node.right.value > 0:
                    # Truncating division by a known positive divisor
                    # inlines branchily; the quotient magnitude cannot
                    # exceed |dividend|, so no wrap is needed.
                    value = self._bind(left, pre)
                    c = node.right.value
                    return (
                        f"(-((-{value}) // {c}) if {value} < 0"
                        f" else {value} // {c})"
                    )
                return self._wrap_pre(f"_div(({left}), ({right}))", pre)
            if op == "%":
                # |remainder| < |divisor| <= 2^31, already in range.
                if isinstance(node.right, Const) and node.right.value > 0:
                    value = self._bind(left, pre)
                    c = node.right.value
                    return (
                        f"({value} % {c} if {value} >= 0"
                        f" else -((-{value}) % {c}))"
                    )
                return f"_rem(({left}), ({right}))"
            raise CompileDeclined(f"unknown binary operator {op!r}")
        if isinstance(node, UnOp):
            operand = self.expr(node.operand, pre)
            if node.op == "-":
                return self._wrap_pre(f"-({operand})", pre)
            if node.op == "~":
                return f"(~({operand}))"
            raise CompileDeclined(f"unknown unary operator {node.op!r}")
        raise CompileDeclined(f"cannot compile expression {node!r}")

    # ------------------------------------------------------------ instructions

    def insn(self, node: Insn, out: List[str]) -> None:
        if isinstance(node, Assign):
            pre: List[str] = []
            src = self.expr(node.src, pre)
            if isinstance(node.dst, Reg):
                out.extend(pre)
                out.append(f"{self._reg(node.dst.bank, node.dst.index)} = {src}")
                return
            addr = self.expr(node.dst.addr, pre)
            width = node.dst.width
            out.extend(pre)
            if width == "B":
                out.append(f"mem[{addr}] = ({src}) & 255")
                return
            # Single struct call; the masked value matches the
            # interpreter's byte-by-byte little-endian store exactly.
            self.uses_pack = True
            if width == "W":
                out.append(f"_pk('<H', mem, {addr}, ({src}) & 65535)")
                return
            out.append(f"_pk('<I', mem, {addr}, ({src}) & 4294967295)")
            return
        if isinstance(node, Compare):
            pre = []
            left = self.expr(node.left, pre)
            right = self.expr(node.right, pre)
            out.extend(pre)
            if node is self._fuse_insn:
                left = self._fuse_operand(left, self._fuse_written, out)
                right = self._fuse_operand(right, self._fuse_written, out)
                self._fused_operands = (left, right)
                return
            left = self._bind(left, out)
            right = self._bind(right, out)
            cc = self._reg("cc", 0)
            out.append(f"{cc} = ({left} > {right}) - ({left} < {right})")
            return
        if isinstance(node, Call):
            rv = self._reg("rv", 0)  # calls define rv
            name = node.func
            if name not in self.interp._functions and is_builtin(name):
                # Builtins read the arg bank (plus memory/stdio, which
                # are always current) and write rv directly — no
                # callee-save snapshot, no step accounting, exactly the
                # interpreter's builtin fast path.  Flush only the
                # cached arg registers and keep rv in its local.
                self.uses_builtin = True
                for (bank, index) in self.regs_used:
                    if bank == "arg":
                        out.append(f"_K_{bank}[{index}] = _R_{bank}_{index}")
                out.append(f"{rv} = _w32(_builtin(state, {name!r}, {node.nargs}))")
                return
            # Flush every promoted register so the callee sees current
            # state; the callee-save contract then guarantees each bank
            # except rv is back to the flushed value on return — reload
            # only rv.
            self.uses_call = True
            for (bank, index) in self.regs_used:
                out.append(f"_K_{bank}[{index}] = _R_{bank}_{index}")
            callee = self.interp.program.functions.get(name)
            if callee is not None:
                # Direct compiled-to-compiled call: the whole _do_call
                # protocol inlined, with the step budget threaded as a
                # parameter instead of four attribute accesses.  Only
                # the callee's footprint registers the caller does NOT
                # cache need bank saves: cached slots were just flushed
                # (their locals stay authoritative — the next consumer
                # of any cached slot re-flushes first), and a compiled
                # callee's bank delta is confined to its own footprint
                # plus rv.  ``_x_{name}`` is injected after the compile
                # pass; ``None`` (fallback callee) takes the generic
                # path.
                self.direct_calls[name] = None
                footprint = _static_footprint(callee)
                saves = [
                    (self._temp(), bank, index)
                    for bank, index in footprint
                    if (bank, index) not in self.regs_used
                ]
                for _temp, bank, _index in saves:
                    self.banks_used[bank] = None  # preamble binds _K_{bank}
                out.append(f"if _x_{name} is not None:")
                for temp, bank, index in saves:
                    out.append(f"    {temp} = _K_{bank}[{index}]")
                out.append(f"    _fb = state.fp - {callee.frame_size + 32}")
                out.append("    if _fb <= state.heap_ptr:")
                out.append(
                    "        raise MemoryError('interpreted stack overflow')"
                )
                out.append("    _ncalls += 1")
                out.append(
                    f"    _steps = _x_{name}(interp, state, result, _fb, _steps)"
                )
                for temp, bank, index in saves:
                    out.append(f"    _K_{bank}[{index}] = {temp}")
                out.append("else:")
                out.append("    interp._steps_left = _steps")
                out.append(f"    _call(state, {name!r}, {node.nargs})")
                out.append("    _steps = interp._steps_left")
            else:
                out.append("interp._steps_left = _steps")
                out.append(f"_call(state, {name!r}, {node.nargs})")
                out.append("_steps = interp._steps_left")
            out.append(f"{rv} = _K_rv[0]")
            return
        if isinstance(node, Nop):
            return  # counted via the block, no effect
        raise CompileDeclined(f"cannot compile instruction {node!r}")

    # ------------------------------------------------------------ blocks

    @staticmethod
    def _reads_cc(insn: Insn) -> bool:
        """Conservative: does executing ``insn`` observe cc?

        Calls count as readers — the callee inherits the caller's banks
        under the callee-save model and could branch on the inherited
        condition codes before setting them.
        """
        if isinstance(insn, Call):
            return True
        return any(
            reg.bank == "cc" and reg.index == 0 for reg in insn.used_regs()
        )

    @staticmethod
    def _writes_cc(insn: Insn) -> bool:
        defined = insn.defined_reg()
        return defined is not None and defined.bank == "cc" and defined.index == 0

    def _cc_liveness(self) -> List[bool]:
        """Per block: is cc read on some path after the terminator?

        Backward dataflow over the function CFG with the single cc
        register.  Returns (live out of a function) are ``False`` — the
        caller's condition codes are restored by the call protocol.
        """
        blocks = self.func.blocks
        n = len(blocks)
        index_of = {block.label: i for i, block in enumerate(blocks)}
        succs: List[List[int]] = []
        summary: List[Tuple[bool, bool]] = []  # (reads before write, writes)
        for i, block in enumerate(blocks):
            term = block.terminator
            s: List[int] = []
            if term is None:
                if i + 1 < n:
                    s.append(i + 1)
            elif isinstance(term, Jump):
                s.append(index_of[term.target])
            elif isinstance(term, CondBranch):
                s.append(index_of[term.target])
                if i + 1 < n:
                    s.append(i + 1)
            elif isinstance(term, IndirectJump):
                s.extend(index_of[label] for label in term.targets)
            succs.append(s)
            reads = writes = False
            for insn in block.insns:
                if self._reads_cc(insn):
                    reads = True
                    break
                if self._writes_cc(insn):
                    writes = True
                    break
            summary.append((reads, writes))
        live_in = [False] * n
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                reads, writes = summary[i]
                out = any(live_in[s] for s in succs[i])
                new = reads or (out and not writes)
                if new != live_in[i]:
                    live_in[i] = new
                    changed = True
        return [any(live_in[s] for s in succs[i]) for i in range(n)]

    def _fusable_compare(self, index: int) -> Optional[Insn]:
        """The block's last Compare, if its cc def dies at the branch.

        Fusable when the last cc writer in the block is a Compare and
        nothing after it observes cc except the block's own terminator
        (served directly by the fused relation test), with cc dead out
        of the block.  The generated code then tests the operands
        directly and skips materializing the sign value.
        """
        if self.cc_live_out[index]:
            return None
        block = self.func.blocks[index]
        last_writer = None
        for insn in block.insns:
            if self._writes_cc(insn):
                last_writer = insn
        if not isinstance(last_writer, Compare):
            return None
        seen = False
        for insn in block.insns:
            if insn is last_writer:
                seen = True
                continue
            if seen and not insn.is_transfer() and self._reads_cc(insn):
                return None
        return last_writer

    def _fuse_operand(
        self, text: str, written: Set[Tuple[str, int]], out: List[str]
    ) -> str:
        """An operand expression valid at the block's terminator.

        Constants and single-assignment temps are stable as-is; a
        register local survives unless something after the Compare
        redefines it; anything else (memory reads, address arithmetic)
        is pinned into a temp at the Compare's program point.
        """
        pair = self._local_names.get(text)
        if pair is not None:
            if pair not in written:
                return text
        elif _is_atom(text):
            return text
        temp = self._temp()
        out.append(f"{temp} = {text}")
        return temp

    def collect_regs(self) -> None:
        """Pre-scan every instruction for the function's register set.

        Must run before any codegen: call sites flush the *complete*
        cached-register set, and generation order is not execution
        order, so discovering registers lazily would leave stale bank
        values visible to callees.
        """
        for block in self.func.blocks:
            for insn in block.insns:
                for reg in insn.used_regs():
                    self._reg(reg.bank, reg.index)
                defined = insn.defined_reg()
                if defined is not None:
                    self._reg(defined.bank, defined.index)

    def block_body(self, index: int, out: List[str]) -> None:
        """Emit block ``index``'s entry accounting and fused ops."""
        self.emitted.add(index)
        func = self.func
        block = func.blocks[index]
        gid = self.interp.global_block_id(func.name, index)
        out.append("_steps -= 1")
        out.append("if _steps < 0:")
        out.append(f"    raise StepLimitExceeded({self._limit_message!r})")
        out.append(f"_c{index} += 1")
        if self.traced:
            out.append(f"_emit({gid})")
        # Compare/branch fusion: when the block ends in a conditional
        # branch fed by a Compare whose cc value dies at the branch, the
        # branch tests the operands directly and the sign value is never
        # materialized.  Restricting to CondBranch terminators keeps the
        # operand evaluation (and any fault it would raise) in place.
        self._fuse_insn = None
        self._fused_operands = None
        self._fuse_written = set()
        if isinstance(block.terminator, CondBranch):
            fuse = self._fusable_compare(index)
            if fuse is not None:
                self._fuse_insn = fuse
                seen = False
                for insn in block.insns:
                    if insn is fuse:
                        seen = True
                    elif seen and not insn.is_transfer():
                        defined = insn.defined_reg()
                        if defined is not None:
                            self._fuse_written.add((defined.bank, defined.index))
        for insn in block.insns:
            if not insn.is_transfer():
                self.insn(insn, out)

    @property
    def _limit_message(self) -> str:
        return f"exceeded {self.interp.max_steps} block steps"

    # ------------------------------------------------------------ layout

    def plan(self) -> Tuple[List[int], Dict[int, int]]:
        """Pick dispatch arms and count predecessors.

        A block needs its own dispatch arm when it is the entry, a
        conditional/indirect branch target, or has more than one
        predecessor.  Every other reachable block is reached through
        exactly one unconditional edge (fall-through or jump) and is
        fused into that predecessor's arm.
        """
        func = self.func
        n = len(func.blocks)
        index_of = {block.label: i for i, block in enumerate(func.blocks)}
        preds: Dict[int, int] = {i: 0 for i in range(n)}
        forced: Set[int] = {0}
        for i, block in enumerate(func.blocks):
            term = block.terminator
            if term is None:
                if i + 1 >= n:
                    raise CompileDeclined("block falls off the end")
                preds[i + 1] += 1
            elif isinstance(term, Jump):
                preds[index_of[term.target]] += 1
            elif isinstance(term, CondBranch):
                target = index_of[term.target]
                preds[target] += 1
                forced.add(target)
                if i + 1 < n:
                    preds[i + 1] += 1
            elif isinstance(term, IndirectJump):
                for label in term.targets:
                    target = index_of[label]
                    preds[target] += 1
                    forced.add(target)
            elif not isinstance(term, Return):
                raise CompileDeclined(f"cannot compile terminator {term!r}")
        arms = sorted(
            i for i in range(n) if i in forced or preds[i] >= 2
        )
        return arms, preds

    def arm_body(
        self, start: int, arm_set: Set[int], out: List[str]
    ) -> None:
        """Emit the chain of blocks starting at arm ``start``.

        The chain follows unconditional single-predecessor edges
        (fall-through and jumps), fusing each such block inline; every
        path ends in a transfer marker (``GOTO n`` / ``GOTODYN`` /
        ``RETURN``, resolved by :meth:`_finalize_arm`) or a raise.
        """
        func = self.func
        n = len(func.blocks)
        index_of = {block.label: i for i, block in enumerate(func.blocks)}
        visited: Set[int] = set()
        index = start
        while True:
            if index in visited:  # pragma: no cover - defensive
                raise CompileDeclined("cyclic fuse chain")
            visited.add(index)
            if index != start:
                self.blocks_fused += 1
            self.block_body(index, out)
            term = func.blocks[index].terminator
            if term is None:
                follow = index + 1
            elif isinstance(term, Jump):
                follow = index_of[term.target]
            elif isinstance(term, Return):
                out.append("RETURN")
                return
            elif isinstance(term, CondBranch):
                target = index_of[term.target]
                if self._fused_operands is not None:
                    left, right = self._fused_operands
                    out.append(f"if {left} {term.rel} {right}:")
                else:
                    out.append(f"if {self._reg('cc', 0)} {term.rel} 0:")
                out.append(f"    GOTO {target}")
                if index + 1 >= n:
                    # Falling through past the last block is the same
                    # runtime error as in the interpreter.
                    out.append(
                        "raise IndexError("
                        f"{func.name + ': block ' + func.blocks[index].label + ' falls off the end'!r})"
                    )
                    return
                follow = index + 1
            elif isinstance(term, IndirectJump):
                pre: List[str] = []
                value = self._bind(self.expr(term.addr, pre), pre)
                out.extend(pre)
                targets = tuple(index_of[label] for label in term.targets)
                out.append(f"if not 0 <= {value} < {len(targets)}:")
                out.append(
                    "    raise IndexError(f\"indirect jump index "
                    f"{{{value}}} out of range in {func.name}\")"
                )
                body = ", ".join(str(t) for t in targets)
                out.append(f"_b = ({body},)[{value}]")
                out.append("GOTODYN")
                return
            else:  # pragma: no cover - plan() already declined
                raise CompileDeclined(f"cannot compile terminator {term!r}")
            if follow in arm_set:
                out.append(f"GOTO {follow}")
                return
            index = follow

    def _finalize_arm(
        self, start: int, lines: List[str], ret_arm: int
    ) -> Tuple[List[str], bool]:
        """Resolve transfer markers; thread self-loops.

        An arm none of whose transfers target itself lowers ``GOTO``
        to ``_b = n; continue`` against the outer dispatch loop.  An
        arm with a backedge to its own head — the shape block
        replication manufactures for loops — is wrapped in an inner
        ``while True`` so the backedge becomes a bare ``continue``,
        skipping the dispatch tree entirely on the hot path; its other
        exits ``break`` to the dispatcher, and returns go through the
        synthetic ``ret_arm`` (whose body is a lone outer ``break``).
        Returns the lines and whether ``ret_arm`` is needed.
        """
        self_goto = f"GOTO {start}"
        if not any(line.lstrip() == self_goto for line in lines):
            out: List[str] = []
            for line in lines:
                stripped = line.lstrip()
                pad = line[: len(line) - len(stripped)]
                if stripped.startswith("GOTO "):
                    out.append(f"{pad}_b = {stripped[5:]}")
                    out.append(f"{pad}continue")
                elif stripped == "RETURN":
                    out.append(f"{pad}break")
                elif stripped == "GOTODYN":
                    out.append(f"{pad}continue")
                else:
                    out.append(line)
            return out, False
        out = ["while True:"]
        used_ret = False
        for line in lines:
            stripped = line.lstrip()
            pad = "    " + line[: len(line) - len(stripped)]
            if stripped == self_goto:
                out.append(f"{pad}continue")
            elif stripped.startswith("GOTO "):
                out.append(f"{pad}_b = {stripped[5:]}")
                out.append(f"{pad}break")
            elif stripped == "RETURN":
                out.append(f"{pad}_b = {ret_arm}")
                out.append(f"{pad}break")
                used_ret = True
            elif stripped == "GOTODYN":
                out.append(f"{pad}break")
            else:
                out.append("    " + line)
        return out, used_ret

    def dispatch_tree(
        self, arms: List[int], bodies: Dict[int, List[str]], indent: str
    ) -> List[str]:
        """A binary decision tree over arm indices; leaves are arm bodies."""
        if len(arms) == 1:
            return [indent + line for line in bodies[arms[0]]]
        mid = len(arms) // 2
        lines = [f"{indent}if _b < {arms[mid]}:"]
        lines.extend(self.dispatch_tree(arms[:mid], bodies, indent + "    "))
        lines.append(f"{indent}else:")
        lines.extend(self.dispatch_tree(arms[mid:], bodies, indent + "    "))
        return lines

    # ------------------------------------------------------------ assembly

    def generate(self) -> str:
        """The complete generated source of this function's executor."""
        func = self.func
        n = len(func.blocks)
        if n == 0:
            raise CompileDeclined("empty function")
        if n > MAX_COMPILED_BLOCKS:
            raise CompileDeclined(f"{n} blocks exceeds compile limit")
        self.collect_regs()
        self.cc_live_out = self._cc_liveness()
        arms, _preds = self.plan()
        arm_set = set(arms)
        # ``n`` doubles as the synthetic return arm: self-loop arms break
        # out with ``_b = n`` and this arm's lone ``break`` ends the run.
        ret_arm = n
        need_ret = False
        bodies: Dict[int, List[str]] = {}
        for arm in arms:
            body: List[str] = []
            self.arm_body(arm, arm_set, body)
            bodies[arm], used_ret = self._finalize_arm(arm, body, ret_arm)
            need_ret = need_ret or used_ret
        tree_arms = list(arms)
        if need_ret:
            tree_arms.append(ret_arm)
            bodies[ret_arm] = ["break"]

        lines: List[str] = [
            f"def __ease_exec(interp, state, result, frame_base, _steps):",
            "    mem = state.mem",
            "    _regs = state.regs",
        ]
        for bank in self.banks_used:
            lines.append(f"    _K_{bank} = _regs[{bank!r}]")
        lines.append(f"    _counts = result._counts_for({func.name!r}, {n})")
        if self.traced:
            lines.append("    _emit = interp._sink.emit")
        if self.uses_unpack:
            lines.append("    _up = _unpack_from")
        if self.uses_pack:
            lines.append("    _pk = _pack_into")
        if self.uses_call:
            lines.append("    _call = interp._do_call")
        lines.append("    _saved_fp = state.fp")
        lines.append("    state.fp = frame_base")
        lines.append("    fp = frame_base")
        if self.direct_calls:
            lines.append("    _ncalls = 0")
        counters = sorted(self.emitted)
        for chunk_start in range(0, len(counters), 16):
            chunk = counters[chunk_start : chunk_start + 16]
            lines.append(
                "    " + " = ".join(f"_c{i}" for i in chunk) + " = 0"
            )
        for (bank, index) in self.regs_used:
            lines.append(f"    _R_{bank}_{index} = _K_{bank}[{index}]")
        lines.append("    try:")
        lines.append("        _b = 0")
        lines.append("        while True:")
        lines.extend(self.dispatch_tree(tree_arms, bodies, "            "))
        lines.append("    finally:")
        lines.append("        state.fp = _saved_fp")
        if self.direct_calls:
            lines.append("        if _ncalls: result.calls_executed += _ncalls")
        for i in counters:
            lines.append(f"        if _c{i}: _counts[{i}] += _c{i}")
        for (bank, index) in self.regs_used:
            lines.append(f"        _K_{bank}[{index}] = _R_{bank}_{index}")
        lines.append("    return _steps")
        return "\n".join(lines) + "\n"


class CompiledInterpreter(Interpreter):
    """Executes RTL through per-function generated Python code objects.

    Construction links the program, builds the interpreter's threaded-code
    blocks (the per-function fallback and branch-target metadata source)
    and compiles the executors of the first run's mode, ``trace``.  The
    other mode's (traced ones add a per-block ``RleTraceSink.emit`` call)
    compile on its first run, so no run pays for a mode it does not use.
    """

    def __init__(
        self,
        program: Program,
        max_steps: int = 200_000_000,
        trace: bool = False,
    ) -> None:
        #: traced? -> function name -> executor, per mode compiled so far.
        self._tables: Dict[bool, Dict[str, Callable]] = {}
        self._footprints: Dict[str, List[Tuple[str, int]]] = {}
        #: function name -> decline reason for every fallback.
        self.fallbacks: Dict[str, str] = {}
        self.blocks_fused = 0
        self.compile_seconds = 0.0
        #: (exec namespace, direct-callee names, traced?) per compiled
        #: function — the link table for direct compiled-to-compiled
        #: calls, resolved after each compile pass (callees may compile
        #: after their callers, or fall back at any point).
        self._exec_links: List[Tuple[dict, Dict[str, None], bool]] = []
        super().__init__(program, max_steps=max_steps)
        self._select(trace)

    # ------------------------------------------------------------ compilation

    def _compile_all(self, traced: bool) -> Dict[str, Callable]:
        table = self._tables[traced] = {}
        start = perf_counter()
        fused = self.blocks_fused
        for func in self.program.functions.values():
            if func.name in self.fallbacks:
                continue  # declined shapes stay interpreted in both modes
            try:
                table[func.name] = self._pycompile(func, traced)
            except CompileDeclined as declined:
                self._register_fallback(func.name, declined.reason)
            except (RecursionError, SyntaxError, MemoryError) as exc:
                # Codegen surprises must never take the run down: the
                # interpreter executes anything the linker accepted.
                self._register_fallback(
                    func.name, f"codegen-error: {type(exc).__name__}"
                )
        # Link pass: resolve every direct-call global against what this
        # pass actually compiled.  A ``None`` executor (declined callee)
        # routes that call site through the generic _do_call path.
        for namespace, callees, link_traced in self._exec_links:
            if link_traced == traced:
                for callee in callees:
                    namespace[f"_x_{callee}"] = table.get(callee)
        seconds = perf_counter() - start
        self.compile_seconds += seconds
        metrics = _active_observer().metrics
        metrics.inc("ease.compile.functions", len(table))
        metrics.inc("ease.compiled.blocks_fused", self.blocks_fused - fused)
        metrics.inc("ease.compile.time_ms", round(seconds * 1000.0, 3))
        return table

    def _pycompile(self, func: Function, traced: bool) -> Callable:
        generator = _FunctionCompiler(self, func, traced)
        source = generator.generate()
        namespace = {
            "StepLimitExceeded": StepLimitExceeded,
            "_div": _div_trunc,
            "_rem": _rem_trunc,
            "_unpack_from": _unpack_from,
            "_pack_into": _pack_into,
            "_w32": wrap32,
            "_builtin": call_builtin,
        }
        code = compile(source, f"<ease-compiled:{func.name}>", "exec")
        exec(code, namespace)
        self._exec_links.append((namespace, generator.direct_calls, traced))
        self.blocks_fused += generator.blocks_fused
        # The callee-save footprint (the same in both modes): a compiled
        # function can change no bank slot outside its own cached
        # registers (nested calls restore everything else themselves),
        # so _do_call need only save/restore these — rv excluded, it
        # carries the return value.
        self._footprints[func.name] = [
            pair for pair in generator.regs_used if pair != ("rv", 0)
        ]
        return namespace["__ease_exec"]

    def _register_fallback(self, name: str, reason: str) -> None:
        # One mode declining a function the other compiled would be a
        # bug (same codegen); it falls back in both, first reason kept.
        self.fallbacks.setdefault(name, reason)
        for table in self._tables.values():
            table.pop(name, None)
        self._footprints.pop(name, None)
        # Unlink: direct call sites to this function take the generic
        # path from now on (linked namespaces may already exist).
        key = f"_x_{name}"
        for namespace, callees, _link_traced in self._exec_links:
            if name in callees:
                namespace[key] = None
        obs = _active_observer()
        obs.metrics.inc("ease.compile.fallbacks")
        if obs.decisions.enabled:
            obs.decisions.record(
                ReplicationDecision(
                    function=name,
                    block="",
                    target="",
                    mode="ease",
                    policy="compile",
                    outcome="ease_fallback",
                    reason=reason,
                )
            )

    # ------------------------------------------------------------ execution

    def _select(self, trace: bool) -> None:
        """Run ``trace``'s mode from now on, compiling it on first use."""
        table = self._tables.get(trace)
        self._active = self._compile_all(trace) if table is None else table

    def run(
        self,
        stdin: bytes = b"",
        trace: bool = False,
        entry: str = "main",
    ):
        self._select(trace)
        return super().run(stdin=stdin, trace=trace, entry=entry)

    def _run_function(self, state, name, result, frame_base) -> None:
        executor = self._active.get(name)
        if executor is None:
            super()._run_function(state, name, result, frame_base)
            return
        self._current_result = result
        # The step budget travels as a parameter between compiled frames
        # (direct calls never touch the attribute); sync it at this
        # boundary so interpreted frames above and below see the debits.
        self._steps_left = executor(
            self, state, result, frame_base, self._steps_left
        )

    def _do_call(self, state, name: str, nargs: int) -> None:
        footprint = self._footprints.get(name)
        if footprint is None:
            # Builtins, interpreter-fallback functions, unknown names:
            # the inherited path (full bank snapshot) handles them.
            super()._do_call(state, name, nargs)
            return
        # A compiled callee touches only its footprint (nested calls
        # restore everything but rv themselves), so callee-save costs
        # O(registers actually used) instead of O(all banks).
        regs = state.regs
        saved = [
            (regs[bank], index, regs[bank][index]) for bank, index in footprint
        ]
        result = self._current_result
        result.calls_executed += 1
        frame_base = state.fp - self._functions[name].frame_size - 32
        if frame_base <= state.heap_ptr:
            raise MemoryError("interpreted stack overflow")
        self._run_function(state, name, result, frame_base)
        for values, index, value in saved:
            values[index] = value

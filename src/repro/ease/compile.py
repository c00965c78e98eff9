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
  exactly (32-bit wrap-around inlined, shift counts masked with its
  ``SHIFT_MASK``, C-style division via the
  *same* ``_div_trunc``/``_rem_trunc`` helpers; every operand is a
  signed-32 word, since a :class:`~repro.rtl.expr.Const` is one by
  construction, so operators that keep in-range operands in range are
  not wrapped);
* step accounting debits one block-step at every basic-block entry —
  including blocks fused into a predecessor's dispatch arm — so
  :class:`StepLimitExceeded` fires on exactly the same executed block
  as the interpreter (regression-tested at the limit boundary);
* per-block execution counts and the block-level trace stream are
  emitted at block entry in execution order, so a traced run feeds the
  existing :class:`~repro.ease.trace.RleTraceSink` a byte-identical
  stream and every Table-5/6 number is unchanged;
* a call to a program function calls that function's generated
  executor directly, with the interpreter's stack check, call count and
  callee-save contract inlined (registers flushed before the call, the
  callee's footprint restored after it, only ``rv`` reloaded); a
  builtin runs in place; a call to any other name raises
  :class:`NameError` where it executes.

Every function of a program compiles, whatever its size; a shape the
code generator rejects (an unknown operator, a block falling off the
end, a final conditional branch, a label :func:`repro.cfg.graph.successors`
cannot resolve, a transfer before a block's end) raises ``TypeError`` or
``ValueError`` at compile time, and the run fails.  A compiled run
executes generated code only.  Its source depends on the RTL alone:
registers load, flush and save in (bank, index) order, not in the
address order of the interned register nodes.

Product measurement runs on this engine only
(:func:`make_interpreter`).  The closure interpreter stays the
verification oracle's engine and the differential reference
(`tests/ease/test_compiled_parity.py` is the parity gate).
"""

from __future__ import annotations

from struct import error as _StructError
from struct import pack_into as _pack_into
from struct import unpack_from as _unpack_from
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from ..cfg.block import Function, Program
from ..cfg.graph import successors
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
from .interp import LinkedProgram, StepLimitExceeded, _registers
from .runtime import call_builtin, is_builtin

__all__ = ["CompiledInterpreter", "make_interpreter"]


def make_interpreter(program: Program, **kwargs) -> CompiledInterpreter:
    """Build the measurement engine for ``program``.

    Keyword arguments go to the constructor (``max_steps``, ``trace``).
    """
    return CompiledInterpreter(program, **kwargs)


def _is_atom(text: str) -> bool:
    """True for expression strings safe to duplicate (names, literals)."""
    return text.isidentifier() or text.isdigit() or (
        text.startswith("(-") and text.endswith(")") and text[2:-1].isdigit()
    )


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
        #: Reverse map of register locals, for compare/branch fusion.
        self._local_names: Dict[str, Tuple[str, int]] = {}
        #: Per-block: is cc live after the block's terminator?
        self.cc_live_out: List[bool] = []
        #: The current block's fusable Compare (see :meth:`block_body`).
        self._fuse_insn: Optional[Insn] = None
        self._fused_operands: Optional[Tuple[str, str]] = None
        #: Registers redefined between the fused Compare and its branch.
        self._fuse_written: Set[Tuple[str, int]] = set()
        #: Per block: successor indices, :func:`~repro.cfg.graph.successors`
        #: resolved afresh from the RTL's labels (the engine executes
        #: labels, not the optimizer's stored edges): a conditional
        #: branch's are ``(fall, taken)``, an indirect jump's its table.
        problems: List[str] = []
        index_of = {block: i for i, block in enumerate(func.blocks)}
        self.succs = [
            [index_of[succ] for succ in succs]
            for succs in successors(func.blocks, problems)
        ]
        if problems:
            raise ValueError(f"{func.name}: {problems[0]}")
        for block in func.blocks:
            for insn in block.insns[:-1]:
                if insn.is_transfer():
                    raise ValueError(
                        f"{func.name}: block {block.label}: transfer {insn!r} "
                        "not at block end"
                    )

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
            return str(value) if value >= 0 else f"(-{-value})"
        if isinstance(node, Reg):
            return self._reg(node.bank, node.index)
        if isinstance(node, Sym):
            # Link-time constant.
            address = self.interp.symaddr.get(node.name)
            if address is None:
                raise KeyError(
                    f"{self.func.name}: unknown global symbol {node.name!r}"
                )
            return str(address)
        if isinstance(node, Local):
            try:
                offset = self.func.frame[node.name][0]
            except KeyError:
                raise KeyError(
                    f"{self.func.name}: unknown frame slot {node.name!r}"
                ) from None
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
            raise ValueError(f"unknown binary operator {op!r}")
        if isinstance(node, UnOp):
            operand = self.expr(node.operand, pre)
            if node.op == "-":
                return self._wrap_pre(f"-({operand})", pre)
            if node.op == "~":
                return f"(~({operand}))"
            raise ValueError(f"unknown unary operator {node.op!r}")
        raise TypeError(f"cannot compile expression {node!r}")

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
            callee = self.interp.program.functions.get(name)
            if callee is None:
                if not is_builtin(name):
                    out.append(
                        f"raise NameError({f'call to unknown function {name!r}'!r})"
                    )
                    return
                # Builtins read the arg bank (plus memory/stdio, which
                # are always current) and write rv directly — no
                # callee-save snapshot, no step accounting, exactly the
                # interpreter's builtin fast path.  Flush only the
                # cached arg registers and keep rv in its local.
                for (bank, index) in self.regs_used:
                    if bank == "arg":
                        out.append(f"_K_{bank}[{index}] = _R_{bank}_{index}")
                out.append(f"{rv} = _w32(_builtin(state, {name!r}, {node.nargs}))")
                return
            # Flush every promoted register so the callee sees current
            # state; the callee-save contract then guarantees each bank
            # except rv is back to the flushed value on return — reload
            # only rv.  The callee is its executor ``_x_{name}``, a
            # global of the namespace every function of this mode shares,
            # with the step budget threaded as a parameter.  Only the
            # callee's footprint registers the caller does NOT cache
            # need bank saves: cached slots were just flushed (their
            # locals stay authoritative — the next consumer of any
            # cached slot re-flushes first), and a callee's bank delta
            # is confined to its own registers (rv, which the call
            # defines, is cached).
            for (bank, index) in self.regs_used:
                out.append(f"_K_{bank}[{index}] = _R_{bank}_{index}")
            saves = [
                (self._temp(), bank, index)
                for bank, index in _registers(callee)
                if (bank, index) not in self.regs_used
            ]
            for temp, bank, index in saves:
                self.banks_used[bank] = None  # preamble binds _K_{bank}
                out.append(f"{temp} = _K_{bank}[{index}]")
            out.append(f"_fb = state.fp - {self.interp._frame_sizes[name] + 32}")
            out.append("if _fb <= state.heap_ptr:")
            out.append("    raise MemoryError('interpreted stack overflow')")
            out.append(f"_steps = _x_{name}(interp, state, result, _fb, _steps)")
            for temp, bank, index in saves:
                out.append(f"_K_{bank}[{index}] = {temp}")
            out.append(f"{rv} = _K_rv[0]")
            return
        if isinstance(node, Nop):
            return  # counted via the block, no effect
        raise TypeError(f"cannot compile instruction {node!r}")

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
        succs = self.succs
        summary: List[Tuple[bool, bool]] = []  # (reads before write, writes)
        for block in blocks:
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
        for bank, index in _registers(self.func):
            self._reg(bank, index)

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
        preds: Dict[int, int] = {i: 0 for i in range(n)}
        forced: Set[int] = {0}
        for i, block in enumerate(func.blocks):
            term = block.terminator
            succs = self.succs[i]
            if term is None:
                if i + 1 >= n:
                    raise ValueError(
                        f"{func.name}: block {block.label} falls off the end"
                    )
            elif isinstance(term, CondBranch):
                forced.add(succs[1])
            elif isinstance(term, IndirectJump):
                forced.update(succs)
            elif not isinstance(term, (Jump, Return)):
                raise TypeError(f"cannot compile terminator {term!r}")
            for target in succs:
                preds[target] += 1
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
        ``RETURN``, resolved by :meth:`_finalize_arm`).
        """
        func = self.func
        index = start
        # Every block after ``start`` has one predecessor, the block
        # before it, so the chain cannot revisit a block before it
        # reaches an arm.
        while True:
            if index != start:
                self.blocks_fused += 1
            self.block_body(index, out)
            term = func.blocks[index].terminator
            if term is None:
                follow = index + 1
            elif isinstance(term, Jump):
                follow = self.succs[index][0]
            elif isinstance(term, Return):
                out.append("RETURN")
                return
            elif isinstance(term, CondBranch):
                follow, target = self.succs[index]
                if self._fused_operands is not None:
                    left, right = self._fused_operands
                    out.append(f"if {left} {term.rel} {right}:")
                else:
                    out.append(f"if {self._reg('cc', 0)} {term.rel} 0:")
                out.append(f"    GOTO {target}")
            elif isinstance(term, IndirectJump):
                pre: List[str] = []
                value = self._bind(self.expr(term.addr, pre), pre)
                out.extend(pre)
                targets = self.succs[index]
                out.append(f"if not 0 <= {value} < {len(targets)}:")
                out.append(
                    "    raise IndexError(f\"indirect jump index "
                    f"{{{value}}} out of range in {func.name}\")"
                )
                body = ", ".join(str(t) for t in targets)
                out.append(f"_b = ({body},)[{value}]")
                out.append("GOTODYN")
                return
            else:  # pragma: no cover - plan() already raised
                raise TypeError(f"cannot compile terminator {term!r}")
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
        head = f"def _x_{func.name}(interp, state, result, frame_base, _steps):"
        if n == 0:
            return f"{head}\n    return _steps\n"
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
            head,
            "    mem = state.mem",
            "    _regs = state.regs",
        ]
        for bank in self.banks_used:
            lines.append(f"    _K_{bank} = _regs[{bank!r}]")
        lines.append("    _counts = result.block_counts")
        if self.traced:
            lines.append("    _emit = interp._sink.emit")
        if self.uses_unpack:
            lines.append("    _up = _unpack_from")
        if self.uses_pack:
            lines.append("    _pk = _pack_into")
        lines.append("    _saved_fp = state.fp")
        lines.append("    state.fp = frame_base")
        lines.append("    fp = frame_base")
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
        base = self.interp.global_block_id(func.name, 0)
        for i in counters:
            lines.append(f"        if _c{i}: _counts[{base + i}] += _c{i}")
        for (bank, index) in self.regs_used:
            lines.append(f"        _K_{bank}[{index}] = _R_{bank}_{index}")
        lines.append("    return _steps")
        return "\n".join(lines) + "\n"


class CompiledInterpreter(LinkedProgram):
    """Executes RTL through per-function generated Python code objects.

    Construction links the program and compiles every function's
    executor in the engine's one mode, ``trace`` (a traced executor adds
    a per-block ``RleTraceSink.emit`` call).
    """

    def __init__(
        self,
        program: Program,
        max_steps: int = 200_000_000,
        trace: bool = False,
    ) -> None:
        super().__init__(program, max_steps=max_steps, trace=trace)
        self.blocks_fused = 0
        self.compile_seconds = 0.0
        #: Each function's executor ``_x_{name}``, beside the helpers
        #: they call.
        self._executors = self._compile_all(trace)

    # ------------------------------------------------------------ compilation

    def _compile_all(self, traced: bool) -> Dict[str, object]:
        start = perf_counter()
        namespace: Dict[str, object] = {
            "StepLimitExceeded": StepLimitExceeded,
            "_div": _div_trunc,
            "_rem": _rem_trunc,
            "_unpack_from": _unpack_from,
            "_pack_into": _pack_into,
            "_w32": wrap32,
            "_builtin": call_builtin,
        }
        for func in self.program.functions.values():
            self._pycompile(func, traced, namespace)
        self.compile_seconds = perf_counter() - start
        metrics = _active_observer().metrics
        metrics.inc("ease.compile.functions", len(self.program.functions))
        metrics.inc("ease.compiled.blocks_fused", self.blocks_fused)
        metrics.inc("ease.compile.time_ms", round(self.compile_seconds * 1000.0, 3))
        return namespace

    def _pycompile(
        self, func: Function, traced: bool, namespace: Dict[str, object]
    ) -> None:
        """Define ``func``'s executor ``_x_{name}`` in ``namespace``."""
        generator = _FunctionCompiler(self, func, traced)
        source = generator.generate()
        exec(compile(source, f"<ease-compiled:{func.name}>", "exec"), namespace)
        self.blocks_fused += generator.blocks_fused

    # ------------------------------------------------------------ execution

    def _run_function(self, state, name, result, frame_base) -> None:
        executor = self._executors[f"_x_{name}"]
        try:
            self._steps_left = executor(
                self, state, result, frame_base, self._steps_left
            )
        except _StructError as error:
            # A word or long access past the end of memory: raise what the
            # interpreter's bytearray indexing raises.
            raise IndexError(str(error)) from error

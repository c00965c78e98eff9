"""The compiled EASE execution engine: RTL → Python code objects.

The closure interpreter (:class:`~repro.ease.interp.Interpreter`) pays
one Python call per executed RTL plus one per block terminator.  This
module removes both: each function is translated *once* into the source
of a single Python function, with registers promoted to Python locals
and its control flow structured from :mod:`repro.cfg`'s dominator tree
and natural loops — a loop is a ``while True:`` whose back edges are
``continue`` and whose exits are ``break``, a branch target with one
in-edge is an ``if`` arm, a join follows the ``if``/``else`` it joins,
and a return leaves the function's own ``while True:`` (CPython compiles
a ``finally`` block again at every ``return`` inside its ``try``) — and
``compile()``d into one code object.  A
transfer that skips code to reach a join sets ``_b`` and the join's
``if _b == n:`` guard lets it through.  Only an indirect jump's targets,
an irreducible edge's target and code nested past what CPython compiles
go through a binary decision tree on ``_b`` (``dispatch_arms``).  Long
loads and stores at aligned, non-negative addresses index
``MachineState.words``; the rest go through ``struct``.

Semantics are the interpreter's, by construction:

* every arithmetic template mirrors :func:`repro.rtl.arith.eval_binop`
  exactly (32-bit wrap-around inlined, shift counts masked with its
  ``SHIFT_MASK``, C-style division via the
  *same* ``_div_trunc``/``_rem_trunc`` helpers; every operand is a
  signed-32 word, since a :class:`~repro.rtl.expr.Const` is one by
  construction, so operators that keep in-range operands in range are
  not wrapped);
* step accounting compares the budget at every basic-block entry with
  the blocks entered since its last debit (``if _steps < k``), and
  debits it once at each back edge, region exit, call and return, so
  :class:`StepLimitExceeded` fires on exactly the same executed block
  as the interpreter, before that block's first effect (tested at every
  limit of a program with all of those shapes);
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

import sys
from struct import error as _StructError
from struct import pack_into as _pack_into
from struct import unpack_from as _unpack_from
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from ..cfg.block import BasicBlock, Function, Program
from ..cfg.dominators import compute_dominators
from ..cfg.graph import successors
from ..cfg.loops import find_loops
from ..cfg.traversal import reverse_postorder
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
from .interp import LinkedProgram, StepLimitExceeded
from .runtime import call_builtin, is_builtin

__all__ = ["CompiledInterpreter", "make_interpreter"]

# ``MachineState.words`` reads memory as native 32-bit words; the
# program's memory is little-endian.
assert sys.byteorder == "little", "the compiled engine needs a little-endian host"

#: Nesting bounds (indentation, emitter frames, open loops: CPython allows
#: 20 nested loop and ``try`` blocks); past them, a block is dispatched.
_MAX_INDENT = 40
_MAX_DEPTH = 100
_MAX_LOOPS = 12

#: A ``Return``'s target: the end of the function's ``while True:``, so
#: ``finally`` is compiled once, not at every ``return``.
_RET = -1


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


class _Loop:
    """An open ``while True:``, the blocks after it and its escapes."""

    def __init__(self, header: int, after: List[int]) -> None:
        self.header = header
        self.after = after
        self.escapes: Set[int] = set()


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
        #: Blocks entered through a dispatch tree on ``_b``.
        self.dispatch_arms = 0
        #: Region blocks entered and not yet debited from ``_steps``.
        self._unsettled = 0
        self.uses_words = False
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

    def _word(self, addr: str) -> str:
        """The long at ``addr`` in ``MachineState.words``, read where
        ``not addr & -2147483645``: aligned and in ``[0, 2**31)`` (past the
        end of memory, ``IndexError`` as in the interpreter)."""
        self.uses_words = True
        return f"_wd[{addr} >> 2]"

    def _address(self, node: Expr, pre: List[str]) -> Tuple[str, str]:
        """A long access's address, bound, and its wrapped spelling for
        ``struct``: a sum in ``[0, 2**31)`` is its own wrap."""
        if isinstance(node, BinOp) and node.op == "+":
            temp = self._temp()
            pre.append(f"{temp} = ({self.expr(node.left, pre)}) + ({self.expr(node.right, pre)})")
            return temp, f"_w32({temp})"
        addr = self._bind(self.expr(node, pre), pre)
        return addr, addr

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
            # One struct call replaces the interpreter's per-byte
            # assembly: ``<H`` is its unsigned word read, ``<i`` its
            # sign-fixed long read, bit for bit.
            if node.width == "B":
                return f"mem[{self.expr(node.addr, pre)}]"
            self.uses_unpack = True
            if node.width == "W":
                return f"_up('<H', mem, {self.expr(node.addr, pre)})[0]"
            addr, exact = self._address(node.addr, pre)
            return (
                f"{self._word(addr)} if not {addr} & -2147483645"
                f" else _up('<i', mem, {exact})[0]"
            )
        if isinstance(node, BinOp):
            left = self.expr(node.left, pre)
            right = self.expr(node.right, pre)
            op = node.op
            if op in ("+", "-", "*"):
                return self._wrap_pre(f"({left}) {op} ({right})", pre)
            if op in ("&", "|", "^"):
                # Bitwise ops on in-range signed-32 values stay in range.
                return f"(({left}) {op} ({right}))"
            if op in ("<<", ">>"):
                count = (
                    node.right.value & SHIFT_MASK
                    if isinstance(node.right, Const)
                    else f"(({right}) & {SHIFT_MASK})"
                )
                if op == "<<":
                    return self._wrap_pre(f"({left}) << {count}", pre)
                # Arithmetic shift of an in-range value stays in range.
                return f"(({left}) >> {count})"
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
                reg = self._reg(node.dst.bank, node.dst.index)
                if pre[-1:] == [f"if {src} >= 2147483648: {src} -= 4294967296"]:
                    # Wrap straight into the register, not through a temp.
                    pre[-2:] = [
                        reg + pre[-2][len(src) :],
                        f"if {reg} >= 2147483648: {reg} -= 4294967296",
                    ]
                    out.extend(pre)
                    return
                out.extend(pre)
                out.append(f"{reg} = {src}")
                return
            width = node.dst.width
            if width != "L":
                addr = self.expr(node.dst.addr, pre)
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
            addr, exact = self._address(node.dst.addr, out)
            out.append(f"if not {addr} & -2147483645: {self._word(addr)} = {src}")
            out.append(f"else: _pk('<I', mem, {exact}, ({src}) & 4294967295)")
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
                for bank, index in self.interp.registers[name]
                if (bank, index) not in self.regs_used
            ]
            for temp, bank, index in saves:
                self.banks_used[bank] = None  # preamble binds _K_{bank}
                out.append(f"{temp} = _K_{bank}[{index}]")
            out.append(f"_fb = state.fp - {self.interp._frame_sizes[name] + 32}")
            out.append("if _fb <= state.heap_ptr:")
            out.append("    raise MemoryError('interpreted stack overflow')")
            if self._unsettled:
                out.append(f"_steps -= {self._unsettled}")
                self._unsettled = 0
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
        for bank, index in self.interp.registers[self.func.name]:
            self._reg(bank, index)

    def block_body(self, index: int, k: int, ind: str) -> int:
        """Emit block ``index``'s entry accounting and fused ops; it is the
        ``k``-th block entered since ``_steps`` was debited.  Returns how
        many entered blocks are still undebited (a call debits them)."""
        self.emitted.add(index)
        func = self.func
        block = func.blocks[index]
        gid = self.interp.global_block_id(func.name, index)
        out: List[str] = []
        out.append(f"if _steps < {k}:")
        out.append(f"    raise StepLimitExceeded('exceeded {self.interp.max_steps} block steps')")
        out.append(f"_c{index} += 1")
        self._unsettled = k
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
        self.out.extend((ind, line) for line in out)
        return self._unsettled

    # ------------------------------------------------------------ layout

    def plan(self) -> None:
        """Give every reachable block its place, from :mod:`repro.cfg`'s
        dominators and natural loops on a shadow graph of the
        label-resolved edges.  A block goes where its immediate dominator
        ``p`` puts it: inline at ``p``'s branch when it has one in-edge
        besides back edges, after ``p``'s code when it has more
        (``merges``), and after the ``while`` of the outermost loop
        holding ``p`` but not the block when it is outside (``exits``)."""
        func = self.func
        n = len(func.blocks)
        if func.blocks[-1].terminator is None:
            raise ValueError(f"{func.name}: block {func.blocks[-1].label} falls off the end")
        shadow = Function(func.name)
        shadow.blocks = nodes = [BasicBlock(str(i)) for i in range(n)]
        for node, succs in zip(nodes, self.succs):
            node.succs = [nodes[s] for s in succs]
            for succ in node.succs:
                succ.preds.append(node)
        order = reverse_postorder(shadow)
        dom = compute_dominators(shadow, order)
        reachable = [int(node.label) for node in order]
        #: Header -> the blocks of its natural loop.
        self.loops = {
            int(loop.header.label): {int(b.label) for b in loop.blocks}
            for loop in find_loops(shadow, dom).loops
        }
        #: The innermost loop holding a block, not counting its own.
        self.level: Dict[Optional[int], Optional[int]] = dict.fromkeys(reachable)
        for header in sorted(self.loops, key=lambda h: -len(self.loops[h])):
            for member in self.loops[header] - {header}:
                self.level[member] = header
        #: Block -> the block whose branch it is emitted at.
        self.inline: Dict[int, int] = {}
        self.merges: Dict[int, List[int]] = {}
        self.exits: Dict[int, List[int]] = {}
        for c in reachable[1:]:
            p = int(dom.idom(nodes[c]).label)
            inner = p if p in self.loops else self.level[p]
            joins = sum(int(b.label) not in self.loops.get(c, ()) for b in nodes[c].preds)
            if self.level[c] == inner and joins == 1:
                self.inline[c] = p
            elif self.level[c] == inner:
                self.merges.setdefault(p, []).append(c)
            else:
                while self.level[inner] != self.level[c]:
                    inner = self.level[inner]
                self.exits.setdefault(inner, []).append(c)

    def _line(self, ind: str, text: object) -> None:
        self.out.append((ind, text))

    def _debit(self, ind: str, k: int) -> None:
        if k:
            self._line(ind, f"_steps -= {k}")

    def _tree(
        self, x: int, k: int, ind: str, in_loop: bool = False, arm: bool = False
    ) -> None:
        """Emit block ``x``, ``k`` blocks into its region, and every block
        placed under it: a loop header opens a ``while True:`` (unless
        ``in_loop``), and the blocks placed after a block follow its code,
        each behind an ``if _b == n:`` guard if a transfer skips it.  A
        dispatcher arm (unless ``arm``: this is its code) or a block past
        the nesting bounds is entered through the dispatcher."""
        while True:
            if not in_loop and (
                (x in self.dispatched and not arm)
                or len(ind) > 4 * _MAX_INDENT
                or len(self.frames) > _MAX_DEPTH
                or x in self.loops
                and sum(isinstance(f, _Loop) for f in self.frames) >= _MAX_LOOPS
            ):
                self._debit(ind, k)
                self.dispatched.add(x)
                return self._escape(x, ind, preset=False)
            if x in self.loops and not in_loop:
                self._debit(ind, k)
                # A dispatcher arm's place is dead: transfers to it escape.
                loop = _Loop(x, [m for m in self.exits.get(x, []) if m not in self.dispatched])
                self._line(ind, "while True:")
                self.frames.append(loop)
                self._tree(x, 0, ind + "    ", in_loop=True)
                self.frames.pop()
                nodes = loop.after
                self.frames.append(nodes)
                for i, target in enumerate(sorted(loop.escapes)):
                    self._line(ind, f"{'el' if i else ''}if _b == {target}:")
                    self._transfer(target, ind + "    ", preset=True)
                self.frames.pop()
            else:
                nodes = [m for m in self.merges.get(x, []) if m not in self.dispatched]
                self.frames.append(nodes)
                self._block(x, k, ind)
                self.frames.pop()
            for i, m in enumerate(nodes[:-1]):
                self.frames.append(nodes[i + 1 :])
                guarded = m in self.guarded
                if guarded:
                    self._line(ind, f"if _b == {m}:")
                self._tree(m, 0, ind + "    " * guarded)
                self.frames.pop()
            if not nodes:
                return None
            x, k, in_loop, arm = nodes[-1], 0, False, False
            if x in self.guarded:
                self._line(ind, f"if _b == {x}:")
                ind += "    "

    def _block(self, x: int, k: int, ind: str) -> None:
        """Emit block ``x``'s body and its transfers."""
        k = self.block_body(x, k + 1, ind)
        term = self.func.blocks[x].terminator
        succs = self.succs[x]
        if isinstance(term, Return):
            self._debit(ind, k)
            self._transfer(_RET, ind, preset=False)
        elif isinstance(term, CondBranch):
            if self._fused_operands is not None:
                left, right = self._fused_operands
                self._line(ind, f"if {left} {term.rel} {right}:")
            else:
                self._line(ind, f"if {self._reg('cc', 0)} {term.rel} 0:")
            self._branch(x, succs[1], k, ind + "    ")
            self._line(ind, "else:")
            self._branch(x, succs[0], k, ind + "    ")
        elif isinstance(term, IndirectJump):
            pre: List[str] = []
            value = self._bind(self.expr(term.addr, pre), pre)
            pre.append(f"if not 0 <= {value} < {len(succs)}:")
            pre.append(
                "    raise IndexError(f\"indirect jump index "
                f"{{{value}}} out of range in {self.func.name}\")"
            )
            self.out.extend((ind, line) for line in pre)
            self._debit(ind, k)
            self._line(ind, f"_b = ({', '.join(map(str, succs))},)[{value}]")
            targets = sorted(set(succs))
            self.dispatch_arms += len(targets)
            self.dispatch_tree(targets, ind, lambda t, ind: (
                self._tree(t, 0, ind) if self.inline.get(t) == x
                else self._transfer(t, ind, preset=True)
            ))
        else:  # a jump, or a fall into the next block
            self._branch(x, succs[0], k, ind)

    def _branch(self, x: int, t: int, k: int, ind: str) -> None:
        """Go from block ``x``, ``k`` blocks into its region, to ``t``."""
        if self.inline.get(t) == x:
            return self._tree(t, k, ind)
        self._debit(ind, k)
        return self._transfer(t, ind, preset=False)

    def _transfer(self, t: int, ind: str, preset: bool) -> None:
        """Reach ``t``'s place: ``continue`` to the innermost loop's
        header, ``break`` to a block after its ``while``, or fall through
        to a block placed ahead, setting ``_b`` (unless ``preset``: it
        holds ``t``) where a guard or escape check reads it.  Anything
        else escapes (:meth:`_escape`)."""
        passed: List[int] = []
        for frame in reversed(self.frames if t not in self.dispatched else ()):
            if isinstance(frame, _Loop):
                if t == frame.header:
                    return self._line(ind, "continue")
                if t in frame.after:
                    skipped = frame.after[: frame.after.index(t)]
                    self.guarded.update(skipped)
                    self._line(ind, "pass" if preset else ("_b", t, skipped, frame))
                    return self._line(ind, "break")
                break
            if t in frame:
                passed += frame[: frame.index(t)]
                self.guarded.update(passed)
                return self._line(ind, "pass" if preset else ("_b", t, passed, None))
            passed += frame
        else:
            if t != _RET:  # placed nowhere ahead: an irreducible edge
                self.dispatched.add(t)
        return self._escape(t, ind, preset)

    def _escape(self, t: int, ind: str, preset: bool) -> None:
        """``break`` out of the innermost loop, whose escape checks take
        ``t`` on, or out of the function's loop for a return, or
        ``continue`` the dispatcher, which enters ``t``."""
        loops = [f for f in self.frames if isinstance(f, _Loop)]
        if not loops and t == _RET:
            return self._line(ind, "break")
        if loops:
            loops[-1].escapes.add(t)
        if not preset:
            self._line(ind, f"_b = {t}")
        self._line(ind, "break" if loops else "continue")

    def dispatch_tree(self, targets: List[int], ind: str, leaf) -> None:
        """A binary decision tree on ``_b``; ``leaf(t, ind)`` emits each
        target's code."""
        if len(targets) == 1:
            return leaf(targets[0], ind)
        mid = len(targets) // 2
        self._line(ind, f"if _b < {targets[mid]}:")
        self.dispatch_tree(targets[:mid], ind + "    ", leaf)
        self._line(ind, "else:")
        return self.dispatch_tree(targets[mid:], ind + "    ", leaf)

    # ------------------------------------------------------------ assembly

    def generate(self) -> str:
        """The complete generated source of this function's executor."""
        func = self.func
        head = f"def _x_{func.name}(interp, state, result, frame_base, _steps):"
        if not func.blocks:
            return f"{head}\n    return _steps\n"
        self.collect_regs()
        self.cc_live_out = self._cc_liveness()
        self.plan()
        #: Blocks entered through the dispatcher (irreducible or too deep).
        self.dispatched: Set[int] = set()
        while True:
            # Each block is emitted once: in its place, or as the arm its
            # code moved to when a pass found it must be dispatched.
            known = set(self.dispatched)
            self.frames: list = []
            self.guarded: Set[int] = set()
            self.dispatch_arms = 0
            bodies: Dict[int, list] = {}
            roots = [0]
            while roots:  # new arms' code finds the arms it needs
                for root in roots:
                    self.out = bodies[root] = []
                    self._tree(root, 0, "", arm=True)
                roots = sorted(self.dispatched - bodies.keys())
            if self.dispatched == known:
                break
        # The function's loop: the dispatcher, when there are arms.
        self.out = [("", "_b = 0")] if len(bodies) > 1 else []
        self.out.append(("", "while True:"))
        if len(bodies) > 1:
            self.dispatch_arms += len(bodies)
        self.dispatch_tree(sorted(bodies), "    ", lambda arm, ind: self.out.extend(
            (ind + i, text) for i, text in bodies[arm]
        ))

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
        if self.uses_words:
            lines.append("    _wd = state.words")
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
        for ind, text in self.out:
            if isinstance(text, tuple):  # ("_b", t, passed, loop): set if read
                _, t, passed, loop = text
                read = passed or t in self.guarded or (loop and loop.escapes)
                text = f"_b = {t}" if read else "pass"
            lines.append("        " + ind + text)
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
        self.dispatch_arms = 0
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
        metrics.inc("ease.compile.dispatch_arms", self.dispatch_arms)
        metrics.inc("ease.compile.time_ms", round(self.compile_seconds * 1000.0, 3))
        return namespace

    def _pycompile(
        self, func: Function, traced: bool, namespace: Dict[str, object]
    ) -> None:
        """Define ``func``'s executor ``_x_{name}`` in ``namespace``."""
        generator = _FunctionCompiler(self, func, traced)
        source = generator.generate()
        exec(compile(source, f"<ease-compiled:{func.name}>", "exec"), namespace)
        self.dispatch_arms += generator.dispatch_arms

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

"""The RTL interpreter — the execution half of the EASE substitute.

Programs are *linked* (globals laid out in a flat byte-addressed memory,
relocations patched) and each basic block is compiled once into a list of
Python closures (threaded code), so repeated execution is reasonably fast.

Machine model:

* registers are 32-bit signed integers, organized in banks (``d``/``a``
  for the 68020, ``r`` for the SPARC, ``v`` virtual, ``arg``/``rv`` for
  the calling convention, ``cc`` for the condition codes);
* memory is a flat bytearray: null guard page, globals, heap (bump
  allocated by ``malloc``), and a downward-growing stack of frames;
* calls use callee-saved semantics: the interpreter snapshots all banks at
  a call and restores everything but ``rv`` on return (DESIGN.md records
  this simplification — real code would save/restore in prologues);
* an ``IndirectJump`` transfers to ``targets[value]`` where ``value`` is
  its (bounds-checked by construction) index expression.

Execution records, per function, how many times each basic block ran, and
optionally a global block-level trace that the cache simulator expands
into instruction fetch addresses.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from ..cfg.block import BasicBlock, Function, Program
from ..rtl.arith import eval_binop, eval_unop, wrap32
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
from .runtime import ProgramExit, call_builtin, is_builtin
from .trace import RleTraceSink

__all__ = ["Interpreter", "MachineState", "ExecutionResult", "StepLimitExceeded"]

_REG_BANK_SIZES = {"d": 16, "a": 16, "r": 32, "arg": 16, "rv": 2, "cc": 2}

#: Bytes of the flat memory of one run: guard page, globals, heap, and
#: the top megabyte for the stack.
MEM_SIZE = 1 << 22


class StepLimitExceeded(RuntimeError):
    """The program ran longer than the configured block-step limit."""


class MachineState:
    """Registers + memory + I/O of one program run."""

    def __init__(
        self,
        stdin: bytes,
        bank_sizes: Optional[Dict[str, int]] = None,
    ) -> None:
        self.mem = bytearray(MEM_SIZE)
        self.regs: Dict[str, List[int]] = {
            bank: [0] * size
            for bank, size in (bank_sizes or _REG_BANK_SIZES).items()
        }
        self.fp = 0
        self.heap_ptr = 0
        self.stack_limit = 0  # heap must stay below this
        self.stdin = stdin
        self.stdin_pos = 0
        self.stdout = bytearray()



class ExecutionResult:
    """What one run produced and touched."""

    def __init__(self) -> None:
        self.output = b""
        self.exit_code = 0
        # Final image of the globals region (guard page excluded); the
        # translation validator compares it across pipeline stages.
        self.globals_image = b""
        # (function name, block index) -> execution count.
        self.block_counts: Dict[Tuple[str, int], int] = {}
        # The block-level trace of a traced run: a ``CompressedTrace``.
        self.trace = None
        self.calls_executed = 0
        # Dense per-function count arrays the interpreter increments on
        # the hot path (one list index instead of a tuple-keyed dict
        # update per executed block); folded into ``block_counts`` when
        # the run ends.
        self._func_counts: Dict[str, List[int]] = {}

    def _counts_for(self, func_name: str, n_blocks: int) -> List[int]:
        counts = self._func_counts.get(func_name)
        if counts is None:
            counts = self._func_counts[func_name] = [0] * n_blocks
        return counts

    def _fold_counts(self) -> None:
        """Fold the dense per-function arrays into ``block_counts``."""
        block_counts = self.block_counts
        for func_name, counts in self._func_counts.items():
            for index, count in enumerate(counts):
                if count:
                    block_counts[(func_name, index)] = count
        self._func_counts.clear()


class _CompiledBlock:
    __slots__ = ("ops", "terminator", "index", "global_id")

    def __init__(self, ops, terminator, index: int, global_id: int) -> None:
        self.ops = ops
        self.terminator = terminator
        self.index = index
        self.global_id = global_id


class _CompiledFunction:
    def __init__(self, name: str, frame_size: int) -> None:
        self.name = name
        self.frame_size = frame_size
        self.blocks: List[_CompiledBlock] = []
        self.label_to_index: Dict[str, int] = {}


# Terminators return the next _CompiledBlock directly (threaded code);
# None means "return from the function".


class Interpreter:
    """Links a program and executes it."""

    def __init__(
        self,
        program: Program,
        max_steps: int = 200_000_000,
    ) -> None:
        self.program = program
        self.max_steps = max_steps
        self.symaddr: Dict[str, int] = {}
        self._globals_end = 64  # a null guard region below the globals
        self._bank_sizes: Dict[str, int] = dict(_REG_BANK_SIZES)
        self._layout_globals()
        self._functions: Dict[str, _CompiledFunction] = {}
        self._global_block_ids: Dict[Tuple[str, int], int] = {}
        self._next_block_id = 0
        for func in program.functions.values():
            self._compile_function(func)

    # --- linking ------------------------------------------------------------------

    def _layout_globals(self) -> None:
        addr = self._globals_end
        for data in self.program.globals.values():
            addr = (addr + 3) & ~3
            self.symaddr[data.name] = addr
            addr += data.size
        self._globals_end = addr

    def _install_globals(self, state: MachineState) -> None:
        for data in self.program.globals.values():
            base = self.symaddr[data.name]
            state.mem[base : base + len(data.init)] = data.init
            for offset, symbol in data.relocs:
                target = self.symaddr[symbol]
                state.mem[base + offset : base + offset + 4] = struct.pack(
                    "<I", target
                )

    # --- compilation ------------------------------------------------------------------

    def _compile_function(self, func: Function) -> None:
        compiled = _CompiledFunction(func.name, func.frame_size)
        for index, block in enumerate(func.blocks):
            compiled.label_to_index[block.label] = index
        # Two phases: allocate every block shell first so terminators can
        # capture the successor *block objects* (forward branches
        # included), then fill in ops and terminators.
        for index in range(len(func.blocks)):
            key = (func.name, index)
            global_id = self._next_block_id
            self._next_block_id += 1
            self._global_block_ids[key] = global_id
            compiled.blocks.append(_CompiledBlock(None, None, index, global_id))
        for index, block in enumerate(func.blocks):
            ops = [
                self._compile_insn(insn, func)
                for insn in block.insns
                if not insn.is_transfer()
            ]
            shell = compiled.blocks[index]
            shell.ops = [op for op in ops if op is not None]
            shell.terminator = self._compile_terminator(block, compiled, func, index)
        self._functions[func.name] = compiled

    # expression compilation -------------------------------------------------------

    def _compile_expr(self, expr: Expr, func: Function) -> Callable:
        if isinstance(expr, Const):
            value = expr.value
            return lambda state: value
        if isinstance(expr, Reg):
            bank, index = expr.bank, expr.index
            self._note_reg(bank, index)
            return lambda state: state.regs[bank][index]
        if isinstance(expr, Sym):
            address = self.symaddr.get(expr.name)
            if address is None:
                raise KeyError(
                    f"{func.name}: unknown global symbol {expr.name!r}"
                )
            return lambda state: address
        if isinstance(expr, Local):
            try:
                offset = func.frame[expr.name][0]
            except KeyError:
                raise KeyError(
                    f"{func.name}: unknown frame slot {expr.name!r}"
                ) from None
            return lambda state: state.fp + offset
        if isinstance(expr, Mem):
            addr_fn = self._compile_expr(expr.addr, func)
            if expr.width == "B":
                return lambda state: state.mem[addr_fn(state)]
            if expr.width == "W":
                def read_w(state: MachineState) -> int:
                    a = addr_fn(state)
                    return state.mem[a] | (state.mem[a + 1] << 8)

                return read_w

            def read_l(state: MachineState) -> int:
                a = addr_fn(state)
                mem = state.mem
                value = mem[a] | (mem[a + 1] << 8) | (mem[a + 2] << 16) | (mem[a + 3] << 24)
                return value - 0x100000000 if value >= 0x80000000 else value

            return read_l
        if isinstance(expr, BinOp):
            left = self._compile_expr(expr.left, func)
            right = self._compile_expr(expr.right, func)
            op = expr.op
            if op == "+":
                return lambda state: wrap32(left(state) + right(state))
            if op == "-":
                return lambda state: wrap32(left(state) - right(state))
            if op == "*":
                return lambda state: wrap32(left(state) * right(state))
            return lambda state: eval_binop(op, left(state), right(state))
        if isinstance(expr, UnOp):
            operand = self._compile_expr(expr.operand, func)
            op = expr.op
            return lambda state: eval_unop(op, operand(state))
        raise TypeError(f"cannot compile expression {expr!r}")

    # instruction compilation --------------------------------------------------------

    def _compile_insn(self, insn: Insn, func: Function) -> Optional[Callable]:
        if isinstance(insn, Assign):
            src = self._compile_expr(insn.src, func)
            if isinstance(insn.dst, Reg):
                bank, index = insn.dst.bank, insn.dst.index
                self._note_reg(bank, index)

                def write_reg(state: MachineState) -> None:
                    state.regs[bank][index] = src(state)

                return write_reg
            addr_fn = self._compile_expr(insn.dst.addr, func)
            width = insn.dst.width
            if width == "B":
                def store_b(state: MachineState) -> None:
                    state.mem[addr_fn(state)] = src(state) & 0xFF

                return store_b
            if width == "W":
                def store_w(state: MachineState) -> None:
                    a = addr_fn(state)
                    value = src(state) & 0xFFFF
                    state.mem[a] = value & 0xFF
                    state.mem[a + 1] = value >> 8

                return store_w

            def store_l(state: MachineState) -> None:
                a = addr_fn(state)
                value = src(state) & 0xFFFFFFFF
                mem = state.mem
                mem[a] = value & 0xFF
                mem[a + 1] = (value >> 8) & 0xFF
                mem[a + 2] = (value >> 16) & 0xFF
                mem[a + 3] = (value >> 24) & 0xFF

            return store_l
        if isinstance(insn, Compare):
            left = self._compile_expr(insn.left, func)
            right = self._compile_expr(insn.right, func)

            def compare(state: MachineState) -> None:
                a = left(state)
                b = right(state)
                state.regs["cc"][0] = (a > b) - (a < b)

            return compare
        if isinstance(insn, Call):
            name = insn.func
            nargs = insn.nargs

            def call(state: MachineState) -> None:
                self._do_call(state, name, nargs)

            return call
        if isinstance(insn, Nop):
            return None  # executes (counted via the block), no effect
        raise TypeError(f"cannot compile instruction {insn!r}")

    def _compile_terminator(
        self,
        block: BasicBlock,
        compiled: _CompiledFunction,
        func: Function,
        index: int,
    ) -> Callable:
        term = block.terminator
        blocks = compiled.blocks
        fall_index = index + 1
        if term is None:
            if fall_index >= len(func.blocks):
                raise ValueError(
                    f"{func.name}: block {block.label} falls off the end"
                )
            fall = blocks[fall_index]
            return lambda state: fall
        if isinstance(term, Jump):
            target = blocks[compiled.label_to_index[term.target]]
            return lambda state: target
        if isinstance(term, Return):
            return lambda state: None
        if isinstance(term, CondBranch):
            target = blocks[compiled.label_to_index[term.target]]
            rel = term.rel
            if fall_index >= len(blocks):
                # A conditional branch ending the function: taking it is
                # fine, falling through is the same runtime error as
                # indexing past the block list used to be.
                import operator

                compare = {
                    "<": operator.lt,
                    "<=": operator.le,
                    ">": operator.gt,
                    ">=": operator.ge,
                    "==": operator.eq,
                    "!=": operator.ne,
                }[rel]
                fname, label = func.name, block.label

                def cond_no_fall(state: MachineState) -> _CompiledBlock:
                    if compare(state.regs["cc"][0], 0):
                        return target
                    raise IndexError(
                        f"{fname}: block {label} falls off the end"
                    )

                return cond_no_fall
            fall = blocks[fall_index]
            if rel == "<":
                return lambda state: target if state.regs["cc"][0] < 0 else fall
            if rel == "<=":
                return lambda state: target if state.regs["cc"][0] <= 0 else fall
            if rel == ">":
                return lambda state: target if state.regs["cc"][0] > 0 else fall
            if rel == ">=":
                return lambda state: target if state.regs["cc"][0] >= 0 else fall
            if rel == "==":
                return lambda state: target if state.regs["cc"][0] == 0 else fall
            return lambda state: target if state.regs["cc"][0] != 0 else fall
        if isinstance(term, IndirectJump):
            addr_fn = self._compile_expr(term.addr, func)
            targets = [blocks[compiled.label_to_index[t]] for t in term.targets]

            def indirect(state: MachineState) -> _CompiledBlock:
                value = addr_fn(state)
                if not 0 <= value < len(targets):
                    raise IndexError(
                        f"indirect jump index {value} out of range in {func.name}"
                    )
                return targets[value]

            return indirect
        raise TypeError(f"cannot compile terminator {term!r}")

    # --- execution ------------------------------------------------------------------

    def run(
        self,
        stdin: bytes = b"",
        trace: bool = False,
        entry: str = "main",
    ) -> ExecutionResult:
        """Execute the program from ``entry``; return the results.

        ``trace=True`` records the block-level trace (``result.trace``
        is a :class:`~repro.ease.trace.CompressedTrace`).
        """
        if entry not in self._functions:
            raise KeyError(f"no function named {entry!r}")
        state = MachineState(stdin, self._bank_sizes)
        self._install_globals(state)
        state.heap_ptr = (self._globals_end + 15) & ~15
        state.stack_limit = MEM_SIZE - (1 << 20)
        entry_frame = MEM_SIZE - self._functions[entry].frame_size - 64

        result = ExecutionResult()
        sink = RleTraceSink() if trace else None
        self._sink = sink
        self._steps_left = self.max_steps
        try:
            self._run_function(state, entry, result, entry_frame)
        except ProgramExit as stop:
            result.exit_code = stop.code
        else:
            result.exit_code = wrap32(state.regs["rv"][0])
        finally:
            self._sink = None
        result._fold_counts()
        if sink is not None:
            result.trace = sink.finish()
        result.output = bytes(state.stdout)
        result.globals_image = bytes(state.mem[64 : self._globals_end])
        return result

    def _do_call(self, state: MachineState, name: str, nargs: int) -> None:
        if name not in self._functions:
            if is_builtin(name):
                state.regs["rv"][0] = wrap32(call_builtin(state, name, nargs))
                return
            raise NameError(f"call to unknown function {name!r}")
        # Callee-save semantics: snapshot every bank, restore all but rv.
        snapshot = {bank: list(values) for bank, values in state.regs.items()}
        result = self._current_result
        result.calls_executed += 1
        frame_base = state.fp - self._functions[name].frame_size - 32
        if frame_base <= state.heap_ptr:
            raise MemoryError("interpreted stack overflow")
        self._run_function(state, name, result, frame_base)
        rv = state.regs["rv"][0]
        for bank, values in snapshot.items():
            state.regs[bank][: len(values)] = values
        state.regs["rv"][0] = rv

    _current_result: ExecutionResult
    _sink: Optional[RleTraceSink] = None

    def _run_function(
        self,
        state: MachineState,
        name: str,
        result: ExecutionResult,
        frame_base: int,
    ) -> None:
        compiled = self._functions[name]
        saved_fp = state.fp
        state.fp = frame_base
        self._current_result = result
        blocks = compiled.blocks
        # Hot loop: everything it touches per step is a local — the dense
        # per-function count list (one list index instead of a tuple-keyed
        # dict update), the sink's bound emit, and the block object itself
        # (terminators return the next _CompiledBlock directly).
        counts = result._counts_for(compiled.name, len(blocks))
        sink = self._sink
        block = blocks[0] if blocks else None
        try:
            if sink is None:
                while block is not None:
                    self._steps_left -= 1
                    if self._steps_left < 0:
                        raise StepLimitExceeded(
                            f"exceeded {self.max_steps} block steps"
                        )
                    counts[block.index] += 1
                    for op in block.ops:
                        op(state)
                    block = block.terminator(state)
            else:
                emit = sink.emit
                while block is not None:
                    self._steps_left -= 1
                    if self._steps_left < 0:
                        raise StepLimitExceeded(
                            f"exceeded {self.max_steps} block steps"
                        )
                    counts[block.index] += 1
                    emit(block.global_id)
                    for op in block.ops:
                        op(state)
                    block = block.terminator(state)
        finally:
            state.fp = saved_fp
            self._current_result = result

    def _note_reg(self, bank: str, index: int) -> None:
        if index >= self._bank_sizes.get(bank, 0):
            self._bank_sizes[bank] = index + 1

    # --- introspection ----------------------------------------------------------------

    def global_block_id(self, func_name: str, block_index: int) -> int:
        return self._global_block_ids[(func_name, block_index)]

    @property
    def functions(self) -> Dict[str, _CompiledFunction]:
        return self._functions

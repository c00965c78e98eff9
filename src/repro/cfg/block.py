"""Basic blocks, functions and whole programs.

The *positional order* of blocks within :attr:`Function.blocks` is
significant: control falls through from each block to its positional
successor unless the block ends in an unconditional transfer.  The paper's
replication algorithm depends on this ("the last block to be replicated will
fall through to the next block"), so every structural transformation in this
code base maintains the invariant that the block list is the layout order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..rtl.insn import CondBranch, IndirectJump, Insn, Jump, Return

__all__ = ["BasicBlock", "Function", "GlobalData", "Program"]


#: Shared empty ancestry — most blocks are never replicated, so they all
#: point at one immutable frozenset instead of allocating per block.
_NO_ANCESTRY: frozenset = frozenset()


class BasicBlock:
    """A maximal straight-line sequence of RTLs with a unique label."""

    __slots__ = ("label", "insns", "preds", "succs", "replica_origin", "replica_ancestry")

    def __init__(self, label: str, insns: Optional[List[Insn]] = None) -> None:
        self.label = label
        self.insns: List[Insn] = insns if insns is not None else []
        self.preds: List["BasicBlock"] = []
        self.succs: List["BasicBlock"] = []
        #: Replication provenance.  ``replica_origin`` is the label of the
        #: *ultimate* original this block is a copy of (``None`` for blocks
        #: the front end created), and ``replica_ancestry`` is the frozen
        #: set of jump identities — ``(origin(jump block), origin(target))``
        #: label pairs — whose replication events this block's existence
        #: transitively depends on.  The replication engine's convergence
        #: guard refuses to re-replicate a jump whose identity already
        #: appears in its own block's ancestry: that is the "replication ad
        #: infinitum" self-similarity of §5.2 (see
        #: :class:`repro.core.replication.CodeReplicator`).
        self.replica_origin: Optional[str] = None
        self.replica_ancestry: frozenset = _NO_ANCESTRY

    @property
    def origin_label(self) -> str:
        """The label identifying this block across replication copies."""
        return self.replica_origin if self.replica_origin is not None else self.label

    # --- terminator helpers -------------------------------------------------

    @property
    def terminator(self) -> Optional[Insn]:
        """The final instruction if it is a control transfer, else ``None``."""
        if self.insns and self.insns[-1].is_transfer():
            return self.insns[-1]
        return None

    def ends_in_jump(self) -> bool:
        return isinstance(self.terminator, Jump)

    def ends_in_return(self) -> bool:
        return isinstance(self.terminator, Return)

    def ends_in_cond_branch(self) -> bool:
        return isinstance(self.terminator, CondBranch)

    def ends_in_indirect_jump(self) -> bool:
        return isinstance(self.terminator, IndirectJump)

    def falls_through(self) -> bool:
        """True when control may continue to the positional successor."""
        term = self.terminator
        return not isinstance(term, (Jump, Return, IndirectJump))

    def size(self) -> int:
        """The number of RTLs in the block (the paper's path weight)."""
        return len(self.insns)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} ({len(self.insns)} insns)>"


@dataclass
class GlobalData:
    """A global variable or constant data item (e.g. a string literal)."""

    name: str
    size: int
    init: bytes = b""
    # Element width for debugging/pretty output; storage is byte-addressed.
    width: str = "B"
    # Relocations: (byte offset, symbol name) pairs — the address of the
    # symbol is patched into the 4 bytes at the offset at load time (used
    # by pointer globals initialized with strings or other globals).
    relocs: List[Tuple[int, str]] = field(default_factory=list)


class Function:
    """A function: parameters, a frame layout, and blocks in layout order."""

    def __init__(self, name: str, params: Optional[Sequence[str]] = None) -> None:
        self.name = name
        self.params: List[str] = list(params or [])
        self.blocks: List[BasicBlock] = []
        # Frame layout: local name -> (byte offset, byte size).
        self.frame: Dict[str, Tuple[int, int]] = {}
        self.frame_size = 0
        # Plain int rather than an ``itertools.count`` so a structural
        # clone (see ``repro.core.replication.clone_function``) can copy
        # the counter state — deterministic replays (the translation
        # validator's pass bisection) depend on clones generating the
        # same fresh labels as the original run.
        self._next_label = 1000
        #: Monotonic CFG-structure counter.  :func:`repro.cfg.graph.compute_flow`
        #: bumps it whenever the block list or any edge actually changed;
        #: cached analyses (see :mod:`repro.cfg.analyses`) key off it.
        self.cfg_edition = 0
        #: The block list as :func:`repro.cfg.graph.compute_flow` last saw
        #: it: the layout the current edition describes.
        self.flow_layout: Tuple[BasicBlock, ...] = ()

    # --- frame management ---------------------------------------------------

    def add_local(self, name: str, size: int) -> None:
        """Reserve ``size`` bytes of frame space for local ``name``."""
        if name in self.frame:
            raise ValueError(f"duplicate local {name!r} in {self.name}")
        # Keep every slot 4-byte aligned; the interpreter relies on it.
        offset = (self.frame_size + 3) & ~3
        self.frame[name] = (offset, size)
        self.frame_size = offset + size

    # --- label and block management ------------------------------------------

    def new_label(self) -> str:
        """Return a label not used by any block of this function."""
        existing = {block.label for block in self.blocks}
        while True:
            label = f"L{self._next_label}"
            self._next_label += 1
            if label not in existing:
                return label

    def block_by_label(self, label: str) -> BasicBlock:
        for block in self.blocks:
            if block.label == label:
                return block
        raise KeyError(f"no block labelled {label!r} in {self.name}")

    def block_index(self, block: BasicBlock) -> int:
        for index, candidate in enumerate(self.blocks):
            if candidate is block:
                return index
        raise ValueError(f"block {block.label} not in function {self.name}")

    def next_block(self, block: BasicBlock) -> Optional[BasicBlock]:
        """The positional successor of ``block`` (fall-through target)."""
        index = self.block_index(block)
        if index + 1 < len(self.blocks):
            return self.blocks[index + 1]
        return None

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    # --- whole-function helpers ----------------------------------------------

    def insns(self) -> Iterable[Insn]:
        for block in self.blocks:
            for insn in block.insns:
                yield insn

    def insn_count(self) -> int:
        return sum(len(block.insns) for block in self.blocks)

    def jump_count(self) -> int:
        """Number of unconditional jump instructions (the paper's metric)."""
        return sum(
            1
            for block in self.blocks
            for insn in block.insns
            if isinstance(insn, Jump)
        )

    def __repr__(self) -> str:
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


class Program:
    """A compiled program: functions plus global data."""

    def __init__(self) -> None:
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalData] = {}
        self._string_counter = itertools.count()

    def add_function(self, func: Function) -> None:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func

    def add_global(self, data: GlobalData) -> None:
        if data.name in self.globals:
            raise ValueError(f"duplicate global {data.name!r}")
        self.globals[data.name] = data

    def intern_string(self, text: str) -> str:
        """Store a NUL-terminated string literal; return its symbol name."""
        payload = text.encode("latin-1") + b"\x00"
        for data in self.globals.values():
            if data.init == payload and data.name.startswith("_str"):
                return data.name
        name = f"_str{next(self._string_counter)}"
        self.add_global(GlobalData(name, len(payload), payload))
        return name

    def insn_count(self) -> int:
        """Static instruction count over all functions."""
        return sum(func.insn_count() for func in self.functions.values())

    def jump_count(self) -> int:
        return sum(func.jump_count() for func in self.functions.values())

    def __repr__(self) -> str:
        return f"<Program {sorted(self.functions)}>"

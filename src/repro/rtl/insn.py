"""RTL instructions.

Each instruction corresponds to one machine instruction of the target, as in
VPO (one RTL = one instruction).  Instructions are mutable: optimizer passes
rewrite them in place, while the expressions they hold are immutable.

Instruction kinds and their textual forms (the paper's notation):

=================  =============================  =========================
Class              Meaning                        Printed form
=================  =============================  =========================
:class:`Assign`    register or memory assignment  ``d[0]=d[0]+1;``
:class:`Compare`   set condition codes            ``NZ=d[0]?L[_n];``
:class:`CondBranch` conditional branch on NZ      ``PC=NZ>=0,L16;``
:class:`Jump`      unconditional jump             ``PC=L15;``
:class:`IndirectJump` jump through a table        ``PC=L[...];``
:class:`Call`      subroutine call                ``CALL _f;``
:class:`Return`    return from subroutine         ``PC=RT;``
:class:`Nop`       no-operation (delay slots)     ``NOP;``
=================  =============================  =========================
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from .expr import _NO_REGS, NZ, Expr, Mem, Reg, reg_set, subst

__all__ = [
    "Insn",
    "Assign",
    "Compare",
    "CondBranch",
    "Jump",
    "IndirectJump",
    "Call",
    "Return",
    "Nop",
    "REVERSED_RELATION",
    "reverse_relation",
    "RELATIONS",
]

# Relations usable in a conditional branch, and their logical negations.
RELATIONS = ("<", "<=", ">", ">=", "==", "!=")
REVERSED_RELATION: Dict[str, str] = {
    "<": ">=",
    ">=": "<",
    ">": "<=",
    "<=": ">",
    "==": "!=",
    "!=": "==",
}

_uid_counter = itertools.count(1)

# Register queries allocate nothing: fixed operand sets are constants.
RV = Reg("rv", 0)
_NZ_REGS = reg_set(NZ)
_RV_REGS = reg_set(RV)


@functools.lru_cache(maxsize=None)
def _arg_regs(nargs: int) -> FrozenSet[Reg]:
    return frozenset(Reg("arg", i) for i in range(nargs))


def _union(a: FrozenSet[Reg], b: FrozenSet[Reg]) -> FrozenSet[Reg]:
    return a | b if a and b else a or b  # an operand itself if one is empty


def reverse_relation(rel: str) -> str:
    """Return the logical negation of a branch relation."""
    return REVERSED_RELATION[rel]


class Insn:
    """Base class of all RTL instructions."""

    __slots__ = ("uid",)

    def __init__(self) -> None:
        # A unique id, stable across copies of the *same* object but fresh
        # for clones; used by measurement and bookkeeping.
        self.uid = next(_uid_counter)

    # --- dataflow interface -------------------------------------------------

    def defined_reg(self) -> Optional[Reg]:
        """The register this instruction writes, if any."""
        return None

    def used_exprs(self) -> Tuple[Expr, ...]:
        """Expressions read by this instruction."""
        return ()

    def used_regs(self) -> FrozenSet[Reg]:
        """Registers read by this instruction (those of :meth:`used_exprs`).

        Built from the expressions' memoized :func:`~repro.rtl.expr.reg_set`,
        so the (immutable) set may be shared with other instructions.
        """
        return _NO_REGS

    def stores_mem(self) -> bool:
        return False

    # --- control-flow interface ---------------------------------------------

    def is_transfer(self) -> bool:
        """True for instructions that may transfer control."""
        return False

    def branch_targets(self) -> Tuple[str, ...]:
        return ()

    def retarget(self, old: str, new: str) -> None:
        """Replace branch target ``old`` by ``new`` (no-op if absent)."""

    # --- structural interface -------------------------------------------------

    def clone(self) -> "Insn":
        raise NotImplementedError

    def substitute(self, mapping: Dict[Expr, Expr]) -> None:
        """Rewrite *used* expressions through ``mapping`` (not definitions)."""


class Assign(Insn):
    """``dst = src`` where ``dst`` is a register or a memory reference."""

    __slots__ = ("dst", "src")

    def __init__(self, dst: Union[Reg, Mem], src: Expr) -> None:
        super().__init__()
        if not isinstance(dst, (Reg, Mem)):
            raise TypeError(f"Assign destination must be Reg or Mem, got {dst!r}")
        self.dst = dst
        self.src = src

    def defined_reg(self) -> Optional[Reg]:
        return self.dst if isinstance(self.dst, Reg) else None

    def used_exprs(self) -> Tuple[Expr, ...]:
        if isinstance(self.dst, Mem):
            # The address of the destination is *read*; the cell is written.
            return (self.dst.addr, self.src)
        return (self.src,)

    def used_regs(self) -> FrozenSet[Reg]:
        dst, regs = self.dst, reg_set(self.src)
        return _union(reg_set(dst.addr), regs) if isinstance(dst, Mem) else regs

    def stores_mem(self) -> bool:
        return isinstance(self.dst, Mem)

    def clone(self) -> "Assign":
        return Assign(self.dst, self.src)

    def substitute(self, mapping: Dict[Expr, Expr]) -> None:
        self.src = subst(self.src, mapping)
        if isinstance(self.dst, Mem):
            self.dst = Mem(subst(self.dst.addr, mapping), self.dst.width)

    def __repr__(self) -> str:
        return f"Assign({self.dst!r}, {self.src!r})"


class Compare(Insn):
    """``NZ = left ? right`` -- set condition codes from ``left - right``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        super().__init__()
        self.left = left
        self.right = right

    def defined_reg(self) -> Optional[Reg]:
        return NZ

    def used_exprs(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def used_regs(self) -> FrozenSet[Reg]:
        return _union(reg_set(self.left), reg_set(self.right))

    def clone(self) -> "Compare":
        return Compare(self.left, self.right)

    def substitute(self, mapping: Dict[Expr, Expr]) -> None:
        self.left = subst(self.left, mapping)
        self.right = subst(self.right, mapping)

    def __repr__(self) -> str:
        return f"Compare({self.left!r}, {self.right!r})"


class CondBranch(Insn):
    """``PC = NZ rel 0, target`` -- branch to ``target`` if the relation holds."""

    __slots__ = ("rel", "target")

    def __init__(self, rel: str, target: str) -> None:
        super().__init__()
        if rel not in RELATIONS:
            raise ValueError(f"bad relation {rel!r}")
        self.rel = rel
        self.target = target

    def used_exprs(self) -> Tuple[Expr, ...]:
        return (NZ,)

    def used_regs(self) -> FrozenSet[Reg]:
        return _NZ_REGS

    def is_transfer(self) -> bool:
        return True

    def branch_targets(self) -> Tuple[str, ...]:
        return (self.target,)

    def retarget(self, old: str, new: str) -> None:
        if self.target == old:
            self.target = new

    def reverse(self, new_target: str) -> None:
        """Negate the relation and branch to ``new_target`` instead."""
        self.rel = reverse_relation(self.rel)
        self.target = new_target

    def clone(self) -> "CondBranch":
        return CondBranch(self.rel, self.target)

    def __repr__(self) -> str:
        return f"CondBranch({self.rel!r}, {self.target!r})"


class Jump(Insn):
    """``PC = target`` -- the unconditional jump this paper eliminates."""

    __slots__ = ("target", "no_replicate")

    def __init__(self, target: str) -> None:
        super().__init__()
        self.target = target
        # Set when the replication engine decided this jump must stay
        # (irreducibility, indirect paths); consulted to avoid retrying.
        self.no_replicate = False

    def is_transfer(self) -> bool:
        return True

    def branch_targets(self) -> Tuple[str, ...]:
        return (self.target,)

    def retarget(self, old: str, new: str) -> None:
        if self.target == old:
            self.target = new

    def clone(self) -> "Jump":
        return Jump(self.target)

    def __repr__(self) -> str:
        return f"Jump({self.target!r})"


class IndirectJump(Insn):
    """``PC = L[addr]`` -- jump through a table; targets are the table entries."""

    __slots__ = ("addr", "targets")

    def __init__(self, addr: Expr, targets: Iterable[str]) -> None:
        super().__init__()
        self.addr = addr
        self.targets: List[str] = list(targets)

    def used_exprs(self) -> Tuple[Expr, ...]:
        return (self.addr,)

    def used_regs(self) -> FrozenSet[Reg]:
        return reg_set(self.addr)

    def is_transfer(self) -> bool:
        return True

    def branch_targets(self) -> Tuple[str, ...]:
        return tuple(self.targets)

    def retarget(self, old: str, new: str) -> None:
        self.targets = [new if t == old else t for t in self.targets]

    def clone(self) -> "IndirectJump":
        return IndirectJump(self.addr, list(self.targets))

    def substitute(self, mapping: Dict[Expr, Expr]) -> None:
        self.addr = subst(self.addr, mapping)

    def __repr__(self) -> str:
        return f"IndirectJump({self.addr!r}, {self.targets!r})"


class Call(Insn):
    """``CALL name`` -- call a function; arguments were placed in arg regs."""

    __slots__ = ("func", "nargs")

    def __init__(self, func: str, nargs: int = 0) -> None:
        super().__init__()
        self.func = func
        self.nargs = nargs

    def used_exprs(self) -> Tuple[Expr, ...]:
        return tuple(Reg("arg", i) for i in range(self.nargs))

    def used_regs(self) -> FrozenSet[Reg]:
        return _arg_regs(self.nargs)

    def defined_reg(self) -> Optional[Reg]:
        return RV

    def stores_mem(self) -> bool:
        # Conservatively assume the callee may write memory.
        return True

    def clone(self) -> "Call":
        return Call(self.func, self.nargs)

    def __repr__(self) -> str:
        return f"Call({self.func!r}, {self.nargs})"


class Return(Insn):
    """``PC = RT`` -- return from the current function."""

    __slots__ = ()

    def is_transfer(self) -> bool:
        return True

    def used_exprs(self) -> Tuple[Expr, ...]:
        return (RV,)

    def used_regs(self) -> FrozenSet[Reg]:
        return _RV_REGS

    def clone(self) -> "Return":
        return Return()

    def __repr__(self) -> str:
        return "Return()"


class Nop(Insn):
    """A no-operation, used to fill RISC delay slots."""

    __slots__ = ()

    def clone(self) -> "Nop":
        return Nop()

    def __repr__(self) -> str:
        return "Nop()"

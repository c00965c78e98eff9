"""Machine descriptions.

A :class:`Machine` answers three questions for the rest of the system:

* ``legal(insn)`` — is this RTL implementable as one instruction of the
  target?  Instruction selection *combines* RTLs only while this holds
  (the Davidson/Fraser discipline used by VPO), and *legalization* splits
  RTLs that violate it.
* ``insn_size(insn)`` — how many bytes of instruction memory the RTL
  occupies (used by the cache simulator's layout).
* ``insn_count(insn)`` — how many machine instructions the RTL stands for
  (almost always 1; address formation on the RISC target costs 2).

The two concrete machines live in :mod:`repro.targets.m68020` and
:mod:`repro.targets.sparc`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..rtl.expr import BinOp, Const, Expr, Local, Reg, Sym
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
from .names import TARGETS

__all__ = [
    "Machine",
    "flatten_sum",
    "is_leaf",
    "get_target",
    "clear_target_cache",
]


def flatten_sum(expr: Expr) -> Optional[List[Expr]]:
    """Flatten a ``+`` tree into its terms; ``None`` if another op occurs."""
    terms: List[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp) and node.op == "+":
            stack.append(node.left)
            stack.append(node.right)
        else:
            terms.append(node)
    return terms


def is_leaf(expr: Expr) -> bool:
    """Leaves usable directly as instruction operands."""
    return isinstance(expr, (Reg, Const, Sym, Local))


class Machine:
    """Base class for target machine descriptions."""

    name = "abstract"
    has_delay_slots = False
    allows_memory_operands = False

    #: Registers available to the colouring allocator.
    pool: Tuple[Reg, ...] = ()
    #: Registers reserved for spill shuttling (never allocated).
    scratch: Tuple[Reg, ...] = ()

    # --- legality ------------------------------------------------------------

    def legal(self, insn: Insn) -> bool:
        """True when ``insn`` can be one instruction of this machine."""
        if isinstance(insn, Assign):
            return self.legal_assign(insn)
        if isinstance(insn, Compare):
            return self.legal_compare(insn)
        # Control transfers, calls and nops are always representable.
        return isinstance(
            insn, (CondBranch, Jump, IndirectJump, Call, Return, Nop)
        )

    def legal_assign(self, insn: Assign) -> bool:
        raise NotImplementedError

    def legal_compare(self, insn: Compare) -> bool:
        raise NotImplementedError

    def legal_addr(self, addr: Expr) -> bool:
        raise NotImplementedError

    # --- sizes & counts --------------------------------------------------------

    def insn_size(self, insn: Insn) -> int:
        raise NotImplementedError

    def insn_count(self, insn: Insn) -> int:
        return 1

    # --- register classification -----------------------------------------------

    def preferred_regs(self, wants_address: bool) -> Tuple[Reg, ...]:
        """Pool order to try when colouring (address-use preference)."""
        return self.pool

    def __repr__(self) -> str:
        return f"<Machine {self.name}>"


#: Machine descriptions are stateless (class-level register pools,
#: pure legality/size methods), so one instance per target serves the
#: whole process.  Warm worker processes rely on this: the pool
#: initializer constructs each target once, and every later cell in
#: that worker reuses it instead of paying per-cell construction.
_INSTANCES: dict = {}


def clear_target_cache() -> None:
    """Drop memoized machine instances (tests of the warm-up path)."""
    _INSTANCES.clear()


def get_target(name: str) -> Machine:
    """Look up a machine description by name ("m68020" or "sparc").

    Memoized per process; the ``targets.machine.{constructed,reused}``
    counters make the reuse observable (the parallel runner's worker
    warm-up asserts construction happens once per worker, not per cell).
    """
    from ..obs import active as _active_observer

    obs = _active_observer()
    machine = _INSTANCES.get(name)
    if machine is not None:
        obs.metrics.inc("targets.machine.reused")
        return machine
    if name not in TARGETS:
        raise ValueError(f"unknown target {name!r}; expected one of {list(TARGETS)}")

    from .m68020 import M68020
    from .sparc import Sparc

    machine = {"m68020": M68020, "sparc": Sparc}[name]()
    _INSTANCES[name] = machine
    obs.metrics.inc("targets.machine.constructed")
    return machine

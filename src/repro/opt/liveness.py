"""Global register liveness analysis.

A classic backward dataflow over the CFG.  Only registers are tracked
(memory is handled conservatively by the passes that need it).  Results
are exposed per block (live-in / live-out sets) plus an in-block iterator
that walks instructions backwards yielding the live-after set of each.

Special registers:

* the return-value register ``rv[0]`` is used by ``Return`` instructions,
  so it is naturally live where it matters;
* argument registers are used by ``Call`` instructions;
* the condition-code register ``cc`` behaves like any other register.

A :class:`Liveness` is a snapshot: it is exact until an instruction or
edge changes in a way that moves some block's use or def set.  Passes
build one per run of work that keeps those sets fixed rather than one
per change — ``combine`` builds one per call (its rewrites never move
any block's live-in or live-out set; the argument is in its docstring)
and code motion one per hoisting round (a loop it fails to hoist from is
left untouched).  With an observer active, every build counts toward
``opt.liveness.builds``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from ..cfg.block import BasicBlock, Function
from ..obs import active as _active_observer
from ..rtl.expr import Reg
from ..rtl.insn import Insn

__all__ = ["Liveness"]


class Liveness:
    """Live-register sets for one function."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.live_in: Dict[int, Set[Reg]] = {}
        self.live_out: Dict[int, Set[Reg]] = {}
        self._compute()
        _active_observer().metrics.inc("opt.liveness.builds")

    def _compute(self) -> None:
        use: Dict[int, Set[Reg]] = {}
        defs: Dict[int, Set[Reg]] = {}
        for block in self.func.blocks:
            u: Set[Reg] = set()
            d: Set[Reg] = set()
            for insn in block.insns:
                for reg in insn.used_regs():
                    if reg not in d:
                        u.add(reg)
                defined = insn.defined_reg()
                if defined is not None:
                    d.add(defined)
            use[id(block)] = u
            defs[id(block)] = d
            self.live_in[id(block)] = set()
            self.live_out[id(block)] = set()

        changed = True
        while changed:
            changed = False
            # Iterate in reverse layout order: close to postorder for the
            # common fall-through-heavy CFGs, converging quickly.
            for block in reversed(self.func.blocks):
                out: Set[Reg] = set()
                for succ in block.succs:
                    out |= self.live_in[id(succ)]
                new_in = use[id(block)] | (out - defs[id(block)])
                if out != self.live_out[id(block)] or new_in != self.live_in[id(block)]:
                    self.live_out[id(block)] = out
                    self.live_in[id(block)] = new_in
                    changed = True

    # --- queries --------------------------------------------------------------

    def block_live_out(self, block: BasicBlock) -> Set[Reg]:
        return self.live_out[id(block)]

    def block_live_in(self, block: BasicBlock) -> Set[Reg]:
        return self.live_in[id(block)]

    def walk_backward(
        self, block: BasicBlock
    ) -> Iterator[Tuple[Insn, Set[Reg]]]:
        """Yield ``(insn, live_after)`` for each instruction, last first.

        The yielded set is shared and mutated between iterations; callers
        must copy it if they keep it.
        """
        live = set(self.live_out[id(block)])
        for insn in reversed(block.insns):
            yield insn, live
            defined = insn.defined_reg()
            if defined is not None:
                live.discard(defined)
            live.update(insn.used_regs())

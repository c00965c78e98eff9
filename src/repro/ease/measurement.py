"""The counts of one measured run: what a result-cache entry pickles.

A leaf module: unpickling a cached :class:`~repro.exec.envelope.CellResult`
imports this class and nothing of the interpreter.
:func:`repro.ease.measure.measure_program` fills it in; entries pickled
when the class lived in :mod:`repro.ease.measure` still load, because
that module re-exports it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["Measurement"]


class Measurement:
    """Counts from one measured run of a program."""

    def __init__(self) -> None:
        self.static_insns = 0
        self.static_jumps = 0
        self.code_bytes = 0
        self.dynamic_insns = 0
        self.dynamic_jumps = 0
        self.dynamic_nops = 0
        self.dynamic_branches = 0  # executed control transfers
        # Executed transfers to a block other than the positional
        # successor, the final return included (traced runs only).
        self.taken_transfers: Optional[int] = None
        self.output = b""
        self.exit_code = 0
        # Per-global-block-id instruction fetch addresses (one entry per
        # machine instruction fetched when the block executes).
        self.block_fetches: Dict[int, List[int]] = {}
        # The block-level trace of a traced run: a ``CompressedTrace``
        # of global block ids.
        self.trace = None

    @property
    def insns_between_branches(self) -> float:
        """Average dynamic instructions per executed control transfer."""
        if self.dynamic_branches == 0:
            return float(self.dynamic_insns)
        return self.dynamic_insns / self.dynamic_branches

    def __repr__(self) -> str:
        return (
            f"<Measurement static={self.static_insns} "
            f"dynamic={self.dynamic_insns} jumps={self.dynamic_jumps}>"
        )

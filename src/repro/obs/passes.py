"""Per-pass timing records — the storage behind pass instrumentation.

One :class:`PassRecord` per optimizer-pass invocation (wall time plus
an RTL / unconditional-jump census delta), accumulated and aggregated
by a :class:`PassTimeline`.

Everything here is plain data (dataclasses of ints/floats/strings) so
the records travel unharmed through ``pickle`` — the parallel execution
layer ships them back from worker processes inside result envelopes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..cfg.block import Function
from ..rtl.insn import Jump

__all__ = ["PassRecord", "PassTimeline", "rtl_count", "jump_count"]


def rtl_count(func: Function) -> int:
    """Number of RTLs currently in ``func``."""
    return sum(len(block.insns) for block in func.blocks)


def jump_count(func: Function) -> int:
    """Number of unconditional jumps currently in ``func``."""
    return sum(
        1 for block in func.blocks for insn in block.insns if isinstance(insn, Jump)
    )


@dataclass
class PassRecord:
    """One pass invocation: wall time and what it did to the code."""

    name: str
    seconds: float
    #: RTL count after minus before (negative = the pass shrank the code).
    rtl_delta: int
    #: Unconditional jumps removed (before minus after; negative = added).
    jumps_removed: int
    #: Whether the pass reported a change (where it reports one).
    changed: bool


@dataclass
class PassTimeline:
    """Accumulates :class:`PassRecord` entries across passes and functions."""

    records: List[PassRecord] = field(default_factory=list)

    def record(
        self,
        name: str,
        seconds: float,
        rtl_delta: int,
        jumps_removed: int,
        changed: bool,
    ) -> None:
        self.records.append(
            PassRecord(name, seconds, rtl_delta, jumps_removed, changed)
        )

    def merge(self, other: "PassTimeline") -> None:
        self.records.extend(other.records)

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Aggregate records by pass name, in first-seen order.

        Each value carries ``calls``, ``changed`` (invocations reporting a
        change), ``seconds``, ``rtl_delta`` and ``jumps_removed`` summed
        over all invocations of that pass.
        """
        result: Dict[str, Dict[str, float]] = {}
        for rec in self.records:
            agg = result.setdefault(
                rec.name,
                {
                    "calls": 0,
                    "changed": 0,
                    "seconds": 0.0,
                    "rtl_delta": 0,
                    "jumps_removed": 0,
                },
            )
            agg["calls"] += 1
            agg["changed"] += 1 if rec.changed else 0
            agg["seconds"] += rec.seconds
            agg["rtl_delta"] += rec.rtl_delta
            agg["jumps_removed"] += rec.jumps_removed
        return result

    def as_dicts(self) -> List[dict]:
        """The raw records as plain dictionaries (JSON/pickle friendly)."""
        return [asdict(rec) for rec in self.records]

    @classmethod
    def from_dicts(cls, rows: Optional[List[dict]]) -> "PassTimeline":
        inst = cls()
        for row in rows or []:
            inst.records.append(PassRecord(**row))
        return inst

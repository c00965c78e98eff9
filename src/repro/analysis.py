"""Static program analysis reports.

Census utilities over a compiled program: instruction-kind histogram,
per-function size breakdown, jump census (how many unconditional jumps
remain and why — the §5.2 leftover categories), and a loop census.
Backs the ``python -m repro stats`` command and is handy in notebooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cfg.analyses import get_analyses
from .cfg.block import Program
from .rtl.insn import (
    Assign,
    Call,
    Compare,
    CondBranch,
    IndirectJump,
    Jump,
    Nop,
    Return,
)
from .targets.machine import Machine

__all__ = [
    "instruction_histogram",
    "function_breakdown",
    "jump_census",
    "loop_census",
    "JumpRecord",
]

_KIND_NAMES = {
    Assign: "assign",
    Compare: "compare",
    CondBranch: "cond-branch",
    Jump: "jump",
    IndirectJump: "indirect-jump",
    Call: "call",
    Return: "return",
    Nop: "nop",
}


def instruction_histogram(program: Program) -> Dict[str, int]:
    """Instruction-kind counts over the whole program."""
    histogram: Dict[str, int] = {name: 0 for name in _KIND_NAMES.values()}
    for func in program.functions.values():
        for insn in func.insns():
            histogram[_KIND_NAMES[type(insn)]] += 1
    return histogram


def function_breakdown(
    program: Program, target: Optional[Machine] = None
) -> List[Tuple[str, int, int, int, int]]:
    """(name, blocks, insns, jumps, code bytes) per function."""
    rows = []
    for name, func in program.functions.items():
        size = (
            sum(target.insn_size(i) for i in func.insns()) if target else 0
        )
        rows.append(
            (name, len(func.blocks), func.insn_count(), func.jump_count(), size)
        )
    return rows


@dataclass
class JumpRecord:
    """One surviving unconditional jump and its §5.2 category."""

    function: str
    block: str
    target: str
    category: str  # "self-loop", "to-indirect", "flagged", "other"


def jump_census(program: Program) -> List[JumpRecord]:
    """Classify every remaining unconditional jump.

    The paper (§5.2) attributes leftovers to indirect jumps, infinite
    loops, and interactions treated conservatively; this reports which.
    """
    records: List[JumpRecord] = []
    for name, func in program.functions.items():
        for block in func.blocks:
            term = block.terminator
            if not isinstance(term, Jump):
                continue
            target = block.succs[0]
            if target is block:
                category = "self-loop"
            elif target.ends_in_indirect_jump():
                category = "to-indirect"
            elif term.no_replicate:
                category = "flagged"
            else:
                category = "other"
            records.append(JumpRecord(name, block.label, term.target, category))
    return records


def loop_census(program: Program) -> List[Tuple[str, str, int, bool]]:
    """(function, header label, member count, contains-jump) per loop."""
    rows = []
    for name, func in program.functions.items():
        info = get_analyses(func).loops()
        for loop in info.loops:
            has_jump = any(block.ends_in_jump() for block in loop.blocks)
            rows.append((name, loop.header.label, len(loop.blocks), has_jump))
    return rows

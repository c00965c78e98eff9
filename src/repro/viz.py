"""Control-flow visualization helpers.

``to_dot`` renders a function's CFG as Graphviz DOT text (one record node
per basic block with its RTLs, fall-through edges solid, branch-taken
edges dashed, back edges bold).  It does not require graphviz to be
installed — it produces plain text.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from .cfg.analyses import get_analyses
from .cfg.block import BasicBlock, Function
from .rtl.insn import CondBranch, IndirectJump, Jump
from .rtl.printer import format_insn

__all__ = ["to_dot"]


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("<", "\\<")
        .replace(">", "\\>")
        .replace("{", "\\{")
        .replace("}", "\\}")
        .replace("|", "\\|")
    )


def _edges(func: Function) -> List[Tuple[BasicBlock, BasicBlock, str]]:
    """(src, dst, kind) with kind in fall/taken/jump/indirect."""
    edges = []
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, Jump):
            kinds = ["jump"]
        elif isinstance(term, CondBranch):
            kinds = ["fall", "taken"]
        elif isinstance(term, IndirectJump):
            kinds = ["indirect"] * len(block.succs)
        else:
            # A return has no successor; any other block falls through.
            kinds = ["fall"]
        for succ, kind in zip(block.succs, kinds):
            edges.append((block, succ, kind))
    return edges


def to_dot(
    func: Function,
    max_insns_per_block: int = 12,
    replicated: Optional[Iterable[str]] = None,
) -> str:
    """Render ``func`` as Graphviz DOT text.

    ``replicated`` names blocks created by code replication (e.g. from
    :meth:`repro.obs.decisions.DecisionLog.replicated_labels` for a
    traced run); they are filled light blue so the replicated tails
    stand out from the original CFG.  Loop headers stay light yellow;
    a replicated loop header keeps the replication color.
    """
    info = get_analyses(func).loops()
    back_edges: Set[Tuple[int, int]] = set()
    for loop in info.loops:
        for tail, header in loop.back_edges:
            back_edges.add((id(tail), id(header)))
    headers = {id(loop.header) for loop in info.loops}
    replicated_labels = set(replicated) if replicated is not None else set()

    lines = [f'digraph "{func.name}" {{']
    lines.append("  node [shape=record, fontname=monospace, fontsize=9];")
    lines.append('  rankdir="TB";')
    for block in func.blocks:
        shown = [format_insn(i) for i in block.insns[:max_insns_per_block]]
        if len(block.insns) > max_insns_per_block:
            shown.append(f"... +{len(block.insns) - max_insns_per_block} more")
        body = "\\l".join(_escape(t) for t in shown)
        if block.label in replicated_labels:
            style = ', style=filled, fillcolor="lightblue"'
        elif id(block) in headers:
            style = ', style=filled, fillcolor="lightyellow"'
        else:
            style = ""
        lines.append(
            f'  "{block.label}" [label="{{{_escape(block.label)}|{body}\\l}}"{style}];'
        )
    for src, dst, kind in _edges(func):
        attrs = []
        if kind == "taken":
            attrs.append("style=dashed")
        elif kind == "jump":
            attrs.append('color="red"')
        elif kind == "indirect":
            attrs.append("style=dotted")
        if (id(src), id(dst)) in back_edges:
            attrs.append("penwidth=2")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{src.label}" -> "{dst.label}"{suffix};')
    lines.append("}")
    return "\n".join(lines)


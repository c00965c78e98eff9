"""Control-flow analysis: blocks, CFG, dominators, loops, reducibility."""

from .analyses import AnalysisManager, get_analyses
from .block import BasicBlock, Function, GlobalData, Program
from .dominators import DominatorTree, compute_dominators
from .graph import build_function, compute_flow, reachable_blocks
from .loops import Loop, LoopInfo, find_loops
from .reducibility import is_reducible
from .traversal import postorder, reverse_postorder

__all__ = [
    "AnalysisManager",
    "get_analyses",
    "BasicBlock",
    "Function",
    "GlobalData",
    "Program",
    "DominatorTree",
    "compute_dominators",
    "build_function",
    "compute_flow",
    "reachable_blocks",
    "Loop",
    "LoopInfo",
    "find_loops",
    "is_reducible",
    "postorder",
    "reverse_postorder",
]

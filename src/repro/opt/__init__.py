"""The VPO-like optimizer: all standard passes plus the Figure-3 driver."""

from .branch_chaining import branch_chaining
from .code_motion import ensure_preheader, loop_invariant_code_motion
from .const_fold import fold_branches, fold_constants, simplify_expr
from .copy_prop import propagate_copies
from .cse import local_cse
from .dead_code import eliminate_dead_code, merge_blocks, remove_unreachable
from .dead_vars import eliminate_dead_variables
from .driver import OptimizationConfig, optimize_function, optimize_program
from .instruction_selection import RegFactory, combine, legalize
from .liveness import Liveness
from .regalloc import color_registers, promote_locals
from .reorder import reorder_blocks
from .strength_reduction import strength_reduce

__all__ = [
    "branch_chaining",
    "ensure_preheader",
    "loop_invariant_code_motion",
    "fold_branches",
    "fold_constants",
    "simplify_expr",
    "local_cse",
    "propagate_copies",
    "eliminate_dead_code",
    "merge_blocks",
    "remove_unreachable",
    "eliminate_dead_variables",
    "OptimizationConfig",
    "optimize_function",
    "optimize_program",
    "RegFactory",
    "combine",
    "legalize",
    "Liveness",
    "color_registers",
    "promote_locals",
    "reorder_blocks",
    "strength_reduce",
]

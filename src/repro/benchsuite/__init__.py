"""The 14-program test set (Table 3) and the evaluation matrix."""

from .programs import PROGRAMS, BenchmarkProgram, program_names
from .runner import clear_cache, run_matrix

__all__ = [
    "PROGRAMS",
    "BenchmarkProgram",
    "program_names",
    "clear_cache",
    "run_matrix",
]

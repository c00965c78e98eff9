"""The 14-program test set (Table 3) and the measurement pipeline."""

from .programs import PROGRAMS, BenchmarkProgram, program_names
from .runner import (
    clear_cache,
    compile_benchmark,
    run_benchmark,
    run_matrix,
)

__all__ = [
    "PROGRAMS",
    "BenchmarkProgram",
    "program_names",
    "clear_cache",
    "compile_benchmark",
    "run_benchmark",
    "run_matrix",
]

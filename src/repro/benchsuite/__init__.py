"""The 14-program test set (Table 3) and the measurement pipeline."""

from .programs import PROGRAMS, BenchmarkProgram, program_names
from .runner import (
    clear_cache,
    compile_benchmark,
    run_benchmark,
    run_matrix,
)
from .scoring import (
    AggregateScore,
    TableScore,
    aggregate_scores,
    candidate_key,
    format_change,
    relative_change,
    score_measurement,
)

__all__ = [
    "PROGRAMS",
    "BenchmarkProgram",
    "program_names",
    "clear_cache",
    "compile_benchmark",
    "run_benchmark",
    "run_matrix",
    "AggregateScore",
    "TableScore",
    "aggregate_scores",
    "candidate_key",
    "format_change",
    "relative_change",
    "score_measurement",
]

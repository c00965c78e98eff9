"""The 14-program test set (Table 3) and the evaluation matrix.

Public names load lazily (:mod:`repro._lazy`): the programs are plain
data, and :func:`run_matrix` loads the execution layer on first use.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".programs": ("PROGRAMS", "BenchmarkProgram", "program_names"),
        ".runner": ("run_matrix",),
    },
)

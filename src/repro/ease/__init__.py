"""EASE-like measurement: RTL interpreter, compiled engine, and counting.

Public names load lazily (:mod:`repro._lazy`): unpickling a cached
``Measurement`` or ``CompressedTrace`` loads neither engine.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".compile": ("CompiledInterpreter", "make_interpreter"),
        ".interp": ("ExecutionResult", "Interpreter", "MachineState", "StepLimitExceeded"),
        ".measurement": ("Measurement",),
        ".measure": ("measure_program",),
        ".runtime": ("ProgramExit", "is_builtin"),
    },
)

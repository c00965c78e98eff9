"""EASE-like measurement: RTL interpreter, compiled engine, and counting."""

from .compile import CompiledInterpreter, make_interpreter
from .interp import ExecutionResult, Interpreter, MachineState, StepLimitExceeded
from .measure import Measurement, measure_program
from .pipeline import (
    PipelineModel,
    PipelineResult,
    measure_pipeline,
    pipeline_cost,
)
from .runtime import ProgramExit, is_builtin

__all__ = [
    "CompiledInterpreter",
    "make_interpreter",
    "ExecutionResult",
    "Interpreter",
    "MachineState",
    "StepLimitExceeded",
    "Measurement",
    "measure_program",
    "PipelineModel",
    "PipelineResult",
    "measure_pipeline",
    "pipeline_cost",
    "ProgramExit",
    "is_builtin",
]

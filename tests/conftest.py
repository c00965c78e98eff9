"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Optional, Tuple

import pytest

from repro.cfg import Function, build_function
from repro.ease import Interpreter
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.rtl import parse_insns
from repro.targets import get_target
from repro.verify import Verifier


def function_from_text(name: str, text: str) -> Function:
    """Build a function from RTL text in the paper's notation."""
    return build_function(name, parse_insns(text))


def run_c(
    source: str,
    stdin: bytes = b"",
    target: Optional[str] = None,
    replication: str = "none",
    max_steps: int = 20_000_000,
) -> Tuple[bytes, int]:
    """Compile mini-C (optionally optimizing) and run it.

    With ``target=None`` the raw front-end output is interpreted —
    the semantic reference used throughout the test suite.  Optimized
    runs go through the sanitizer after every pass, so any test going
    through this helper doubles as an invariant check.
    """
    program = compile_c(source)
    if target is not None:
        optimize_program(
            program,
            get_target(target),
            OptimizationConfig(replication=replication),
            verifier=Verifier("sanitize"),
        )
    result = Interpreter(program, max_steps=max_steps).run(stdin=stdin)
    return result.output, result.exit_code


@pytest.fixture
def make_function():
    return function_from_text

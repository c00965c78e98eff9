"""Translation validation: sanitizer, differential oracle, bisection.

The subsystem behind ``--verify {off,sanitize,full}`` (``CellSpec.verify``):

* :mod:`repro.verify.sanitize` — non-mutating CFG/RTL invariant checks
  run after every pass and replication sweep;
* :mod:`repro.verify.oracle` — differential execution on the EASE
  interpreter (output bytes, exit code, globals memory);
* :mod:`repro.verify.verifier` — the orchestrator: checkpoints, pass
  bisection naming the guilty pass, verification reports.  A
  :class:`Verifier` is the optimizer's one hook object and is never
  absent: mode ``off`` (the default the optimizer builds) only records
  the pass trace, and a bisection replay is ``Verifier("off", budget=k)``;
* :mod:`repro.verify.minimize` — ddmin reducer for failing programs;
* :mod:`repro.verify.fuzz` — deterministic fuzzing campaigns (CI's
  verify-smoke job).
"""

from .errors import MiscompileError, SanitizeError, VerificationError
from .fuzz import generate_program, run_campaign, verify_source
from .minimize import ddmin_lines, minimize_source
from .oracle import Behavior, behavior_diff, capture_behavior, clone_program
from .sanitize import check_sanitized, sanitize_function
from .verifier import Verifier, VERIFY_MODES

__all__ = [
    "VerificationError",
    "SanitizeError",
    "MiscompileError",
    "Behavior",
    "behavior_diff",
    "capture_behavior",
    "clone_program",
    "sanitize_function",
    "check_sanitized",
    "Verifier",
    "VERIFY_MODES",
    "ddmin_lines",
    "minimize_source",
    "generate_program",
    "run_campaign",
    "verify_source",
]

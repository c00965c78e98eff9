"""The verification orchestrator: sanitize, oracle, and pass bisection.

One :class:`Verifier` instance accompanies one ``optimize_program`` run;
there is always one (the optimizer builds a fresh ``Verifier()``, mode
``off``, when the caller passes none).  The driver consults it at four
points:

* ``allow_pass(func, name)`` — before each pass invocation.  It records
  the invocation in ``pass_trace`` and answers True — unless the
  verifier has a pass ``budget`` and that many invocations already ran.
  A bisection *replay* is ``Verifier("off", budget=k)``: the replayed
  pipeline stops after exactly ``k`` pass invocations.
* ``after_pass(func, name)`` — sanitize the function (every mode except
  ``off``).
* ``after_sweep(func, sweep)`` — sanitize after each replication sweep.
* ``after_function(func)`` / ``finish()`` — oracle checkpoints in
  ``full`` mode: the current program is interpreted against the recorded
  inputs and compared with the pristine program's behaviour.

The verifier's :class:`~repro.verify.sanitize.Sanitizer` (a fresh one
per ``begin``) keeps what each function's last clean check established
and re-checks only the expressions, instructions, blocks and edges that
are not the *same objects* (``is``) as then.  A check in which nothing
changed is skipped.  The rule trusts no pass's "changed" flag and needs
no edit API.  ``sanitize_checks`` counts requested checks,
``sanitize_skipped`` the ones skipped (metric ``verify.sanitize.skipped``);
``verify.sanitize.pass``/``fail`` count the checks that ran.

Bisection
---------

Because every pass is deterministic within a process, replaying the
pipeline on a fresh clone of the pristine program reproduces the primary
run's pass sequence exactly — so "the program after the first ``k`` pass
invocations" is a well-defined, recomputable object.  When an oracle
checkpoint fails after ``n`` invocations, a binary search over the
budget ``k`` finds the smallest failing prefix; the guilty pass is the
``k``-th entry of the recorded trace.  ``verify.bisect.steps`` counts
the replays the search needed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..cfg.block import Function, Program
from ..exec.envelope import VERIFY_MODES
from ..obs import active as _active_observer
from ..obs.decisions import ReplicationDecision
from .errors import MiscompileError, SanitizeError
from .oracle import (
    ORACLE_MAX_STEPS,
    capture_behavior,
    clone_program,
    diff_behaviors,
)
from .sanitize import Sanitizer

__all__ = ["Verifier", "VERIFY_MODES"]


class Verifier:
    """Translation validation for one ``optimize_program`` run."""

    def __init__(
        self,
        mode: str = "off",
        inputs: Optional[Sequence[bytes]] = None,
        bisect: bool = True,
        max_steps: int = ORACLE_MAX_STEPS,
        budget: Optional[int] = None,
    ) -> None:
        if mode not in VERIFY_MODES:
            raise ValueError(
                f"verify mode must be one of {'/'.join(VERIFY_MODES)}, got {mode!r}"
            )
        self.mode = mode
        self.inputs: List[bytes] = list(inputs) if inputs else [b""]
        self.bisect = bisect
        self.max_steps = max_steps
        #: Pass invocations allowed (``None``: all); see :meth:`allow_pass`.
        self.budget = budget
        self.pass_trace: List[Tuple[str, str]] = []
        self.executed = 0
        self.sanitize_checks = 0
        self.sanitize_skipped = 0
        self.oracle_runs = 0
        self.bisect_steps = 0
        self.program: Optional[Program] = None
        self.target = None
        self.config = None
        self.pristine: Optional[Program] = None
        self.reference = None
        self._post_regalloc: set = set()
        self._sanitizer = Sanitizer()
        self._failure: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------ lifecycle

    def begin(self, program: Program, target=None, config=None) -> None:
        """Snapshot the pristine program and its reference behaviour."""
        self.program = program
        self.target = target
        self.config = config
        self.pass_trace.clear()
        self.executed = 0
        self._post_regalloc.clear()
        self._sanitizer = Sanitizer()
        self._failure = None
        if self.mode == "full":
            self.pristine = clone_program(program)
            self.reference = capture_behavior(
                self.pristine, self.inputs, self.max_steps
            )

    def finish(self) -> Dict[str, object]:
        """Final oracle checkpoint; returns the verification report."""
        if self.mode == "full" and self.program is not None:
            self._oracle_checkpoint("finish")
        return self.report()

    def report(self) -> Dict[str, object]:
        report: Dict[str, object] = {
            "mode": self.mode,
            "pass_invocations": self.executed,
            "sanitize_checks": self.sanitize_checks,
            "sanitize_skipped": self.sanitize_skipped,
            "oracle_runs": self.oracle_runs,
            "bisect_steps": self.bisect_steps,
        }
        if self._failure is not None:
            report["failure"] = self._failure
        return report

    # ------------------------------------------------------------ pass hooks

    def allow_pass(self, func: Function, name: str) -> bool:
        if self.budget is not None and self.executed >= self.budget:
            return False
        self.executed += 1
        self.pass_trace.append((func.name, name))
        return True

    def after_pass(self, func: Function, name: str) -> None:
        if self.mode == "off":
            return
        if name == "regalloc":
            self._post_regalloc.add(func.name)
        self._sanitize(func, name)

    def after_sweep(self, func: Function, sweep: int) -> None:
        if self.mode == "off":
            return
        self._sanitize(func, f"replication sweep {sweep}")

    def after_function(self, func: Function) -> None:
        if self.mode != "full":
            return
        self._oracle_checkpoint(f"function {func.name}")

    # ------------------------------------------------------------ sanitizer

    def _sanitize(self, func: Function, stage: str) -> None:
        self.sanitize_checks += 1
        violations = self._sanitizer.check(
            func, self.program, func.name in self._post_regalloc
        )
        obs = _active_observer()
        if violations is None:
            self.sanitize_skipped += 1
            obs.metrics.inc("verify.sanitize.skipped")
            return
        obs.metrics.inc(
            "verify.sanitize.fail" if violations else "verify.sanitize.pass"
        )
        if violations:
            self._failure = {
                "kind": "sanitize",
                "function": func.name,
                "stage": stage,
                "violations": violations,
            }
            raise SanitizeError(func.name, stage, violations)

    # ------------------------------------------------------------ the oracle

    def _capture(self, program: Program) -> List:
        self.oracle_runs += 1
        _active_observer().metrics.inc("verify.oracle.runs")
        return capture_behavior(program, self.inputs, self.max_steps)

    def _oracle_checkpoint(self, checkpoint: str) -> None:
        assert self.program is not None and self.reference is not None
        divergence = diff_behaviors(self.reference, self._capture(self.program))
        if divergence is None:
            return
        failure: Dict[str, object] = {
            "kind": "miscompile",
            "checkpoint": checkpoint,
            **divergence,
        }
        if self.bisect:
            failure["bisection"] = self._bisect()
        self._failure = failure
        guilty = (failure.get("bisection") or {}).get("guilty_pass")
        obs = _active_observer()
        obs.metrics.inc("verify.miscompiles")
        if obs.decisions.enabled:
            obs.decisions.record(
                ReplicationDecision(
                    function=checkpoint,
                    block="",
                    target="",
                    mode="verify",
                    policy="oracle",
                    outcome="verify_miscompile",
                    reason=str(guilty or divergence["diff"]),
                )
            )
        message = (
            f"miscompile detected at checkpoint {checkpoint!r} "
            f"(input #{divergence['input_index']}): {divergence['diff']}"
        )
        if guilty:
            message += f"; bisection blames pass {guilty!r}"
        raise MiscompileError(message, {"failure": failure})

    # ------------------------------------------------------------ bisection

    def _replay(self, budget: int) -> Tuple[bool, "Verifier"]:
        """Re-run the pipeline with a pass budget; True = behaviour diverges."""
        from ..opt.driver import optimize_program

        assert self.pristine is not None and self.reference is not None
        program = clone_program(self.pristine)
        replay = Verifier("off", budget=budget)
        optimize_program(program, self.target, self.config, verifier=replay)
        diverged = diff_behaviors(self.reference, self._capture(program))
        return diverged is not None, replay

    def _bisect(self) -> Dict[str, object]:
        """Binary-search the smallest failing pass-invocation prefix."""
        obs = _active_observer()

        def probe(k: int) -> Tuple[bool, Verifier]:
            self.bisect_steps += 1
            obs.metrics.inc("verify.bisect.steps")
            return self._replay(k)

        hi = self.executed
        bad, replay = probe(hi)
        if not bad:
            # The full replay does not reproduce the divergence: some pass
            # is nondeterministic within the process, which bisection
            # cannot attribute.  Report that instead of guessing.
            return {
                "reproduced": False,
                "steps": self.bisect_steps,
                "guilty_pass": None,
            }
        if hi == 0:
            return {
                "reproduced": True,
                "steps": self.bisect_steps,
                "guilty_pass": None,
            }
        lo = 0
        trace = replay.pass_trace
        while hi - lo > 1:
            mid = (lo + hi) // 2
            bad, replay = probe(mid)
            if bad:
                hi = mid
                trace = replay.pass_trace
            else:
                lo = mid
        func_name, pass_name = trace[hi - 1]
        return {
            "reproduced": True,
            "k_bad": hi,
            "k_good": lo,
            "steps": self.bisect_steps,
            "guilty_pass": f"{func_name}:{pass_name}",
            "guilty_function": func_name,
            "guilty_pass_name": pass_name,
        }

"""The per-function replication-policy autotuner.

One :func:`tune` call sweeps, per function of each requested program,
the candidate grid of (policy × max-RTL bound × pass order) through a
:class:`~repro.exec.runner.ParallelRunner` over the optional result
cache, scores every candidate against the program's SIMPLE
configuration with the shared Table-5/6 scoring library, and emits a
versioned :class:`~repro.tune.config.TunedConfig` of per-function
winners.

Correctness guarantees:

* the global baseline is always among the candidates, so a per-function
  winner can never score worse than the fixed global configuration —
  tuned ≥ fixed by construction;
* candidates whose replication statistics show a tripped valve are
  *pruned*, never winners (the §5.2 convergence guard makes trips a
  should-not-happen — a pruned candidate is a bug report, not a loss);
* the combined per-program winner is re-run under ``--verify full``
  (the differential execution oracle) before it is allowed into the
  emitted config; a program whose combined candidate fails the gate
  falls back to the untuned baseline and the failure is reported.

Observability: ``tune.candidates.{evaluated,cache_hit,pruned}`` metrics
and one decision-log event per candidate (mode ``"tune"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..benchsuite.scoring import (
    AggregateScore,
    TableScore,
    aggregate_scores,
    candidate_key,
    score_measurement,
)
from ..exec.envelope import CellResult, CellSpec
from ..exec.runner import ParallelRunner
from ..obs import ReplicationDecision
from ..obs import active as _active_observer
from .config import TunedConfig
from .cutout import Cutout, baseline_candidate, function_names, normalize_rows
from .grid import Candidate, TuneGrid

__all__ = ["tune", "TuneReport", "ProgramTuneReport", "FunctionTuneReport"]


@dataclass
class FunctionTuneReport:
    """How one function's sweep went."""

    function: str
    winner: Candidate
    winner_score: TableScore
    baseline_score: TableScore
    evaluated: int = 0
    cache_hits: int = 0
    pruned: int = 0

    @property
    def improved(self) -> bool:
        return candidate_key(self.winner_score) < candidate_key(self.baseline_score)

    def as_dict(self) -> dict:
        return {
            "function": self.function,
            "winner": {
                "policy": self.winner.policy,
                "max_rtls": self.winner.max_rtls,
                "order": self.winner.order,
            },
            "improved": self.improved,
            "winner_score": self.winner_score.as_dict(),
            "baseline_score": self.baseline_score.as_dict(),
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "pruned": self.pruned,
        }


@dataclass
class ProgramTuneReport:
    """One program's tuning outcome: per-function winners + the gate."""

    program: str
    baseline: TableScore
    tuned: TableScore
    fixed: Dict[str, TableScore]
    functions: List[FunctionTuneReport] = field(default_factory=list)
    #: Translation-validation report of the combined winner (``None``
    #: when the combined candidate equals the baseline — nothing to gate).
    verification: Optional[dict] = None
    #: Set when the combined candidate failed the verify gate and the
    #: program fell back to the untuned baseline.
    gate_failure: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "program": self.program,
            "baseline": self.baseline.as_dict(),
            "tuned": self.tuned.as_dict(),
            "fixed": {name: score.as_dict() for name, score in self.fixed.items()},
            "functions": [f.as_dict() for f in self.functions],
            "verification": self.verification,
            "gate_failure": self.gate_failure,
        }


@dataclass
class TuneReport:
    """Everything one :func:`tune` call produced."""

    target: str
    replication: str
    grid_size: int
    config: TunedConfig
    programs: List[ProgramTuneReport] = field(default_factory=list)
    #: Valve/guard accounting summed over every cell the sweep ran
    #: (candidates, baselines, fixed policies, combined winners).  The
    #: §5.2 convergence guard should keep all ``valve_*`` keys at zero.
    replication_totals: Dict[str, int] = field(default_factory=dict)

    @property
    def tuned_aggregate(self) -> AggregateScore:
        return aggregate_scores([p.tuned for p in self.programs])

    @property
    def baseline_aggregate(self) -> AggregateScore:
        return aggregate_scores([p.baseline for p in self.programs])

    def fixed_aggregate(self, policy: str) -> AggregateScore:
        return aggregate_scores([p.fixed[policy] for p in self.programs])

    def as_dict(self) -> dict:
        policies = sorted(
            set().union(*(p.fixed.keys() for p in self.programs))
            if self.programs
            else set()
        )
        return {
            "target": self.target,
            "replication": self.replication,
            "grid_size": self.grid_size,
            "tuned_aggregate": self.tuned_aggregate.as_dict(),
            "baseline_aggregate": self.baseline_aggregate.as_dict(),
            "replication_totals": dict(sorted(self.replication_totals.items())),
            "fixed_aggregates": {
                policy: self.fixed_aggregate(policy).as_dict()
                for policy in policies
            },
            "programs": [p.as_dict() for p in self.programs],
            "config": self.config.as_dict(),
        }


def _metric(name: str, value: int = 1) -> None:
    obs = _active_observer()
    if obs is not None:
        obs.metrics.inc(name, value)


def _decide(cutout_label: str, candidate: Candidate, outcome: str, reason: str = "") -> None:
    obs = _active_observer()
    if obs is not None and obs.decisions.enabled:
        obs.decisions.record(
            ReplicationDecision(
                function=cutout_label,
                block="",
                target="",
                mode="tune",
                policy=candidate.policy,
                outcome=outcome,
                reason=reason or candidate.label,
            )
        )


def _valve_tripped(result: CellResult) -> bool:
    stats = result.replication_stats or {}
    return bool(stats.get("valve_trips"))


def tune(
    programs: Sequence[str],
    target: str = "sparc",
    replication: str = "jumps",
    policy: str = "shortest",
    max_rtls: Optional[int] = None,
    grid: Optional[TuneGrid] = None,
    workers: Optional[int] = None,
    cache=None,
    verify_gate: bool = True,
    on_progress=None,
) -> TuneReport:
    """Autotune per-function replication for ``programs``.

    Raises :class:`RuntimeError` if any required cell fails outright —
    a tuner that silently drops programs would report a biased aggregate.
    """
    grid = grid or TuneGrid()
    say = on_progress or (lambda _message: None)

    base_specs = {
        program: CellSpec(
            program=program,
            target=target,
            replication=replication,
            policy=policy,
            max_rtls=max_rtls,
        )
        for program in programs
    }
    cutouts = {
        program: [Cutout(program, name) for name in function_names(program)]
        for program in programs
    }

    # ---- round 1: SIMPLE + fixed globals + every candidate cutout ----------
    wanted: Dict[CellSpec, None] = {}

    def want(spec: CellSpec) -> CellSpec:
        wanted.setdefault(spec, None)
        return spec

    simple_specs = {
        program: want(replace(base, replication="none", tuned=None))
        for program, base in base_specs.items()
    }
    fixed_specs = {
        program: {
            fixed_policy: want(replace(base, policy=fixed_policy, tuned=None))
            for fixed_policy in grid.policies
        }
        for program, base in base_specs.items()
    }
    candidate_specs: Dict[str, Dict[Cutout, Dict[Candidate, CellSpec]]] = {}
    for program, base in base_specs.items():
        want(base)  # the global baseline (tuned=None)
        per_cutout: Dict[Cutout, Dict[Candidate, CellSpec]] = {}
        for cutout in cutouts[program]:
            per_candidate = {}
            for candidate in grid.candidates():
                per_candidate[candidate] = want(cutout.spec_for(base, candidate))
            baseline = baseline_candidate(base)
            per_candidate.setdefault(baseline, want(base))
            per_cutout[cutout] = per_candidate
        candidate_specs[program] = per_cutout

    sweep = list(wanted)
    say(
        f"sweeping {len(sweep)} cells "
        f"({len(programs)} programs x {len(grid)} grid points, deduplicated)"
    )
    runner = ParallelRunner(workers=workers, cache=cache)
    by_spec = dict(zip(sweep, runner.run(sweep)))

    failures = [r for r in by_spec.values() if not r.ok]
    if failures:
        first = failures[0]
        raise RuntimeError(
            f"{len(failures)} tuning cell(s) failed; first: "
            f"{first.spec.label}: {(first.error or '').strip().splitlines()[-1]}"
        )

    # ---- per-function scoring and winner selection -------------------------
    config = TunedConfig(
        target=target,
        replication=replication,
        baseline=Candidate(policy=policy, max_rtls=max_rtls),
        programs={},
    )
    function_reports: Dict[str, List[FunctionTuneReport]] = {}
    for program in programs:
        base = base_specs[program]
        simple = by_spec[simple_specs[program]].measurement
        baseline_result = by_spec[base]
        baseline_score = score_measurement(
            program, baseline_result.measurement, simple
        )
        winners: Dict[str, Candidate] = {}
        reports: List[FunctionTuneReport] = []
        for cutout, per_candidate in candidate_specs[program].items():
            best: Optional[Candidate] = None
            best_score: Optional[TableScore] = None
            evaluated = cache_hits = pruned = 0
            for candidate, spec in per_candidate.items():
                result = by_spec[spec]
                evaluated += 1
                _metric("tune.candidates.evaluated")
                if result.cache_hit:
                    cache_hits += 1
                    _metric("tune.candidates.cache_hit")
                if _valve_tripped(result):
                    pruned += 1
                    _metric("tune.candidates.pruned")
                    _decide(cutout.label, candidate, "pruned", "valve_trip")
                    continue
                score = score_measurement(program, result.measurement, simple)
                _decide(cutout.label, candidate, "evaluated")
                if best_score is None or candidate_key(score) < candidate_key(
                    best_score
                ):
                    best, best_score = candidate, score
            assert best is not None and best_score is not None, (
                f"every candidate of {cutout.label} was pruned"
            )
            _decide(cutout.label, best, "winner")
            winners[cutout.function] = best
            reports.append(
                FunctionTuneReport(
                    function=cutout.function,
                    winner=best,
                    winner_score=best_score,
                    baseline_score=baseline_score,
                    evaluated=evaluated,
                    cache_hits=cache_hits,
                    pruned=pruned,
                )
            )
        rows = normalize_rows(winners, baseline_candidate(base))
        if rows is not None:
            config.programs[program] = {
                function: candidate
                for function, candidate in winners.items()
                if candidate != baseline_candidate(base)
            }
        function_reports[program] = reports

    # ---- round 2: combined winners, under the verify gate ------------------
    combined_specs = {
        program: replace(
            base_specs[program],
            tuned=config.tuned_rows(program),
            verify="full" if verify_gate and config.tuned_rows(program) else None,
        )
        for program in programs
    }
    to_run = [
        spec
        for program, spec in combined_specs.items()
        if spec not in by_spec
    ]
    if to_run:
        say(
            f"verifying {len(to_run)} combined winner(s) "
            f"({'full differential oracle' if verify_gate else 'no gate'})"
        )
        by_spec.update(zip(to_run, runner.run(to_run)))

    totals: Dict[str, int] = {}
    for result in by_spec.values():
        for key in (
            "valve_trips",
            "valve_block_trips",
            "valve_budget_trips",
            "guard_stops",
        ):
            totals[key] = totals.get(key, 0) + int(
                (result.replication_stats or {}).get(key, 0)
            )

    report = TuneReport(
        target=target,
        replication=replication,
        grid_size=len(grid),
        config=config,
        replication_totals=totals,
    )
    for program in programs:
        base = base_specs[program]
        simple = by_spec[simple_specs[program]].measurement
        baseline_score = score_measurement(program, by_spec[base].measurement, simple)
        combined = by_spec[combined_specs[program]]
        verification = combined.verification
        gate_failure = None
        if not combined.ok:
            # The combined candidate failed (in practice: the verify
            # gate's differential oracle): fall back to the baseline.
            gate_failure = (combined.error or "unknown").strip().splitlines()[-1]
            config.programs.pop(program, None)
            tuned_score = baseline_score
        else:
            tuned_score = score_measurement(program, combined.measurement, simple)
        report.programs.append(
            ProgramTuneReport(
                program=program,
                baseline=baseline_score,
                tuned=tuned_score,
                fixed={
                    fixed_policy: score_measurement(
                        program, by_spec[spec].measurement, simple
                    )
                    for fixed_policy, spec in fixed_specs[program].items()
                },
                functions=function_reports[program],
                verification=verification,
                gate_failure=gate_failure,
            )
        )
        say(
            f"{program}: tuned dynamic {report.programs[-1].tuned.formatted()[1]}"
            f" (baseline {baseline_score.formatted()[1]})"
        )
    return report

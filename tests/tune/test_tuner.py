"""The per-function autotuner sweep.

Small inline programs keep the matrix cheap; the properties pinned here
are the tuner's contract, not the suite numbers (those live in
``benchmarks/bench_autotune.py``):

* the winner of every function scores no worse than the global baseline
  (the baseline is a grid point, so this holds by construction);
* applying the emitted tuned config as ``tuned`` rows reproduces the
  winning candidate's metrics *exactly*, through the API, the cell
  runner and ``repro measure --tuned-config`` alike;
* identical sweeps reuse the persistent result cache;
* the sweep emits ``tune.candidates.*`` metrics and decision-log events.
"""

import re

import pytest

from repro.api import compile_and_measure
from repro.benchsuite.scoring import candidate_key
from repro.exec import ResultCache
from repro.obs import observing
from repro.tune import (
    Candidate,
    TunedConfig,
    TuneGrid,
    load_tuned_config,
    tune,
)

TWO_FUNCTIONS = """
int scale(int x) {
    int k;
    k = 0;
    while (x > 0) {
        k = k + x;
        x = x - 1;
    }
    return k;
}

int main() {
    int i, j, acc;
    acc = 0;
    for (i = 0; i < 12; i++) {
        for (j = 0; j < 6; j++) {
            acc = acc + i + j;
        }
    }
    acc = acc + scale(9);
    printf("%d\\n", acc);
    return 0;
}
"""

GRID = TuneGrid(
    policies=("shortest", "returns"),
    bounds=(None, 4),
    orders=("standard", "late"),
)

# A favor-returns global baseline: ``shortest`` wins both functions of
# TWO_FUNCTIONS, so the emitted config carries real non-baseline rows
# and the verify gate actually runs.
BASELINE_POLICY = "returns"


@pytest.fixture(scope="module")
def report():
    return tune([TWO_FUNCTIONS], grid=GRID, workers=2, policy=BASELINE_POLICY)


class TestSweep:
    def test_covers_every_function(self, report):
        [program_report] = report.programs
        assert {f.function for f in program_report.functions} == {"scale", "main"}
        for function_report in program_report.functions:
            assert function_report.evaluated == len(GRID)
            assert function_report.pruned == 0

    def test_winner_never_loses_to_the_baseline(self, report):
        [program_report] = report.programs
        for function_report in program_report.functions:
            assert candidate_key(function_report.winner_score) <= candidate_key(
                function_report.baseline_score
            )
        assert candidate_key(program_report.tuned) <= candidate_key(
            program_report.baseline
        )

    def test_tuned_never_loses_to_any_fixed_policy(self, report):
        [program_report] = report.programs
        # The headline guarantee, per program: the per-function winners
        # compose into a configuration at least as good (dynamically) as
        # the best fixed global policy in the grid.
        best_fixed = min(
            program_report.fixed.values(),
            key=lambda score: score.dynamic_insns,
        )
        assert program_report.tuned.dynamic_insns <= best_fixed.dynamic_insns

    def test_combined_winner_passed_the_verify_gate(self, report):
        [program_report] = report.programs
        assert program_report.gate_failure is None
        assert report.config.programs  # a non-baseline winner exists
        assert program_report.verification is not None
        assert program_report.verification["mode"] == "full"

    def test_report_dict_is_json_ready(self, report):
        import json

        payload = report.as_dict()
        json.dumps(payload)
        assert payload["grid_size"] == len(GRID)
        assert payload["tuned_aggregate"]["programs"] == 1


class TestEmittedConfig:
    def test_applying_the_config_reproduces_the_winner_exactly(
        self, report, tmp_path
    ):
        # The property the whole artifact hangs on: replaying the tuned
        # config's rows yields the very numbers the tuner reported for
        # the combined winner.
        path = tmp_path / "tuned.json"
        report.config.save(path)
        config = load_tuned_config(path)
        [program_report] = report.programs
        replayed = compile_and_measure(
            TWO_FUNCTIONS,
            replication="jumps",
            policy=config.baseline.policy,
            tuned=config.overrides_for(TWO_FUNCTIONS),
        )
        assert replayed.measurement.dynamic_insns == program_report.tuned.dynamic_insns
        assert replayed.measurement.static_insns == program_report.tuned.static_insns
        assert replayed.measurement.code_bytes == program_report.tuned.code_bytes

    def test_execute_cell_threads_tuned_rows(self, report):
        # The cell runner and the API run one pipeline: the same rows
        # give the same counts either way, and the tuner's numbers.
        from repro.exec.envelope import CellSpec
        from repro.exec.runner import execute_cell

        rows = report.config.tuned_rows(TWO_FUNCTIONS)
        assert rows is not None
        result = execute_cell(
            CellSpec(
                program=TWO_FUNCTIONS,
                replication="jumps",
                policy=BASELINE_POLICY,
                tuned=rows,
            )
        )
        assert result.ok, result.error
        [program_report] = report.programs
        assert result.measurement.dynamic_insns == program_report.tuned.dynamic_insns
        assert result.measurement.static_insns == program_report.tuned.static_insns
        api = compile_and_measure(
            TWO_FUNCTIONS, replication="jumps", policy=BASELINE_POLICY, tuned=rows
        ).measurement
        for field in ("static_insns", "dynamic_insns", "code_bytes"):
            assert getattr(api, field) == getattr(result.measurement, field), field

    def test_measure_cli_pins_winners_equal_to_the_baseline(
        self, tmp_path, capsys
    ):
        # ``shortest`` wins wc's main and is also the file's baseline; a
        # replay under ``--policy returns`` must still run main under
        # ``shortest`` (the two differ in static size on wc).
        from repro.cli import main

        path = tmp_path / "tuned.json"
        TunedConfig(
            baseline=Candidate("shortest"),
            programs={"wc": {"main": Candidate("shortest")}},
        ).save(path)
        argv = ["measure", "wc", "--replication", "jumps", "--policy", "returns"]

        def static_insns(extra):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            return int(re.search(r"static instructions\s+(\d+)", out).group(1))

        shortest = compile_and_measure("wc", replication="jumps").measurement
        assert static_insns([]) != shortest.static_insns
        assert static_insns(["--tuned-config", str(path)]) == shortest.static_insns


class TestCacheReuse:
    def test_second_sweep_is_all_cache_hits(self, tmp_path):
        grid = TuneGrid(
            policies=("shortest",), bounds=(None,), orders=("standard", "late")
        )
        cache = ResultCache(tmp_path / "cache")
        cold = tune(
            [TWO_FUNCTIONS], grid=grid, workers=1, cache=cache, verify_gate=False
        )
        warm = tune(
            [TWO_FUNCTIONS], grid=grid, workers=1, cache=cache, verify_gate=False
        )
        cold_hits = sum(
            f.cache_hits for p in cold.programs for f in p.functions
        )
        warm_hits = sum(
            f.cache_hits for p in warm.programs for f in p.functions
        )
        warm_evaluated = sum(
            f.evaluated for p in warm.programs for f in p.functions
        )
        assert cold_hits == 0
        assert warm_hits == warm_evaluated  # every candidate came from cache
        assert warm.config == cold.config


class TestObservability:
    def test_metrics_and_decisions_are_emitted(self, tmp_path):
        grid = TuneGrid(
            policies=("shortest",), bounds=(None,), orders=("standard", "late")
        )
        with observing() as observer:
            tune([TWO_FUNCTIONS], grid=grid, workers=1, verify_gate=False)
        counters = observer.metrics.counters
        assert counters["tune.candidates.evaluated"] == 2 * len(grid)
        assert "tune.candidates.pruned" not in counters
        tune_decisions = [
            d for d in observer.decisions.decisions if d.mode == "tune"
        ]
        assert any(d.outcome == "winner" for d in tune_decisions)
        assert any(d.outcome == "evaluated" for d in tune_decisions)

"""Ablation — the step-2 heuristic of JUMPS (§4, step 2).

The paper leaves the choice between "favoring returns" and "favoring
loops" to a heuristic.  This harness compares three policies: shortest
sequence (the default), always-favor-returns and always-favor-loops, on
static growth and dynamic savings.

Scores come from :mod:`repro.benchsuite.scoring` — the same code path
the per-function autotuner uses, so a bench row and a tuner decision can
never disagree (a parity test pins this).
"""

from __future__ import annotations

from repro.benchsuite import run_benchmark
from repro.benchsuite.scoring import aggregate_scores, score_measurement
from repro.report import format_table

from conftest import selected_programs

POLICIES = ("shortest", "returns", "loops")


def test_policy_ablation(benchmark, suite_measurements):
    def build():
        rows = []
        scores = {policy: [] for policy in POLICIES}
        for name in selected_programs():
            simple = suite_measurements[("sparc", "none", name)]
            row = [name]
            for policy in POLICIES:
                m = run_benchmark(
                    name, target="sparc", replication="jumps", policy=policy
                )
                score = score_measurement(name, m, simple)
                scores[policy].append(score)
                row.extend(score.formatted())
            rows.append(row)
        return rows, scores

    (rows, scores) = benchmark.pedantic(build, rounds=1, iterations=1)
    headers = ["program"]
    for p in POLICIES:
        headers += [f"{p} st", f"{p} dyn"]
    print()
    print("Ablation: JUMPS step-2 policy (SPARC, vs SIMPLE)")
    print(format_table(headers, rows))

    # All policies must preserve behaviour and eliminate the jumps; the
    # shortest policy should not replicate more than favoring returns on
    # average (it minimizes growth by construction).
    shortest = aggregate_scores(scores["shortest"])
    returns = aggregate_scores(scores["returns"])
    shortest_static = shortest.static_insns_total / shortest.programs
    returns_static = returns.static_insns_total / returns.programs
    assert shortest_static <= returns_static * 1.05

"""Ablation — the step-2 heuristic of JUMPS (§4, step 2).

The paper leaves the choice between "favoring returns" and "favoring
loops" to a heuristic.  This harness compares three policies: shortest
sequence (the default), always-favor-returns and always-favor-loops, on
static growth and dynamic savings.  The policy is one global knob
(``--policy``), as in the paper: every function of a program runs under
the same heuristic.
"""

from __future__ import annotations

from repro.benchsuite import run_benchmark
from repro.report import format_table, mean, pct

from conftest import selected_programs

POLICIES = ("shortest", "returns", "loops")


def test_policy_ablation(benchmark, suite_measurements):
    def build():
        rows = []
        static = {policy: [] for policy in POLICIES}
        for name in selected_programs():
            simple = suite_measurements[("sparc", "none", name)]
            row = [name]
            for policy in POLICIES:
                m = run_benchmark(
                    name, target="sparc", replication="jumps", policy=policy
                )
                static[policy].append(m.static_insns)
                row.append(pct(m.static_insns, simple.static_insns))
                row.append(pct(m.dynamic_insns, simple.dynamic_insns))
            rows.append(row)
        return rows, static

    (rows, static) = benchmark.pedantic(build, rounds=1, iterations=1)
    headers = ["program"]
    for p in POLICIES:
        headers += [f"{p} st", f"{p} dyn"]
    print()
    print("Ablation: JUMPS step-2 policy (SPARC, vs SIMPLE)")
    print(format_table(headers, rows))

    # All policies must preserve behaviour and eliminate the jumps; the
    # shortest policy should not replicate more than favoring returns on
    # average (it minimizes growth by construction).
    assert mean(static["shortest"]) <= mean(static["returns"]) * 1.05

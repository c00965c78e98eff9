"""Ablation — bounding the replication sequence length (§6, future work).

"The increase in code size could be reduced by limiting the maximum
length of a replication sequence to a specified number of RTLs.  The
improvements in the dynamic behavior may drop slightly for this case
while the performance of small caches should benefit."

This harness sweeps the global bound (``--max-rtls``) and reports the
mean static growth and dynamic savings relative to SIMPLE.
"""

from __future__ import annotations

from repro.benchsuite import run_benchmark
from repro.report import format_table, mean

from conftest import selected_programs

BOUNDS = (2, 4, 8, 16, None)


def test_maxlen_ablation(benchmark, suite_measurements):
    def build():
        rows = []
        for bound in BOUNDS:
            static, dynamic = [], []
            for name in selected_programs():
                simple = suite_measurements[("sparc", "none", name)]
                m = run_benchmark(
                    name, target="sparc", replication="jumps", max_rtls=bound
                )
                static.append(
                    (m.static_insns - simple.static_insns) / simple.static_insns
                )
                dynamic.append(
                    (m.dynamic_insns - simple.dynamic_insns) / simple.dynamic_insns
                )
            label = str(bound) if bound is not None else "unbounded"
            rows.append(
                [label, f"{mean(static) * 100:+.2f}%", f"{mean(dynamic) * 100:+.2f}%"]
            )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print("Ablation: max replication sequence length (SPARC, mean vs SIMPLE)")
    print(format_table(["max RTLs", "Δ static", "Δ dynamic"], rows))

    # Shape: static growth is monotone non-decreasing in the bound, and the
    # unbounded configuration saves at least as much dynamically as the
    # tightest bound.
    static_growth = [float(r[1].rstrip("%")) for r in rows]
    assert static_growth[0] <= static_growth[-1] + 0.2
    dyn_change = [float(r[2].rstrip("%")) for r in rows]
    assert dyn_change[-1] <= dyn_change[0] + 0.2

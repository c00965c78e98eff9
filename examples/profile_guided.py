#!/usr/bin/env python3
"""Extension demo: profile-guided code replication.

The paper's JUMPS replicates every unconditional jump (+53 % static code
on average).  Guided by a training run, replication can be restricted to
the jumps that actually execute — most of the speedup for a fraction of
the growth, and cold/error paths keep their compact layout.

Run:  python examples/profile_guided.py [benchmark]
"""

import sys

from repro.benchsuite import PROGRAMS
from repro.ease import measure_program
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.report import format_table, pct
from repro.targets import get_target


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "quicksort"
    bench = PROGRAMS[name]
    target = get_target("sparc")
    print(f"program: {name} (SPARC)")

    rows = []
    baseline = None
    for label, build in [
        ("SIMPLE", lambda: _classic(bench, target, "none")),
        ("JUMPS (all)", lambda: _classic(bench, target, "jumps")),
        ("PGO t=0", lambda: _pgo(bench, target, 0.0)),
        ("PGO t=0.05", lambda: _pgo(bench, target, 0.05)),
        ("PGO t=0.25", lambda: _pgo(bench, target, 0.25)),
    ]:
        m, extra = build()
        if baseline is None:
            baseline = m
        rows.append(
            [
                label,
                m.static_insns,
                pct(m.static_insns, baseline.static_insns),
                m.dynamic_insns,
                pct(m.dynamic_insns, baseline.dynamic_insns),
                extra,
            ]
        )
    print(
        format_table(
            ["config", "static", "Δ", "dynamic", "Δ", "hot/cold jumps"], rows
        )
    )


def _classic(bench, target, replication):
    program = compile_c(bench.source)
    optimize_program(program, target, OptimizationConfig(replication=replication))
    return measure_program(program, target, stdin=bench.stdin), "-"


def _pgo(bench, target, threshold):
    program = compile_c(bench.source)
    config = OptimizationConfig(
        replication="jumps", profile_threshold=threshold, train_stdin=bench.stdin
    )
    stats = optimize_program(program, target, config)
    m = measure_program(program, target, stdin=bench.stdin)
    return m, f"{stats.hot_jumps}/{stats.cold_jumps}"


if __name__ == "__main__":
    main()

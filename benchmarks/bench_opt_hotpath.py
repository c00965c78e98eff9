"""Acceptance benchmark for the demand-driven step-1 engine (PR 3).

Measures the optimizer's replication hot path — the JUMPS pass and its
step-1 shortest-path share — under demand-driven Dijkstra (``lazy``, the
product :class:`repro.core.ShortestPaths`) and the paper's Floyd/Warshall
matrix (``dense``, the test oracle
:class:`repro.verify.floyd_warshall.ShortestPathMatrix`, swapped in by
patching ``repro.core.replication.ShortestPaths``), and records the
results in ``BENCH_OPT.json`` at the repository root:

1. **Table-3 suite** — the 14 benchmark programs through the full JUMPS
   pipeline, dense vs lazy, with the per-pass time split read off the
   tracer spans (``jumps.sweep`` / ``jumps.step1.shortest_paths``).
2. **Fuzzed functions** — deterministic ≥200-block unstructured CFGs
   (the regime where the dense O(n³) Floyd/Warshall matrix hurts),
   bounded JUMPS runs, dense vs lazy.  The acceptance bar is a ≥2×
   JUMPS wall-time reduction here.
3. **AnalysisManager** — cold (invalidated) vs warm (cached) natural-loop
   queries on the largest fuzzed function.

Every engine comparison doubles as a differential test: the benchmark
exits non-zero if the two engines produce different replication decision
logs or different final RTL anywhere.

Usage::

    PYTHONPATH=src python benchmarks/bench_opt_hotpath.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

from repro.benchsuite import PROGRAMS, program_names
from repro.cfg import get_analyses
from repro.cfg.block import BasicBlock, Function
from repro.cfg.graph import compute_flow
from repro.core import CodeReplicator, Policy, ReplicationMode, clone_function
from repro.frontend import compile_c
from repro.obs import observing
from repro.opt import OptimizationConfig, optimize_program
from repro.rtl import (
    Assign,
    BinOp,
    Compare,
    CondBranch,
    Const,
    Jump,
    Reg,
    Return,
    format_function,
)
from repro.targets import get_target
from repro.verify.floyd_warshall import ShortestPathMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent

ENGINES = ("dense", "lazy")


def step1(engine: str):
    """Context running replication on ``engine``: the product or the oracle."""
    if engine == "lazy":
        return nullcontext()
    return mock.patch("repro.core.replication.ShortestPaths", ShortestPathMatrix)


# --------------------------------------------------------------- fuzzed CFGs


def fuzzed_function(n_blocks: int, seed: int) -> Function:
    """A deterministic unstructured CFG in the style of the fuzzer tests.

    Fuel-bounded like ``tests/core/test_random_cfgs.py``: every block
    burns one unit, backward conditional branches stop once the fuel is
    gone, and unconditional jumps (~6% of blocks — Table 2 reports jumps
    are 4-8% of instructions in real code) only go forward.
    """
    rng = random.Random(seed)
    fuel = Reg("d", 6)
    func = Function(f"fuzz{seed}")
    entry = BasicBlock("INIT")
    entry.insns.append(Assign(fuel, Const(n_blocks * 3)))
    for k in range(4):
        entry.insns.append(Assign(Reg("d", k), Const(rng.randint(-9, 9))))
    blocks = [BasicBlock(f"N{i}") for i in range(n_blocks)]
    func.blocks = [entry] + blocks
    for index, block in enumerate(blocks):
        block.insns.append(Assign(fuel, BinOp("-", fuel, Const(1))))
        for _ in range(rng.randint(0, 2)):
            dst = Reg("d", rng.randint(0, 3))
            op = rng.choice(["+", "-", "*", "^", "&", "|"])
            block.insns.append(
                Assign(dst, BinOp(op, Reg("d", rng.randint(0, 3)), Const(rng.randint(-7, 7))))
            )
        is_last = index == n_blocks - 1
        roll = rng.random()
        if is_last or roll < 0.04:
            block.insns.append(Assign(Reg("rv", 0), Reg("d", 0)))
            block.insns.append(Return())
        elif roll < 0.10:  # ~6% unconditional forward jumps
            block.insns.append(Jump(f"N{rng.randint(index + 1, n_blocks - 1)}"))
        elif roll < 0.55:
            target = rng.randint(0, n_blocks - 1)
            if target != index:
                block.insns.append(Compare(fuel, Const(0)))
                block.insns.append(CondBranch(">", f"N{target}"))
        # otherwise: fall through.
    compute_flow(func)
    return func


# ------------------------------------------------------------- measurement


def span_totals(spans):
    """Summed duration per span name."""
    totals = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["duration"]
    return totals


def run_suite(engine: str, programs):
    """Full JUMPS pipeline over the suite under one engine."""
    decisions = []
    rtl = {}
    opt_seconds = 0.0
    jumps_seconds = 0.0
    step1_seconds = 0.0
    for name in programs:
        program = compile_c(PROGRAMS[name].source)
        config = OptimizationConfig(replication="jumps")
        with observing() as obs, step1(engine):
            start = time.perf_counter()
            optimize_program(program, get_target("sparc"), config)
            opt_seconds += time.perf_counter() - start
        totals = span_totals(obs.snapshot()["spans"])
        jumps_seconds += totals.get("jumps.sweep", 0.0)
        step1_seconds += totals.get("jumps.step1.shortest_paths", 0.0)
        decisions.extend(obs.decisions.as_dicts())
        rtl[name] = "\n\n".join(
            format_function(f) for f in program.functions.values()
        )
    return {
        "opt_seconds": round(opt_seconds, 4),
        "jumps_seconds": round(jumps_seconds, 4),
        "step1_seconds": round(step1_seconds, 4),
        "step1_share": round(step1_seconds / jumps_seconds, 4)
        if jumps_seconds
        else 0.0,
        "_decisions": decisions,
        "_rtl": rtl,
    }


FUZZ_MAX_RTLS = 16


def run_fuzz_case(func: Function, engine: str):
    """One bounded JUMPS run; returns timings + parity fingerprints.

    The §6 sequence-length bound (``max_rtls``) matters here: without it
    the pass spends most of its time in tentative apply / reducibility /
    undo cycles for long hopeless sequences — work identical under both
    engines — which drowns the step-1 comparison the case exists to make.
    """
    work = clone_function(func)
    replicator = CodeReplicator(
        mode=ReplicationMode.JUMPS,
        policy=Policy.SHORTEST,
        max_replications_per_function=80,
        max_function_blocks=len(func.blocks) * 2,
        max_rtls=FUZZ_MAX_RTLS,
    )
    with observing() as obs, step1(engine):
        start = time.perf_counter()
        replicator.run(work)
        wall = time.perf_counter() - start
    totals = span_totals(obs.snapshot()["spans"])
    return {
        "seconds": wall,
        "step1_seconds": totals.get("jumps.step1.shortest_paths", 0.0),
        "decisions": obs.decisions.as_dicts(),
        "rtl": format_function(work),
        "dijkstra_runs": obs.metrics.counters.get("sssp.dijkstra_runs", 0),
    }


def bench_analysis_cache(func: Function, repeats: int):
    """Cold (invalidated) vs warm (cached) loop queries on one function."""
    am = get_analyses(func)
    start = time.perf_counter()
    for _ in range(repeats):
        am.invalidate()
        am.loops()
    cold = time.perf_counter() - start
    am.invalidate()
    with observing(spans=False) as obs:
        start = time.perf_counter()
        for _ in range(repeats):
            am.loops()
        warm = time.perf_counter() - start
        hits = obs.metrics.counters.get("analysis.cache.hit", 0)
        misses = obs.metrics.counters.get("analysis.cache.miss", 0)
    return {
        "repeats": repeats,
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 6),
        "speedup": round(cold / warm, 1) if warm else None,
        "cache_hits": hits,
        "cache_misses": misses,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: 4 suite programs, one 200-block fuzz case",
    )
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_OPT.json")
    args = parser.parse_args()

    parity_failures = []

    # 1. The Table-3 suite through the full pipeline.
    suite_programs = (
        ["wc", "sieve", "bubblesort", "queens"] if args.quick else program_names()
    )
    print(f"suite: {len(suite_programs)} programs x {ENGINES}")
    suite = {}
    for engine in ENGINES:
        suite[engine] = run_suite(engine, suite_programs)
        print(
            f"  {engine:>5}: opt {suite[engine]['opt_seconds']:6.2f}s, "
            f"jumps {suite[engine]['jumps_seconds']:6.3f}s "
            f"(step1 {suite[engine]['step1_share']:.0%})"
        )
    if suite["dense"]["_decisions"] != suite["lazy"]["_decisions"]:
        parity_failures.append("suite decision logs differ")
    if suite["dense"]["_rtl"] != suite["lazy"]["_rtl"]:
        parity_failures.append("suite final RTL differs")
    for engine in ENGINES:
        suite[engine].pop("_decisions")
        suite[engine].pop("_rtl")

    # 2. Fuzzed ≥200-block functions: the dense-matrix worst case.
    sizes = [200] if args.quick else [200, 300, 400]
    fuzz_cases = []
    for i, size in enumerate(sizes):
        func = fuzzed_function(size, seed=1000 + i)
        case = {"blocks": len(func.blocks), "seed": 1000 + i, "max_rtls": FUZZ_MAX_RTLS}
        runs = {engine: run_fuzz_case(func, engine) for engine in ENGINES}
        if runs["dense"]["decisions"] != runs["lazy"]["decisions"]:
            parity_failures.append(f"fuzz[{size}] decision logs differ")
        if runs["dense"]["rtl"] != runs["lazy"]["rtl"]:
            parity_failures.append(f"fuzz[{size}] final RTL differs")
        for engine in ENGINES:
            case[f"{engine}_seconds"] = round(runs[engine]["seconds"], 4)
            case[f"{engine}_step1_seconds"] = round(
                runs[engine]["step1_seconds"], 4
            )
        case["dijkstra_runs"] = runs["lazy"]["dijkstra_runs"]
        case["speedup"] = (
            round(runs["dense"]["seconds"] / runs["lazy"]["seconds"], 2)
            if runs["lazy"]["seconds"]
            else None
        )
        fuzz_cases.append(case)
        print(
            f"  fuzz {case['blocks']:>4} blocks: dense {case['dense_seconds']:6.3f}s, "
            f"lazy {case['lazy_seconds']:6.3f}s -> {case['speedup']}x "
            f"({case['dijkstra_runs']} dijkstra runs)"
        )

    # 3. AnalysisManager cold vs warm on the largest fuzzed function.
    cache = bench_analysis_cache(
        fuzzed_function(sizes[-1], seed=2000), repeats=20 if args.quick else 100
    )
    print(
        f"  analysis cache: cold {cache['cold_seconds']}s, "
        f"warm {cache['warm_seconds']}s -> {cache['speedup']}x"
    )

    payload = {
        "benchmark": "JUMPS hot path: dense vs lazy step-1 engine",
        "quick": args.quick,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "suite": {"programs": len(suite_programs), "engines": suite},
        "fuzz": fuzz_cases,
        "analysis_cache": cache,
        "decision_parity": not parity_failures,
        "parity_failures": parity_failures,
        "min_fuzz_speedup": min(c["speedup"] for c in fuzz_cases),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if parity_failures:
        print("DECISION PARITY FAILED:", "; ".join(parity_failures), file=sys.stderr)
        raise SystemExit(1)
    if payload["min_fuzz_speedup"] < 2.0 and not args.quick:
        print(
            f"WARNING: fuzz speedup {payload['min_fuzz_speedup']}x below the 2x bar",
            file=sys.stderr,
        )


if __name__ == "__main__":
    main()

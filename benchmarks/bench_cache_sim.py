"""Acceptance benchmark for the streaming dynamic-measurement pipeline.

Compares the two Table-6 cache-simulation pipelines over the benchmark
suite and records the results in ``BENCH_CACHE.json`` at the repository
root:

* **reference** — the raw ``List[int]`` block trace replayed once per
  cache size through :func:`repro.cache.simulate_cache` (the test
  oracle: 4 sizes x 2 context-switch settings = 8 full trace walks
  per program/configuration);
* **multi** — the product path: the RLE
  :class:`~repro.ease.trace.CompressedTrace` walked
  **once** with all eight cache states (4 sizes x 2 context-switch
  settings) side by side, fast-forwarding steady-state loop iterations
  (:func:`repro.cache.simulate_multi_cache`).

Every simulation doubles as a differential test: the benchmark exits
non-zero if any ``CacheResult`` field differs between the engines.  The
acceptance bars are a >=3x simulation wall-time reduction on the
four-size sweep and a >=10x peak-trace-memory reduction (compressed vs
raw list); the sink's marginal feed cost over a raw-list append is
reported separately as ``end_to_end_speedup``.

Usage::

    PYTHONPATH=src python benchmarks/bench_cache_sim.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.benchsuite import PROGRAMS, program_names
from repro.cache import (
    PAPER_CACHE_SIZES,
    CacheConfig,
    MultiCacheStats,
    simulate_cache,
    simulate_multi_cache,
)
from repro.ease import measure_program
from repro.ease.trace import RawListSink, RleTraceSink
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.targets import get_target

REPO_ROOT = Path(__file__).resolve().parent.parent

PAPER_CONFIGS = [CacheConfig(size=size) for size in PAPER_CACHE_SIZES]
_CTX = (False, True)


def trace_one(name: str, replication: str):
    """Measure one program once, returning (raw trace, fetches)."""
    bench = PROGRAMS[name]
    program = compile_c(bench.source)
    optimize_program(
        program, get_target("sparc"), OptimizationConfig(replication=replication)
    )
    m = measure_program(
        program, get_target("sparc"), stdin=bench.stdin, trace=RawListSink()
    )
    return m.trace, m.block_fetches


#: Timing repetitions per pipeline; best-of-N suppresses scheduler noise.
REPEATS = 3


def feed(sink, raw):
    """Drive ``raw`` through ``sink`` as the interpreter would, timed."""
    emit = sink.emit
    start = time.perf_counter()
    for block_id in raw:
        emit(block_id)
    trace = sink.finish()
    return trace, time.perf_counter() - start


def best_of(fn):
    """Run ``fn`` ``REPEATS`` times; return (last result, min seconds)."""
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - start)
    return result, min(seconds)


def fields(result):
    return (result.accesses, result.misses, result.fetch_cost, result.flushes)


def bench_case(label, raw, fetches, parity_failures):
    """Time both pipelines on one trace; returns the per-case record.

    The headline ``speedup`` compares *simulation* wall time (the 8 raw
    trace walks of the reference sweep vs the single compressed-record
    walk of the multi engine).  In production both pipelines receive the
    trace from the interpreter's emit stream — the reference appends
    into a raw list, the streaming pipeline feeds an
    :class:`RleTraceSink` — so the compression work the new pipeline
    actually adds is the sink's *marginal* feed cost over a raw-list
    append; it is recorded per case and charged in the separate
    ``end_to_end_speedup``.  All timings are best-of-``REPEATS``.
    """
    (_, raw_feed_seconds) = min(
        (feed(RawListSink(), raw) for _ in range(REPEATS)), key=lambda r: r[1]
    )
    (compressed, rle_feed_seconds) = min(
        (feed(RleTraceSink(), raw) for _ in range(REPEATS)), key=lambda r: r[1]
    )
    sink_overhead_seconds = max(0.0, rle_feed_seconds - raw_feed_seconds)

    reference, reference_seconds = best_of(
        lambda: {
            (ctx, config.size): simulate_cache(raw, fetches, config, ctx)
            for ctx in _CTX
            for config in PAPER_CONFIGS
        }
    )

    grid = [(ctx, config) for ctx in _CTX for config in PAPER_CONFIGS]
    last_stats = []

    def run_multi():
        stats = MultiCacheStats()
        results = simulate_multi_cache(
            compressed,
            fetches,
            [config for _, config in grid],
            [ctx for ctx, _ in grid],
            stats=stats,
        )
        last_stats[:] = [stats]
        return results

    results, multi_seconds = best_of(run_multi)
    stats = last_stats[0]
    multi = {
        (ctx, config.size): result
        for (ctx, config), result in zip(grid, results)
    }

    for key, want in reference.items():
        if fields(multi[key]) != fields(want):
            parity_failures.append(
                f"{label} ctx={key[0]} size={key[1]}: "
                f"multi={fields(multi[key])} reference={fields(want)}"
            )

    raw_bytes = sys.getsizeof(raw)
    return {
        "case": label,
        "trace_blocks": len(raw),
        "rle_records": compressed.record_count,
        "compression_ratio": round(compressed.compression_ratio, 1),
        "raw_trace_bytes": raw_bytes,
        "compressed_trace_bytes": compressed.nbytes,
        "memory_reduction": round(raw_bytes / compressed.nbytes, 1)
        if compressed.nbytes
        else None,
        "raw_feed_seconds": round(raw_feed_seconds, 4),
        "rle_feed_seconds": round(rle_feed_seconds, 4),
        "sink_overhead_seconds": round(sink_overhead_seconds, 4),
        "reference_seconds": round(reference_seconds, 4),
        "multi_seconds": round(multi_seconds, 4),
        "speedup": round(reference_seconds / multi_seconds, 2)
        if multi_seconds
        else None,
        "fastforward_iters": stats.fastforward_iters,
        "fastforward_hits": stats.fastforward_hits,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: 4 suite programs instead of the full suite",
    )
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_CACHE.json")
    args = parser.parse_args()

    programs = (
        ["wc", "sieve", "bubblesort", "queens"] if args.quick else program_names()
    )
    configs = ("none", "jumps")
    print(
        f"suite: {len(programs)} programs x {configs} x "
        f"{len(PAPER_CACHE_SIZES)} sizes x ctx {_CTX}"
    )

    parity_failures = []
    cases = []
    for name in programs:
        for replication in configs:
            raw, fetches = trace_one(name, replication)
            case = bench_case(
                f"{name}/{replication}", raw, fetches, parity_failures
            )
            cases.append(case)
            print(
                f"  {case['case']:>16}: {case['trace_blocks']:>9} blocks "
                f"-> {case['rle_records']:>5} records "
                f"({case['compression_ratio']:>7.1f}x), "
                f"ref {case['reference_seconds']:7.3f}s, "
                f"multi {case['multi_seconds']:6.3f}s "
                f"-> {case['speedup']}x"
            )

    ref_total = sum(c["reference_seconds"] for c in cases)
    multi_total = sum(c["multi_seconds"] for c in cases)
    # End-to-end additionally charges the sink's marginal cost over a
    # raw-list append to the new pipeline — the compression work the
    # interpreter actually adds (see bench_case docstring).
    overhead_total = sum(c["sink_overhead_seconds"] for c in cases)
    end_to_end_total = multi_total + overhead_total
    raw_bytes = sum(c["raw_trace_bytes"] for c in cases)
    compressed_bytes = sum(c["compressed_trace_bytes"] for c in cases)
    peak_raw = max(c["raw_trace_bytes"] for c in cases)
    peak_compressed = max(c["compressed_trace_bytes"] for c in cases)
    totals = {
        "reference_seconds": round(ref_total, 3),
        "multi_seconds": round(multi_total, 3),
        "sink_overhead_seconds": round(overhead_total, 3),
        "speedup": round(ref_total / multi_total, 2) if multi_total else None,
        "end_to_end_speedup": round(ref_total / end_to_end_total, 2)
        if end_to_end_total
        else None,
        "raw_trace_bytes": raw_bytes,
        "compressed_trace_bytes": compressed_bytes,
        "memory_reduction": round(raw_bytes / compressed_bytes, 1)
        if compressed_bytes
        else None,
        "peak_raw_trace_bytes": peak_raw,
        "peak_compressed_trace_bytes": peak_compressed,
        "peak_memory_reduction": round(peak_raw / peak_compressed, 1)
        if peak_compressed
        else None,
        "fastforward_iters": sum(c["fastforward_iters"] for c in cases),
        "fastforward_hits": sum(c["fastforward_hits"] for c in cases),
    }
    print(
        f"totals: ref {totals['reference_seconds']}s, "
        f"multi {totals['multi_seconds']}s -> {totals['speedup']}x simulation "
        f"({totals['end_to_end_speedup']}x incl. "
        f"{totals['sink_overhead_seconds']}s sink overhead); "
        f"trace memory {totals['memory_reduction']}x smaller "
        f"(peak {totals['peak_memory_reduction']}x)"
    )

    payload = {
        "benchmark": "Table-6 cache simulation: reference vs multi engine",
        "quick": args.quick,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "cache_sizes": list(PAPER_CACHE_SIZES),
        "context_switch_settings": [bool(ctx) for ctx in _CTX],
        "programs": len(programs),
        "cases": cases,
        "totals": totals,
        "parity": not parity_failures,
        "parity_failures": parity_failures,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if parity_failures:
        print("ENGINE PARITY FAILED:", "; ".join(parity_failures), file=sys.stderr)
        raise SystemExit(1)
    if not args.quick:
        if totals["speedup"] is not None and totals["speedup"] < 3.0:
            print(
                f"WARNING: sweep speedup {totals['speedup']}x below the 3x bar",
                file=sys.stderr,
            )
        if (
            totals["peak_memory_reduction"] is not None
            and totals["peak_memory_reduction"] < 10.0
        ):
            print(
                f"WARNING: peak memory reduction "
                f"{totals['peak_memory_reduction']}x below the 10x bar",
                file=sys.stderr,
            )


if __name__ == "__main__":
    main()

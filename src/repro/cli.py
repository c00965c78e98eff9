"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``compile``   print the optimized RTL of a mini-C file or named benchmark
``run``       compile, optimize, execute; print the program output
``measure``   print the measurement summary (counts, jumps, no-ops)
``compare``   SIMPLE / LOOPS / JUMPS side by side for one program
``cache``     instruction-cache sweep for one program
``stats``     static-analysis census (instruction mix, loops, jumps)
``dot``       Graphviz DOT rendering of the control-flow graphs
``list``      list the Table-3 benchmark programs
``bench``     run the (program × target × config) evaluation matrix in
              parallel through the persistent result cache
``trace``     render the digest of a JSONL observability trace
``tables``    measure and print every EXPERIMENTS.md table
``fuzz``      fuzz generated programs through the optimizer under the
              translation validator (CI's verify-smoke job)

Translation validation: every compiling command accepts ``--verify
{off,sanitize,full}`` (default ``off``): ``sanitize`` checks CFG/RTL
invariants after every optimizer pass, ``full`` additionally interprets
the program before and after optimization and — on a behaviour change —
bisects to the guilty pass.

Programs are given either as a path to a ``.c`` file or as one of the
benchmark names (``wc``, ``sieve``, …).

Observability: every single-program command accepts ``--trace FILE`` to
record spans, metrics and the replication decision log as JSONL while it
runs (``REPRO_TRACE=FILE`` does the same for any command, including
``bench``); ``repro trace FILE`` renders the digest afterwards.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .benchsuite.programs import PROGRAMS, program_names
from .core.policy import POLICIES, REPLICATIONS
from .exec.envelope import VERIFY_MODES
from .report import format_table, pct
from .targets.names import TARGETS

__all__ = ["main"]


def _source_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "program",
        help="path to a mini-C file, or a benchmark name "
        f"({', '.join(program_names())})",
    )


def _non_negative(text: str) -> int:
    """An integer >= 0 (``--max-rtls``, ``fuzz --count``, ``--parallel``)."""
    try:
        value = int(text)
        if value < 0:
            raise ValueError(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        ) from None
    return value


def _input_bytes(text: str) -> bytes:
    """The contents of a readable file (``--stdin``)."""
    try:
        return Path(text).read_bytes()
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read {text!r}: {exc.strerror}"
        ) from None


def _trace_file(text: str) -> Path:
    """A path a trace can be written to (``--trace``), checked up front."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"no such directory: {str(path.parent)!r}"
        )
    return path


def _max_rtls_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-rtls",
        type=_non_negative,
        default=None,
        metavar="N",
        help="bound on the replication sequence length (§6 extension; "
        "default: unbounded)",
    )


def _config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target",
        choices=TARGETS,
        default="sparc",
        help="machine model (default: sparc)",
    )
    parser.add_argument(
        "--replication",
        choices=REPLICATIONS,
        default="none",
        help="code replication configuration (default: none = SIMPLE)",
    )
    parser.add_argument(
        "--policy",
        choices=sorted(POLICIES),
        default="shortest",
        help="JUMPS step-2 heuristic (default: shortest)",
    )
    _max_rtls_argument(parser)
    parser.add_argument(
        "--verify",
        choices=VERIFY_MODES,
        default="off",
        help="translation validation: sanitize = CFG/RTL invariants after "
        "every pass; full = also the differential execution oracle with "
        "pass bisection (default: off)",
    )
    parser.add_argument(
        "--stdin",
        type=_input_bytes,
        default=None,
        help="file supplying the program's standard input",
    )
    parser.add_argument(
        "--trace",
        type=_trace_file,
        default=None,
        metavar="FILE",
        help="record spans, metrics and the replication decision log "
        "to FILE as JSONL (render with `repro trace FILE`)",
    )


def _resolve(args) -> tuple:
    """(source-or-name, stdin bytes or None)."""
    name = args.program
    if name in PROGRAMS:
        return name, args.stdin
    path = Path(name)
    if not path.exists():
        raise SystemExit(
            f"error: {name!r} is neither a benchmark name nor an existing file"
        )
    return path.read_text(), args.stdin


def _measure(args, replication: Optional[str] = None, trace: bool = False):
    from .api import compile_and_measure

    source, stdin = _resolve(args)
    return compile_and_measure(
        source,
        target=args.target,
        replication=replication or args.replication,
        stdin=stdin,
        policy=args.policy,
        max_rtls=args.max_rtls,
        trace=trace,
        verify=args.verify,
    )


def cmd_compile(args) -> int:
    """Print the optimized RTL of the program."""
    from .rtl import format_function

    result = _measure(args)
    for func in result.program.functions.values():
        print(format_function(func))
        print()
    return 0


def cmd_run(args) -> int:
    """Compile, optimize and execute; mirror the program output."""
    result = _measure(args)
    sys.stdout.write(result.output.decode("latin-1"))
    sys.stdout.flush()
    return result.exit_code & 0xFF


def cmd_measure(args) -> int:
    """Print the EASE-style measurement summary."""
    result = _measure(args)
    m = result.measurement
    rows = [
        ["static instructions", m.static_insns],
        ["static unconditional jumps", m.static_jumps],
        ["code bytes", m.code_bytes],
        ["dynamic instructions", m.dynamic_insns],
        ["dynamic unconditional jumps", m.dynamic_jumps],
        ["dynamic no-ops", m.dynamic_nops],
        ["instructions between branches", f"{m.insns_between_branches:.2f}"],
        ["exit code", m.exit_code],
    ]
    print(format_table(["metric", "value"], rows))
    if result.verification is not None:
        print(_verified_line(result.verification))
    return 0


def _verified_line(v) -> str:
    """One line summing up a cell's verification report."""
    return (
        f"verified: mode={v['mode']} passes={v['pass_invocations']} "
        f"sanitize={v['sanitize_checks']} skipped={v.get('sanitize_skipped', 0)} "
        f"oracle_runs={v['oracle_runs']}"
    )


def cmd_compare(args) -> int:
    """Print SIMPLE/LOOPS/JUMPS side by side."""
    results = {}
    for replication in ("none", "loops", "jumps"):
        results[replication] = _measure(args, replication=replication)
    base = results["none"].measurement
    outputs = {r.output for r in results.values()}
    rows = []
    configs = (("SIMPLE", "none"), ("LOOPS", "loops"), ("JUMPS", "jumps"))
    for label, key in configs:
        m = results[key].measurement
        rows.append(
            [
                label,
                m.static_insns,
                pct(m.static_insns, base.static_insns),
                m.dynamic_insns,
                pct(m.dynamic_insns, base.dynamic_insns),
                m.dynamic_jumps,
                m.dynamic_nops,
            ]
        )
    print(
        format_table(
            ["config", "static", "Δstatic", "dynamic", "Δdynamic", "jumps", "nops"],
            rows,
        )
    )
    for label, key in configs:
        if results[key].verification is not None:
            print(f"{label}: {_verified_line(results[key].verification)}")
    if len(outputs) != 1:
        print("WARNING: configurations produced different outputs!", file=sys.stderr)
        return 1
    return 0


def _cache_size(text: str) -> int:
    """An instruction-cache size in bytes that :class:`CacheConfig` accepts."""
    from .cache import CacheConfig

    try:
        size = int(text)
        CacheConfig(size=size)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid cache size {text!r}: {exc}")
    return size


def cmd_cache(args) -> int:
    """Instruction-cache sweep for one program."""
    from .cache import CacheConfig, simulate_multi_cache

    result = _measure(args, trace=True)
    m = result.measurement
    # One walk: every size without, then with context switches.
    configs = [CacheConfig(size=size) for size in args.sizes] * 2
    flags = [False] * len(args.sizes) + [True] * len(args.sizes)
    results = simulate_multi_cache(m.trace, m.block_fetches, configs, flags)
    rows = []
    for size, plain, flushed in zip(
        args.sizes, results, results[len(args.sizes):]
    ):
        rows.append(
            [
                f"{size}B" if size < 1024 else f"{size // 1024}KB",
                plain.accesses,
                f"{plain.miss_ratio * 100:.3f}%",
                plain.fetch_cost,
                f"{flushed.miss_ratio * 100:.3f}%",
                flushed.fetch_cost,
            ]
        )
    print(
        format_table(
            ["cache", "fetches", "miss (no ctx)", "cost", "miss (ctx)", "cost (ctx)"],
            rows,
        )
    )
    return 0


def cmd_stats(args) -> int:
    """Print the static-analysis census."""
    from .analysis import (
        function_breakdown,
        instruction_histogram,
        jump_census,
        loop_census,
    )
    from .targets.machine import get_target

    result = _measure(args)
    program = result.program
    target = get_target(args.target)

    print("Instruction mix:")
    histogram = instruction_histogram(program)
    print(
        format_table(
            ["kind", "count"],
            [[k, v] for k, v in sorted(histogram.items()) if v],
        )
    )
    print("\nPer function:")
    print(
        format_table(
            ["function", "blocks", "insns", "jumps", "bytes"],
            function_breakdown(program, target),
        )
    )
    loops = loop_census(program)
    if loops:
        print("\nNatural loops:")
        print(
            format_table(
                ["function", "header", "blocks", "has jump"],
                [[f, h, n, "yes" if j else "no"] for f, h, n, j in loops],
            )
        )
    jumps = jump_census(program)
    if jumps:
        print("\nSurviving unconditional jumps:")
        print(
            format_table(
                ["function", "block", "target", "category"],
                [[j.function, j.block, j.target, j.category] for j in jumps],
            )
        )
    return 0


def cmd_dot(args) -> int:
    """Emit Graphviz DOT for the CFGs.

    Under ``--trace`` the replication decision log is live, so blocks
    created by code replication are annotated (filled light blue).
    """
    from .obs import active as _active_observer
    from .viz import to_dot

    result = _measure(args)
    functions = result.program.functions
    if args.function is not None and args.function not in functions:
        print(
            f"error: no function {args.function!r} in {args.program}; "
            f"expected one of {', '.join(functions)}",
            file=sys.stderr,
        )
        return 2
    observer = _active_observer()
    funcs = (
        [functions[args.function]]
        if args.function is not None
        else functions.values()
    )
    for func in funcs:
        replicated = (
            observer.decisions.replicated_labels(func.name)
            if observer.decisions.enabled
            else None
        )
        print(to_dot(func, replicated=replicated))
    return 0


def cmd_list(args) -> int:
    """List the Table-3 benchmark programs."""
    rows = [
        [p.name, p.category, p.description, len(p.stdin)]
        for p in PROGRAMS.values()
    ]
    print(format_table(["name", "class", "description", "stdin bytes"], rows))
    return 0


def cmd_bench(args) -> int:
    """Run the evaluation matrix in parallel through the result cache."""
    import json
    import os
    import time

    from .exec import CellSpec, ParallelRunner, ResultCache
    from .obs import Observer, active, install
    from .obs.digest import pass_table
    from .report import format_cache_stats, format_pass_table

    # A repeated name is one cell, computed and printed once.
    names = list(dict.fromkeys(args.programs or program_names()))
    unknown = [name for name in names if name not in PROGRAMS]
    if unknown:
        raise SystemExit(
            f"error: unknown benchmark(s) {', '.join(unknown)}; "
            f"expected one of {', '.join(program_names())}"
        )
    specs = [
        CellSpec(
            program=name,
            target=target,
            replication=config,
            policy=args.policy,
            max_rtls=args.max_rtls,
            trace=args.trace,
            verify=args.verify,
        )
        for target in dict.fromkeys(args.targets)
        for config in dict.fromkeys(args.configs)
        for name in names
    ]
    done = [0]

    def progress(result) -> None:
        done[0] += 1
        status = "cached" if result.cache_hit else ("FAILED" if not result.ok else "ok")
        print(
            f"[{done[0]:>3}/{len(specs)}] {result.spec.label}: {status}",
            file=sys.stderr,
        )

    on_result = progress if not args.quiet else None
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = ParallelRunner(workers=args.parallel, cache=cache)
    # The run's own observer: the per-pass table and the JSON metrics read
    # it (a cache hit records only ``exec.cache.*``).  It is merged into
    # the enclosing observer (``REPRO_TRACE``) also when the run is
    # interrupted, so that trace keeps every cell that finished.
    outer = active()
    observer = install(
        Observer(
            spans=args.passes or outer.tracer.enabled,
            decisions=outer.decisions.enabled,
        )
    )
    start = time.perf_counter()
    try:
        results = runner.run(specs, on_result=on_result)
        elapsed = time.perf_counter() - start
    finally:
        install(outer)
        snapshot = observer.snapshot()
        outer.merge_snapshot(snapshot)

    rows = []
    failures = []
    for result in results:
        if not result.ok:
            failures.append(result)
            continue
        m = result.measurement
        rows.append(
            [
                result.spec.program,
                result.spec.target,
                result.spec.replication,
                m.static_insns,
                m.dynamic_insns,
                m.dynamic_jumps,
                m.dynamic_nops,
                f"{result.optimize_seconds:.3f}",
                f"{result.measure_seconds:.3f}",
                "yes" if result.cache_hit else "",
            ]
        )
    passes = pass_table(snapshot["spans"]) if args.passes else {}
    print(
        format_table(
            [
                "program",
                "target",
                "config",
                "static",
                "dynamic",
                "jumps",
                "nops",
                "opt s",
                "run s",
                "cached",
            ],
            rows,
        )
    )
    hits = sum(1 for r in results if r.cache_hit)
    print(
        f"\n{len(results)} cells in {elapsed:.2f}s "
        f"({runner.workers} workers, {hits} cache hits, {len(failures)} failed)"
    )
    # One walk of the cache directory serves the summary and the JSON.
    cache_stats = cache.stats() if cache is not None else None
    if cache_stats is not None:
        print(format_cache_stats(cache_stats))
    if passes:
        print("\nPer-pass table (opt.<pass> spans of fresh cells):")
        print(format_pass_table(passes))

    if args.json is not None:
        payload = {
            "machine": {"cpu_count": os.cpu_count()},
            "workers": runner.workers,
            "elapsed_seconds": elapsed,
            "cache": cache_stats,
            # --passes only; folded over fresh (non-cache-hit) cells.
            "passes": passes,
            # The run's counters: fresh cells plus ``exec.cache.*``.
            "metrics": snapshot["metrics"],
            "cells": [
                {
                    "program": r.spec.program,
                    "target": r.spec.target,
                    "config": r.spec.replication,
                    "ok": r.ok,
                    "cache_hit": r.cache_hit,
                    "static_insns": r.measurement.static_insns if r.ok else None,
                    "dynamic_insns": r.measurement.dynamic_insns if r.ok else None,
                    "dynamic_jumps": r.measurement.dynamic_jumps if r.ok else None,
                    "dynamic_nops": r.measurement.dynamic_nops if r.ok else None,
                    "code_bytes": r.measurement.code_bytes if r.ok else None,
                    "compile_seconds": r.compile_seconds,
                    "optimize_seconds": r.optimize_seconds,
                    "measure_seconds": r.measure_seconds,
                    "error": r.error,
                }
                for r in results
            ],
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    for result in failures:
        print(f"\n--- {result.spec.label} failed ---", file=sys.stderr)
        print(result.error, file=sys.stderr)
    return 1 if failures else 0


def cmd_fuzz(args) -> int:
    """Fuzz generated programs through the optimizer under verification."""
    import time

    from .verify import run_campaign

    start = time.perf_counter()
    result = run_campaign(
        args.count,
        seed=args.seed,
        target=args.target,
        replication=args.replication,
        mode=args.mode,
        minimize=not args.no_minimize,
        max_rtls=args.max_rtls,
    )
    elapsed = time.perf_counter() - start
    print(
        f"{result.programs_run} programs fuzzed in {elapsed:.1f}s "
        f"({result.totals.get('pass_invocations', 0)} pass invocations, "
        f"{result.totals.get('sanitize_checks', 0)} sanitizer checks "
        f"({result.totals.get('sanitize_skipped', 0)} skipped), "
        f"{result.totals.get('oracle_runs', 0)} oracle runs, "
        f"{result.totals.get('valve_trips', 0)} valve trips, "
        f"{result.totals.get('guard_stops', 0)} guard stops, "
        f"{result.failures} failures)"
    )
    if result.ok:
        return 0
    failure = result.first_failure or {}
    print(
        f"\nFAILURE at seed {failure.get('seed')}:\n{failure.get('error')}",
        file=sys.stderr,
    )
    if args.reproducer is not None and "minimized" in failure:
        args.reproducer.write_text(str(failure["minimized"]))
        print(f"minimized reproducer written to {args.reproducer}", file=sys.stderr)
    elif "minimized" in failure:
        print(f"\nminimized reproducer:\n{failure['minimized']}", file=sys.stderr)
    return 1


def cmd_trace(args) -> int:
    """Render the digest of a JSONL observability trace."""
    from .obs.sink import read_events
    from .report import format_trace_digest

    if not args.file.is_file():
        print(f"error: no such trace file: {args.file}", file=sys.stderr)
        return 1
    events, problems = read_events(args.file)
    for problem in problems:
        print(f"warning: {args.file}: {problem}", file=sys.stderr)
    if not events:
        print(f"error: {args.file} contains no trace events", file=sys.stderr)
        return 1
    print(format_trace_digest(events))
    return 0


def cmd_tables(args) -> int:
    """Measure and print every table EXPERIMENTS.md reports."""
    from .report import TABLE_TITLES, collect, render

    for name, table in render(collect()).items():
        print(f"## {TABLE_TITLES[name]}\n\n{table}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Mueller & Whalley, PLDI 1992: "
        "code replication against unconditional jumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="print optimized RTL")
    _source_argument(p)
    _config_arguments(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile and execute")
    _source_argument(p)
    _config_arguments(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("measure", help="print the measurement summary")
    _source_argument(p)
    _config_arguments(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("compare", help="SIMPLE/LOOPS/JUMPS side by side")
    _source_argument(p)
    _config_arguments(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("cache", help="instruction-cache sweep for a program")
    _source_argument(p)
    _config_arguments(p)
    p.add_argument(
        "--sizes",
        type=_cache_size,
        nargs="+",
        default=[128, 256, 512, 1024, 2048, 4096, 8192],
        help="cache sizes in bytes",
    )
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("stats", help="static analysis census")
    _source_argument(p)
    _config_arguments(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("dot", help="emit the CFG as Graphviz DOT")
    _source_argument(p)
    _config_arguments(p)
    p.add_argument("--function", default=None, help="only this function")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("list", help="list the benchmark programs")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser(
        "bench",
        help="run the evaluation matrix in parallel through the result cache",
    )
    p.add_argument(
        "--parallel",
        type=_non_negative,
        default=None,
        metavar="N",
        help="worker processes (default: one per core; 0/1 = inline)",
    )
    p.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="persistent result cache directory (default: .repro-cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="bypass the persistent cache"
    )
    p.add_argument(
        "--programs",
        nargs="+",
        default=None,
        metavar="NAME",
        help="subset of benchmark programs (default: all 14)",
    )
    p.add_argument(
        "--targets",
        nargs="+",
        choices=TARGETS,
        default=list(TARGETS),
        help="machine models (default: both)",
    )
    p.add_argument(
        "--configs",
        nargs="+",
        choices=REPLICATIONS,
        default=list(REPLICATIONS),
        help="replication configurations (default: all three)",
    )
    p.add_argument(
        "--policy",
        choices=sorted(POLICIES),
        default="shortest",
        help="JUMPS step-2 heuristic (default: shortest)",
    )
    _max_rtls_argument(p)
    p.add_argument(
        "--trace",
        action="store_true",
        help="record block traces (needed for cache simulation; bigger entries)",
    )
    p.add_argument(
        "--passes",
        action="store_true",
        help="record opt.<pass> spans and print the per-pass table "
        "(calls, changes, time, RTL and jump deltas) of fresh cells",
    )
    p.add_argument(
        "--json", type=Path, default=None, help="write results to a JSON file"
    )
    p.add_argument(
        "--verify",
        choices=VERIFY_MODES,
        default="off",
        help="run every cell under translation validation "
        "(bypasses the result cache; default: off)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress on stderr"
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "fuzz",
        help="fuzz generated programs through the optimizer under the "
        "translation validator",
    )
    p.add_argument(
        "--count",
        type=_non_negative,
        default=50,
        metavar="N",
        help="programs to fuzz",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="base seed (program i uses seed+i)"
    )
    p.add_argument(
        "--target",
        choices=TARGETS,
        default="sparc",
        help="machine model (default: sparc)",
    )
    p.add_argument(
        "--replication",
        choices=REPLICATIONS,
        default="jumps",
        help="replication configuration (default: jumps)",
    )
    p.add_argument(
        "--mode",
        choices=["sanitize", "full"],
        default="full",
        help="verification mode (default: full)",
    )
    _max_rtls_argument(p)
    p.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip ddmin reduction of a failing program",
    )
    p.add_argument(
        "--reproducer",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the minimized failing program here (CI artifact)",
    )
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "trace", help="render the digest of a JSONL observability trace"
    )
    p.add_argument(
        "file",
        type=Path,
        help="JSONL trace written by --trace FILE or REPRO_TRACE=FILE",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("tables", help="measure and print every EXPERIMENTS table")
    p.set_defaults(func=cmd_tables)

    return parser


def _trace_destination(args) -> Optional[Path]:
    """Where (if anywhere) this invocation should write its trace.

    An explicit ``--trace FILE`` wins; otherwise ``REPRO_TRACE`` applies
    to any command except ``trace`` itself (tracing the digest renderer
    would clobber the very file being read) and ``list``.  ``bench``
    repurposes ``--trace`` as a boolean (block traces for the cache
    simulations), so only the environment variable reaches it.
    """
    from .obs.sink import trace_path_from_env

    explicit = getattr(args, "trace", None)
    if isinstance(explicit, Path):
        return explicit
    if args.command in ("trace", "list"):
        return None
    destination = trace_path_from_env()
    return Path(destination) if destination else None


def _run_traced(args, destination: Path) -> int:
    """Run the command under a fresh observer; write + summarize the trace."""
    from .obs import observing
    from .obs.digest import decision_digest
    from .report import format_decision_digest

    label = f"repro {args.command} {getattr(args, 'program', '')}".strip()
    with observing(jsonl_path=destination, label=label) as observer:
        code = args.func(args)
    snapshot = observer.snapshot()
    digest = decision_digest(snapshot["decisions"])
    print("\n--- observability summary ---", file=sys.stderr)
    print(format_decision_digest(digest), file=sys.stderr)
    print(
        f"wrote trace ({len(snapshot['spans'])} spans, "
        f"{digest['total']} decisions) to {destination}",
        file=sys.stderr,
    )
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        destination = _trace_destination(args)
        if destination is not None:
            return _run_traced(args, destination)
        return args.func(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; exit quietly like other CLIs.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

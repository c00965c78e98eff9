#!/usr/bin/env python3
"""One ledger for the whole pipeline: front-end, optimizer, replication,
EASE execution, Table-6 cache simulation, result cache and CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tables45-cold --seed 1 --seconds 20 --trace 0

Workloads (all closed loops from one process, one item at a time,
execution inline):

* ``tables45-cold``: the 84-cell Table-4/5 matrix through a fresh, empty
  ``ResultCache`` (a user's first ``repro bench``).
* ``table6-traced``: the same cells traced, then the Table-6 sweep with
  ``simulate_multi_cache`` over every trace.
* ``fuzz-verify``: generated programs on sparc under unbounded JUMPS with
  ``verify=full``, then run on compiled EASE.
* ``warm-rerun``: fresh ``python -m repro bench`` processes against a
  warm cache, alternating untraced and ``--trace`` entries.

``--trace 0`` measures for ``--seconds`` with tracing off and prints the
end-to-end metrics; item timings are costs in runs of a fixed probe
timed around and during each item (see ``meter.py``).  ``--trace 1``
runs one pass collecting counters and one traced pass, and prints the per-layer metrics, the attribution
table and the determinism report.  Every item's output is checked; the
last line of standard output is one JSON object, and any failed item
makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
from meter import Meter, pin_to_one_cpu  # noqa: E402
from state import (  # noqa: E402
    BUILD,
    CONFIGS,
    GOLDEN,
    ROOT,
    SRC,
    TARGETS,
    Prepared,
    child_env,
    counts_of,
    fetch_quality,
    golden_mismatch,
    sweep_configs,
    table45_quality,
)

#: Set-up processes timed before the timed passes and again after them,
#: so the median covers the whole run, not one moment of the host.
SETUP_REPEATS = 4
CLI_PROBE_REPEATS = 3

#: Count fields the CLI's ``--json`` reports per cell.
CLI_FIELDS = ("dynamic_insns", "dynamic_jumps", "static_insns")

QUALITY = (
    "dyn_insns_saved_pct",
    "dyn_jumps_removed_pp",
    "static_insns_growth_pct",
    "fetch_cost_saved_pct",
)


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


@dataclass
class Item:
    label: str
    seconds: float = 0.0
    #: CPU seconds, and the same in probe runs (``meter.py``).
    cpu: float = 0.0
    cost: float = 0.0
    error: str = ""


@dataclass
class PassResult:
    wall: float
    items: List[Item]
    quality: Dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


# --- processes ------------------------------------------------------------------


def spawn(argv: Sequence[str], stderr_path: Path) -> tuple:
    """Run ``argv`` to completion: (exit code, wall s, CPU s, peak RSS in MB)."""
    start = perf_counter()
    with stderr_path.open("wb") as err:
        proc = subprocess.Popen(
            list(argv),
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, seconds, cpu, usage.ru_maxrss / 1024.0


def measure_setup(tmp: Path, untimed: int = 0) -> List[float]:
    """CPU seconds of fresh processes importing the toolchain and building both targets.

    The ``untimed`` processes first only fill the page cache with the
    toolchain's files, as any earlier use of the checkout would have.
    """
    argv = [
        sys.executable,
        "-c",
        "from repro.exec.runner import warm_worker; warm_worker()",
    ]
    times = []
    for _ in range(untimed + SETUP_REPEATS):
        code, _, cpu, _ = spawn(argv, tmp / "setup.err")
        if code != 0:
            raise RuntimeError((tmp / "setup.err").read_text())
        times.append(cpu)
    return times[untimed:]


# --- peak memory ------------------------------------------------------------------


def reset_peak_rss() -> bool:
    """Reset this process's peak-RSS mark (Linux); False if unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(reset_ok: bool) -> float:
    if reset_ok:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- workloads --------------------------------------------------------------------


def warm_toolchain() -> None:
    """Import the toolchain and build both targets before anything is timed."""
    from repro.exec.runner import warm_worker

    warm_worker(TARGETS)


class Context:
    def __init__(self, prepared: Prepared) -> None:
        #: Run the speed probe around and during every item (timed runs only).
        self.calibrate = False
        self.scale = prepared.scale
        self.prepared = prepared
        self.golden = prepared.golden
        self.refs = prepared.ledger["refs"]
        self.fuzz_refs = prepared.ledger["fuzz_refs"]
        self.ledger_quality = prepared.ledger["quality"]
        self.tmp = BUILD / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def fresh_dir(self, name: str) -> Path:
        path = self.tmp / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def check_output(self, expected: dict, measurement) -> str:
        output = measurement.output.decode("latin-1")
        if output != expected["output"]:
            at = next(
                (i for i, (a, b) in enumerate(zip(output, expected["output"])) if a != b),
                min(len(output), len(expected["output"])),
            )
            return f"output differs from the reference at character {at}"
        if measurement.exit_code != expected["exit_code"]:
            return f"exit code {measurement.exit_code} != reference {expected['exit_code']}"
        return ""

    def check_cell(self, cell, measurement) -> str:
        return self.check_output(self.refs[cell[2]], measurement) or golden_mismatch(
            self.golden, cell, counts_of(measurement)
        )


def wrap_cache(cache) -> None:
    """Time the cache instance's reads and writes as ``exec.cache.*`` spans."""
    get_spec, put_spec = cache.get_spec, cache.put_spec

    def timed_get(spec):
        with layers.span("exec.cache.get"):
            return get_spec(spec)

    def timed_put(spec, result):
        with layers.span("exec.cache.put"):
            return put_spec(spec, result)

    cache.get_spec = timed_get
    cache.put_spec = timed_put


class MatrixWorkload:
    """The Table-4/5 cells through a fresh cache; optionally traced + Table 6."""

    def __init__(self, ctx: Context, trace: bool) -> None:
        self.ctx = ctx
        self.trace = trace
        self.pass_seconds = 26.0 if trace else 12.0
        self.cells = [
            (target, config, name)
            for target in TARGETS
            for config in CONFIGS
            for name in ctx.scale.names
        ]

    def warm_up(self) -> None:
        warm_toolchain()

    def order(self, rng: random.Random) -> list:
        cells = list(self.cells)
        rng.shuffle(cells)
        return cells

    def run_pass(self, rng: random.Random, traced: bool) -> PassResult:
        from repro.benchsuite import run_matrix
        from repro.cache import simulate_multi_cache
        from repro.cache.multi import MultiCacheStats
        from repro.exec import ResultCache

        ctx = self.ctx
        cache_dir = ctx.fresh_dir("cold-cache")
        cache = ResultCache(cache_dir)
        if traced:
            wrap_cache(cache)
        items: Dict[tuple, Item] = {}
        held = {}
        meter = Meter(ctx.calibrate)
        start = perf_counter()
        for cell in self.order(rng):
            target, config, name = cell
            item = items[cell] = Item("/".join(cell))
            try:
                with meter.measure(item), layers.span("exec.run_matrix"):
                    measurement = run_matrix(
                        names=[name],
                        targets=[target],
                        configs=[config],
                        trace=self.trace,
                        workers=1,
                        cache=cache,
                        use_memo=False,
                    )[cell]
            except RuntimeError as exc:
                item.error = str(exc).splitlines()[0]
                continue
            item.error = ctx.check_cell(cell, measurement)
            held[cell] = measurement
        costs = {}
        ff_iters = sim_records = 0
        if self.trace:
            configs, ctx_flags = sweep_configs()
            for cell in self.order(rng):
                measurement = held.get(cell)
                if measurement is None:
                    continue
                stats = MultiCacheStats()
                with meter.measure(items[cell]), layers.span("cache.sim"):
                    results = simulate_multi_cache(
                        measurement.trace,
                        measurement.block_fetches,
                        configs,
                        context_switches=ctx_flags,
                        stats=stats,
                    )
                ff_iters += stats.fastforward_iters
                sim_records += stats.records
                costs[cell] = [result.fetch_cost for result in results]
        wall = perf_counter() - start
        meter.settle()

        result = PassResult(wall, list(items.values()))
        if len(held) == len(self.cells):
            counts = {cell: counts_of(m) for cell, m in held.items()}
            result.quality = table45_quality(counts, ctx.scale.names)
            if self.trace:
                result.quality.update(fetch_quality(costs, ctx.scale.names))
        census = cache.disk_stats()
        result.extra = {
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "entry_bytes": census["bytes"] / max(1, census["entries"]),
            "fastforward_iters": ff_iters,
            "sim_records": sim_records,
            "trace_bytes": sum(
                m.trace.nbytes for m in held.values() if m.trace is not None
            ),
        }
        del held
        shutil.rmtree(cache_dir, ignore_errors=True)
        return result


@functools.lru_cache(maxsize=None)
def spanned_verifier():
    """A ``Verifier`` whose sanitizer and oracle calls are spans."""
    from repro.verify.verifier import Verifier

    class SpannedVerifier(Verifier):
        def begin(self, program, target=None, config=None):
            with layers.span("verify.oracle"):
                super().begin(program, target, config)

        def after_pass(self, func, name):
            with layers.span("verify.sanitize"):
                super().after_pass(func, name)

        def after_sweep(self, func, sweep):
            with layers.span("verify.sanitize"):
                super().after_sweep(func, sweep)

        def after_function(self, func):
            with layers.span("verify.oracle"):
                super().after_function(func)

        def finish(self):
            with layers.span("verify.oracle"):
                return super().finish()

    return SpannedVerifier


class FuzzWorkload:
    """Generated programs optimized under ``verify=full``, then executed."""

    pass_seconds = 19.0

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def warm_up(self) -> None:
        warm_toolchain()

    def run_pass(self, rng: random.Random, traced: bool) -> PassResult:
        from repro.ease.compile import make_interpreter
        from repro.ease.measure import measure_program
        from repro.frontend.codegen import compile_c
        from repro.opt.driver import OptimizationConfig, optimize_program
        from repro.targets.machine import get_target
        from repro.verify import VerificationError
        from repro.verify.fuzz import generate_program
        from repro.verify.verifier import Verifier

        ctx = self.ctx
        target = get_target("sparc")
        config = OptimizationConfig(replication="jumps")
        seeds = list(ctx.scale.fuzz_seeds)
        rng.shuffle(seeds)
        sources = {seed: generate_program(seed) for seed in seeds}
        items = []
        meter = Meter(ctx.calibrate)
        start = perf_counter()
        for seed in seeds:
            item = Item(f"fuzz/{seed}")
            items.append(item)
            try:
                with meter.measure(item), layers.span("bench.fuzz_program", seed=seed):
                    program = compile_c(sources[seed])
                    verifier = (spanned_verifier() if traced else Verifier)(
                        "full", inputs=[b""]
                    )
                    optimize_program(program, target, config, verifier=verifier)
                    with layers.span("ease.compile"):
                        interp = make_interpreter(program)
                    measurement = measure_program(program, target, interpreter=interp)
            except VerificationError as exc:
                item.error = f"verification failed: {exc}"
                continue
            item.error = ctx.check_output(ctx.fuzz_refs[str(seed)], measurement)
        wall = perf_counter() - start
        meter.settle()
        return PassResult(wall, items)


class WarmWorkload:
    """Fresh ``repro bench`` processes reading the prefilled cache."""

    pass_seconds = 13.0

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.invocation_walls: List[float] = []

    def warm_up(self) -> None:
        """One untimed invocation of each kind fills the page cache."""
        for traced_entries in (False, True):
            argv = self._argv(traced_entries, self.ctx.tmp / "warm-up.json", None)
            spawn(argv, self.ctx.tmp / "warm.err")

    def _argv(self, traced_entries: bool, json_path: Path, probe: Optional[Path]):
        head = (
            [sys.executable, str(BENCH_DIR / "cli_probe.py"), str(probe)]
            if probe is not None
            else [sys.executable, "-m", "repro"]
        )
        argv = head + [
            "bench",
            "--parallel",
            "1",
            "--quiet",
            "--json",
            str(json_path),
            "--cache-dir",
            str(self.ctx.prepared.warm_cache),
            "--programs",
            *self.ctx.scale.names,
        ]
        if traced_entries:
            argv.append("--trace")
        return argv

    def _check(self, code: int, json_path: Path) -> tuple:
        if code != 0:
            return "repro bench exited with code %d" % code, None, {}
        payload = json.loads(json_path.read_text())
        counts = {}
        for cell in payload["cells"]:
            key = (cell["target"], cell["config"], cell["program"])
            if not cell["ok"]:
                return f"{'/'.join(key)} failed", None, payload
            if not cell["cache_hit"]:
                return f"{'/'.join(key)} missed the warm cache", None, payload
            counts[key] = cell
            problem = golden_mismatch(self.ctx.golden, key, cell, CLI_FIELDS)
            if problem:
                return f"{'/'.join(key)}: {problem}", None, payload
        expected = len(TARGETS) * len(CONFIGS) * len(self.ctx.scale.names)
        if len(counts) != expected:
            return f"{len(counts)} cells, expected {expected}", None, payload
        return "", table45_quality(counts, self.ctx.scale.names), payload

    def run_pass(self, rng: random.Random, traced: bool) -> PassResult:
        """Invocations reading plain entries and, as many, reading traced ones."""
        ctx = self.ctx
        kinds = [index % 2 == 1 for index in range(ctx.scale.cli_invocations)]
        rng.shuffle(kinds)
        items = []
        quality = {}
        peak = 0.0
        extra = {"cache_hits": 0, "cache_misses": 0}
        child = {"import": 0.0, "command": 0.0, "get": 0.0}
        meter = Meter(ctx.calibrate)
        start = perf_counter()
        for index, traced_entries in enumerate(kinds):
            json_path = ctx.tmp / f"warm-{index}.json"
            probe = ctx.tmp / f"probe-{index}.json" if traced else None
            item = Item("repro bench" + (" --trace" if traced_entries else ""))
            items.append(item)
            with meter.measure(item):
                code, _, _, rss = spawn(
                    self._argv(traced_entries, json_path, probe), ctx.tmp / "warm.err"
                )
            peak = max(peak, rss)
            if not traced:
                self.invocation_walls.append(item.seconds)
            item.error, cell_quality, payload = self._check(code, json_path)
            if item.error and code != 0:
                item.error += ": " + (ctx.tmp / "warm.err").read_text()[-400:]
            if cell_quality:
                quality = cell_quality
            stats = payload.get("cache") or {}
            extra["cache_hits"] += stats.get("hits", 0)
            extra["cache_misses"] += stats.get("misses", 0)
            if probe is not None and code == 0:
                timings = json.loads(probe.read_text())
                child["import"] += timings["import_s"]
                child["command"] += timings["command_s"]
                child["get"] += timings["get_s"]
        wall = perf_counter() - start
        meter.settle()
        extra["peak_rss_mb"] = peak
        extra["entry_bytes"] = self._census()
        if traced:
            extra["cache_get_s"] = child["get"]
            extra["child"] = child
        return PassResult(wall, items, quality, extra)

    def _census(self) -> float:
        from repro.exec import ResultCache

        stats = ResultCache(self.ctx.prepared.warm_cache).disk_stats()
        return stats["bytes"] / max(1, stats["entries"])

    def cli_split(self, traced_pass: PassResult) -> dict:
        """``cli.*`` by subtraction, plus the traced pass's layer seconds."""
        tmp = self.ctx.tmp
        bare = [
            spawn([sys.executable, "-c", "pass"], tmp / "probe.err")[1]
            for _ in range(CLI_PROBE_REPEATS)
        ]
        imported = [
            spawn([sys.executable, "-c", "import repro.cli"], tmp / "probe.err")[1]
            for _ in range(CLI_PROBE_REPEATS)
        ]
        start = statistics.median(bare)
        imports = statistics.median(imported)
        command = statistics.median(self.invocation_walls) if self.invocation_walls else 0.0
        child = traced_pass.extra.get("child", {})
        n = len(traced_pass.items)
        return {
            "cli.python_start.s": start,
            "cli.import.s": imports - start,
            "cli.command.s": command - imports,
            "layer_seconds": {
                "cli": n * start + child.get("import", 0.0)
                + child.get("command", 0.0) - child.get("get", 0.0),
                "exec": child.get("get", 0.0),
            },
        }


WORKLOADS: Dict[str, Callable[[Context], object]] = {
    "tables45-cold": lambda ctx: MatrixWorkload(ctx, trace=False),
    "table6-traced": lambda ctx: MatrixWorkload(ctx, trace=True),
    "fuzz-verify": FuzzWorkload,
    "warm-rerun": WarmWorkload,
}


# --- metrics ----------------------------------------------------------------------


def tail(values: Sequence[float], per_pass: int) -> tuple:
    """The tail latency: (value, percentile, sample count).

    The percentile is the highest one that leaves 10 items of a single
    pass beyond it, so it stays the same statistic however many passes a
    run fits; with fewer than 21 items per pass that would sit at or
    below the median, and the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if per_pass < 21:
        return ordered[-1], 100.0, n
    share = (per_pass - 10) / per_pass
    index = math.ceil(share * n - 1e-9) - 1
    return ordered[index], 100.0 * share, n


def quality_metrics(passes: List[PassResult], ledger: dict) -> tuple:
    """Quality values: measured in the passes where possible, else the ledger.

    A measured value that differs between passes or from the ledger is
    an error (the counts are deterministic).
    """
    values, sources, errors = {}, {}, []
    for name in QUALITY:
        measured = [p.quality[name] for p in passes if name in p.quality]
        if measured:
            values[name], sources[name] = measured[0], "measured"
            if any(value != measured[0] for value in measured):
                errors.append(f"{name} differs between passes: {measured}")
            if abs(measured[0] - ledger[name]) > 1e-9:
                errors.append(f"{name} {measured[0]} != ledger {ledger[name]}")
        else:
            values[name], sources[name] = ledger[name], "ledger"
    return values, sources, errors


def run_timed(workload, seconds: float, rng: random.Random) -> tuple:
    """As many passes as fit in ``seconds`` at the workload's nominal pace.

    ``pass_seconds`` is a pass's wall time on a quiet 2.1 GHz Xeon vCPU.
    The count does not depend on how fast the host is today: a later
    pass in one process costs more than the first (a warmer, larger
    heap), so runs that fit different numbers of passes would not
    compare.
    """
    workload.warm_up()
    reset_ok = reset_peak_rss()
    count = max(1, int(seconds // workload.pass_seconds))
    passes = [workload.run_pass(rng, traced=False) for _ in range(count)]
    peak = max((p.extra.get("peak_rss_mb", 0.0) for p in passes), default=0.0)
    return passes, peak or peak_rss_mb(reset_ok)


def end_to_end(passes, peak, setup_times, ctx) -> tuple:
    items = [item for p in passes for item in p.items]
    costs = [item.cost for item in items]
    failed = sum(1 for item in items if item.error)
    tail_cost, tail_pct, n = tail(costs, len(passes[0].items))
    quality, sources, errors = quality_metrics(passes, ctx.ledger_quality)
    probe_ms = statistics.median(1000.0 * i.cpu / i.cost for i in items if i.cost)
    wall = statistics.median(p.wall for p in passes)
    cpu = statistics.median(sum(i.cpu for i in p.items) for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_cost": (statistics.median(sum(i.cost for i in p.items) for p in passes), "ref"),
        "item_cost_p50": (statistics.median(costs), "ref"),
        "item_cost_tail": (tail_cost, "ref"),
        "peak_rss_mb": (peak, "MB"),
        "ok_frac": (1.0 - failed / len(items), "ratio"),
        "dyn_insns_saved_pct": (quality["dyn_insns_saved_pct"], "%"),
        "dyn_jumps_removed_pp": (quality["dyn_jumps_removed_pp"], "pp"),
        "static_insns_growth_pct": (quality["static_insns_growth_pct"], "%"),
        "fetch_cost_saved_pct": (quality["fetch_cost_saved_pct"], "%"),
    }
    notes = {
        "item_cost_tail": f"p{tail_pct:.1f} of {n} items",
        "pass_cost": (
            f"median of {len(passes)} passes; one pass took {wall:.2f} s wall,"
            f" {cpu:.2f} s CPU in its items; one probe run {probe_ms:.3f} ms"
        ),
        "setup_s": f"CPU, median of {len(setup_times)} fresh processes",
        **{name: sources[name] for name in QUALITY},
    }
    return metrics, notes, items, errors


def per_layer(workload, rng: random.Random, name: str) -> tuple:
    from repro.obs import Observer, deactivate, install

    workload.warm_up()
    counting = Observer(spans=False, decisions=False)
    install(counting)
    try:
        first = workload.run_pass(rng, traced=False)
    finally:
        deactivate()
    tracing = Observer(spans=True, decisions=False)
    install(tracing)
    try:
        second = workload.run_pass(rng, traced=True)
    finally:
        deactivate()
    extra = dict(second.extra)
    if isinstance(workload, WarmWorkload):
        extra.update(workload.cli_split(second))
    counters_a = layers.work_counters(counting.metrics.snapshot(), first.extra)
    counters_b = layers.work_counters(tracing.metrics.snapshot(), second.extra)
    metrics, rows = layers.attribute(
        tracing.tracer.as_dicts(), counters_b, extra, second.wall, first.wall
    )
    print(f"\nattribution ({name}, traced pass):")
    print(layers.format_table(rows, second.wall))
    differing = [
        f"{key}: {counters_a[key]} vs {counters_b[key]}"
        for key in layers.DETERMINISM_COUNTERS
        if counters_a[key] != counters_b[key]
    ]
    print("\ndeterminism (two runs):")
    for key in layers.DETERMINISM_COUNTERS:
        print(f"  {key:<26}{counters_a[key]:>16}{counters_b[key]:>16}")
    print("  " + ("; ".join(differing) if differing else "all work counters repeat exactly"))
    items = first.items + second.items
    return {key: (value, unit_for(key)) for key, value in metrics.items()}, items


def unit_for(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


# --- entry point ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs (2 programs, 2 fuzz seeds, 2 CLI invocations)",
    )
    return parser.parse_args(argv)


def main(argv=None, mutate_context: Optional[Callable[[Context], None]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(
            f"error: {ROOT} is not a source checkout (needs src/repro and {GOLDEN.name})",
            file=sys.stderr,
        )
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    prepared = Prepared("smoke" if args.smoke else "full")
    prep_s = prepared.ensure(log)
    ctx = Context(prepared)
    if mutate_context is not None:
        mutate_context(ctx)
    try:
        workload = WORKLOADS[args.workload](ctx)
        rng = random.Random(args.seed)
        log(f"preparation {prep_s:.2f}s (excluded from every metric)")
        errors: List[str] = []
        if args.trace == 0:
            ctx.calibrate = True
            pin_to_one_cpu()
            setup_times = measure_setup(ctx.tmp, untimed=1)
            passes, peak = run_timed(workload, args.seconds, rng)
            setup_times += measure_setup(ctx.tmp)
            metrics, notes, items, errors = end_to_end(passes, peak, setup_times, ctx)
        else:
            metrics, items = per_layer(workload, rng, args.workload)
            notes = {}
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    failed_items = [item for item in items if item.error]
    for item in failed_items[:20]:
        print(f"FAILED {item.label}: {item.error}", file=sys.stderr)
    for error in errors:
        print(f"FAILED quality: {error}", file=sys.stderr)
    print(f"\n{args.workload}: {len(items)} items, {len(failed_items)} failed")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28}{value:>16.6g} {unit}{note}")
    correct = not failed_items and not errors
    result = {
        "correct": correct,
        "attempted": len(items),
        "failed": len(failed_items) + (1 if errors else 0),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

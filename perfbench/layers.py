"""Per-layer attribution of one traced pass.

A traced pass runs with an ambient :class:`repro.obs.Observer` whose
tracer is on.  The program records its own spans (``frontend.*``,
``opt.<pass>``, ``jumps.step*``, ``ease.*``, ``exec.cell``); this
benchmark adds spans around the calls it makes into layers that have
none (``exec.cache.get``/``put``, ``cache.sim``, ``verify.*``,
``ease.compile``, and a root per item).  :func:`attribute` folds them
with :func:`repro.obs.aggregate_spans`, maps each span name to a layer,
and turns self times plus the program's counters into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

LAYERS = ("frontend", "opt", "core", "ease", "cache", "exec", "verify", "cli")

#: Item roots this benchmark opens.  ``exec.run_matrix`` wraps a public
#: ``run_matrix`` call, so its self time is the execution layer's
#: dispatch work; the fuzz root's self time is harness code.
ITEM_ROOTS = {"exec.run_matrix": "exec", "bench.fuzz_program": None}

STEP_SPANS = {
    "step1": "jumps.step1.shortest_paths",
    "step2": "jumps.step2.select",
    "step3": "jumps.step3.complete_loops",
    "step4_5": "jumps.step4_5.apply",
    "step6": "jumps.step6.reducibility",
}
OPT_PASSES = (
    "combine",
    "code_motion",
    "legalize",
    "dead_vars",
    "strength_reduction",
    "regalloc",
)

#: Work counters whose values must repeat exactly between two runs.
DETERMINISM_COUNTERS = (
    "core.sssp.relaxations",
    "ease.dynamic_insns",
    "ease.trace.records",
    "cache.fastforward.iters",
    "opt.pass_invocations",
    "verify.sanitize.checks",
    "exec.cache.hits",
)


@contextmanager
def span(name: str, **attrs):
    """A span on the ambient tracer, or nothing when tracing is off."""
    from repro.obs import active

    obs = active()
    if obs is None or not obs.tracer.enabled:
        yield None
        return
    with obs.tracer.span(name, **attrs) as opened:
        yield opened


def layer_of(name: str) -> Optional[str]:
    if name in ITEM_ROOTS:
        return ITEM_ROOTS[name]
    if name.startswith("frontend."):
        return "frontend"
    if name.startswith("jumps.") or name in ("opt.replication", "opt.replication_final"):
        return "core"
    if name.startswith("opt."):
        return "opt"
    if name.startswith("ease."):
        return "ease"
    if name == "cache.sim":
        return "cache"
    if name.startswith("exec."):
        return "exec"
    if name.startswith("verify."):
        return "verify"
    return None


def work_counters(snapshot: dict, extra: dict) -> Dict[str, float]:
    """The program's counters under the ledger's names."""
    counters = snapshot.get("counters", {}) if snapshot else {}
    histograms = snapshot.get("histograms", {}) if snapshot else {}
    get = lambda name: counters.get(name, 0)  # noqa: E731
    return {
        "core.sssp.relaxations": get("sssp.relaxations"),
        "ease.dynamic_insns": get("ease.dynamic_insns"),
        "ease.trace.records": get("trace.rle.records"),
        "cache.fastforward.iters": extra.get("fastforward_iters", 0),
        "opt.pass_invocations": get("opt.pass_invocations"),
        "verify.sanitize.checks": get("verify.sanitize.pass") + get("verify.sanitize.fail"),
        "exec.cache.hits": extra.get("cache_hits", get("exec.cache.hits")),
        "opt.loop_iterations": histograms.get("opt.loop_iterations", {}).get("sum", 0),
        "core.jumps_replaced": get("replication.accepted") + get("replication.redundant"),
        "core.rtls_replicated": get("replication.rtls_replicated"),
        "core.guard_stops": get("replication.convergence_guard"),
        "ease.compile.fallbacks": get("ease.compile.fallbacks"),
        "exec.singleflight.acquired": get("exec.singleflight.acquired"),
        "verify.oracle.runs": get("verify.oracle.runs"),
        "analysis.hits": get("analysis.cache.hit"),
        "analysis.misses": get("analysis.cache.miss"),
        "ease.compile.counted_s": get("ease.compile.time_ms") / 1000.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def attribute(
    spans: List[dict],
    counters: Dict[str, float],
    extra: dict,
    traced_wall: float,
    untraced_wall: float,
):
    """Per-layer metrics and the attribution table for one traced pass.

    Returns ``(metrics, rows)``; ``rows`` is ``[(layer, seconds), ...]``
    whose seconds, plus the unattributed remainder, sum to
    ``traced_wall``.
    """
    from repro.obs import aggregate_spans

    self_time: Dict[str, float] = defaultdict(float)
    total_time: Dict[str, float] = defaultdict(float)

    def walk(node: dict) -> None:
        self_time[node["name"]] += node["self"]
        total_time[node["name"]] += node["total"]
        for child in node["children"]:
            walk(child)

    for root in aggregate_spans(spans):
        walk(root)

    layers: Dict[str, float] = defaultdict(float)
    for name, seconds in self_time.items():
        layer = layer_of(name)
        if layer is not None:
            layers[layer] += seconds
    # Compiled EASE builds its code objects before its first span opens,
    # so inside a cell that time sits in ``exec.cell``'s self time; the
    # engine's own compile-time counter moves it to the ease layer.
    cell_compile = counters["ease.compile.counted_s"] if "exec.cell" in self_time else 0.0
    layers["ease"] += cell_compile
    layers["exec"] -= cell_compile
    for name, seconds in extra.get("layer_seconds", {}).items():
        layers[name] += seconds

    parsed_bytes = sum(
        (row.get("attrs") or {}).get("bytes", 0)
        for row in spans
        if row.get("name") == "frontend.parse"
    )
    opt_layer = layers["opt"]
    ease_run = total_time["ease.interp"]
    sim = total_time["cache.sim"]
    cache_get = total_time["exec.cache.get"] + extra.get("cache_get_s", 0.0)
    cache_put = total_time["exec.cache.put"]
    lookups = extra.get("cache_hits", 0) + extra.get("cache_misses", 0)
    analysis = counters["analysis.hits"] + counters["analysis.misses"]
    metrics = {
        "frontend.s": layers["frontend"],
        "frontend.bytes_per_s": _ratio(parsed_bytes, layers["frontend"]),
        "opt.s": opt_layer,
        **{f"opt.{name}.s": self_time[f"opt.{name}"] for name in OPT_PASSES},
        "opt.pass_invocations": counters["opt.pass_invocations"],
        "opt.loop_iterations": counters["opt.loop_iterations"],
        "core.replication.s": layers["core"],
        **{f"core.jumps.{step}.s": self_time[name] for step, name in STEP_SPANS.items()},
        "core.sssp.relaxations": counters["core.sssp.relaxations"],
        "core.jumps_replaced": counters["core.jumps_replaced"],
        "core.rtls_replicated": counters["core.rtls_replicated"],
        "core.guard_stops": counters["core.guard_stops"],
        "cfg.analysis.hit_ratio": _ratio(counters["analysis.hits"], analysis),
        "ease.compile.s": total_time["ease.compile"] + cell_compile,
        "ease.run.s": ease_run,
        "ease.dynamic_insns": counters["ease.dynamic_insns"],
        "ease.insns_per_s": _ratio(counters["ease.dynamic_insns"], ease_run),
        "ease.compile.fallbacks": counters["ease.compile.fallbacks"],
        "ease.trace.records": counters["ease.trace.records"],
        "ease.trace.bytes": extra.get("trace_bytes", 0),
        "cache.sim.s": sim,
        "cache.sim.records_per_s": _ratio(extra.get("sim_records", 0), sim),
        "cache.fastforward.iters": counters["cache.fastforward.iters"],
        "exec.cache.put.s": cache_put,
        "exec.cache.get.s": cache_get,
        "exec.cache.hit_ratio": _ratio(extra.get("cache_hits", 0), lookups),
        "exec.cache.entry_bytes": extra.get("entry_bytes", 0),
        "exec.singleflight.acquired": counters["exec.singleflight.acquired"],
        "exec.cell.overhead.s": max(0.0, layers["exec"] - cache_get - cache_put),
        "verify.sanitize.s": total_time["verify.sanitize"],
        "verify.oracle.s": total_time["verify.oracle"],
        "verify.sanitize.checks": counters["verify.sanitize.checks"],
        "verify.oracle.runs": counters["verify.oracle.runs"],
        "cli.python_start.s": extra.get("cli.python_start.s", 0.0),
        "cli.import.s": extra.get("cli.import.s", 0.0),
        "cli.command.s": extra.get("cli.command.s", 0.0),
    }
    rows = [(layer, layers[layer]) for layer in LAYERS]
    attributed = sum(seconds for _, seconds in rows)
    metrics["trace.unattributed_frac"] = _ratio(traced_wall - attributed, traced_wall)
    metrics["trace.overhead_frac"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    return metrics, rows


def format_table(rows, traced_wall: float) -> str:
    lines = [f"{'layer':<12}{'self s':>10}{'share':>9}"]
    attributed = 0.0
    for layer, seconds in rows:
        attributed += seconds
        lines.append(f"{layer:<12}{seconds:>10.3f}{seconds / traced_wall:>9.1%}")
    rest = traced_wall - attributed
    lines.append(f"{'unattributed':<12}{rest:>10.3f}{rest / traced_wall:>9.1%}")
    lines.append(f"{'wall_s':<12}{traced_wall:>10.3f}{1:>9.1%}")
    return "\n".join(lines)

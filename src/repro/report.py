"""Terminal and markdown tables: the CLI's reports, the trace digest and
the paper's Tables 4–6, §5.2 and §6 (:func:`collect`, :func:`render`,
printed by ``repro tables`` and kept in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from .targets.names import TARGETS

__all__ = [
    "format_table",
    "pct",
    "mean",
    "format_pass_table",
    "format_cache_stats",
    "format_span_tree",
    "format_metrics",
    "format_decision_digest",
    "format_trace_digest",
    "collect",
    "render",
]


def pct(new: float, base: float) -> str:
    """Relative change ``new`` vs ``base`` in the paper's +x.xx% style."""
    if base == 0:
        return "   n/a"
    change = (new - base) / base * 100.0
    return f"{change:+.2f}%"


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned plain-text table."""
    rendered: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append(
            "  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_pass_table(aggregate: Mapping[str, Dict[str, float]]) -> str:
    """Render the per-pass table, slowest pass first.

    ``aggregate`` is the shape produced by
    :func:`repro.obs.digest.pass_table`: pass name
    to calls / changed / seconds / rtl_delta / jumps_removed totals.
    """
    rows = [
        [
            name,
            int(agg["calls"]),
            int(agg["changed"]),
            f"{agg['seconds'] * 1000:.1f}",
            f"{int(agg['rtl_delta']):+d}",
            f"{int(agg['jumps_removed']):+d}",
        ]
        for name, agg in sorted(
            aggregate.items(), key=lambda item: -item[1]["seconds"]
        )
    ]
    return format_table(
        ["pass", "calls", "changed", "ms", "ΔRTLs", "jumps removed"], rows
    )


def format_cache_stats(stats: Mapping[str, object]) -> str:
    """One-line summary of :meth:`repro.exec.cache.ResultCache.stats`."""
    return (
        f"cache {stats['root']} (schema v{stats['schema_version']}): "
        f"{stats['entries']} entries, {stats['hits']} hits, "
        f"{stats['misses']} misses, {stats['writes']} writes, "
        f"{stats['write_errors']} write errors, {stats['evictions']} evictions"
    )


# --- observability rendering ---------------------------------------------------
#
# The aggregation lives in :mod:`repro.obs.digest` (pure data in, plain
# dicts out); this section turns those aggregates into terminal text for
# the ``repro trace`` subcommand and the post-run ``--trace`` summary.


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def format_span_tree(roots: Sequence[dict], max_depth: int = 6) -> str:
    """Flame-style indented breakdown of an aggregated span tree.

    ``roots`` is the output of :func:`repro.obs.digest.aggregate_spans`.
    Each line shows calls, total and self time plus the share of its
    root's total — the closest a terminal gets to a flame graph.
    """
    lines: List[str] = []
    lines.append(
        f"{'span':<44}  {'calls':>6}  {'total':>9}  {'self':>9}  {'%root':>6}"
    )
    lines.append(f"{'-' * 44}  {'-' * 6}  {'-' * 9}  {'-' * 9}  {'-' * 6}")

    def walk(node: dict, depth: int, root_total: float) -> None:
        indent = "  " * depth
        share = node["total"] / root_total * 100.0 if root_total > 0 else 0.0
        name = f"{indent}{node['name']}"
        if len(name) > 44:
            name = name[:41] + "..."
        lines.append(
            f"{name:<44}  {node['calls']:>6}  "
            f"{_format_seconds(node['total']):>9}  "
            f"{_format_seconds(node['self']):>9}  {share:>5.1f}%"
        )
        if depth + 1 >= max_depth:
            return
        for child in node["children"]:
            walk(child, depth + 1, root_total)

    for root in roots:
        walk(root, 0, root["total"])
    return "\n".join(lines)


def format_metrics(snapshot: Mapping[str, dict]) -> str:
    """Render a metrics-registry snapshot: counters and histograms."""
    sections: List[str] = []
    counters = snapshot.get("counters") or {}
    if counters:
        rows = [[name, counters[name]] for name in sorted(counters)]
        sections.append(format_table(["counter", "value"], rows))
    histograms = snapshot.get("histograms") or {}
    if histograms:
        rows = []
        for name in sorted(histograms):
            hist = histograms[name]
            bounds = hist["buckets"]
            counts = hist["counts"]
            total = sum(counts)
            parts = []
            for i, count in enumerate(counts):
                if not count:
                    continue
                if i < len(bounds):
                    label = f"<={bounds[i]}"
                else:
                    label = f">{bounds[-1]}"
                parts.append(f"{label}:{count}")
            rows.append([name, total, " ".join(parts) or "-"])
        sections.append(format_table(["histogram", "n", "buckets"], rows))
    return "\n\n".join(sections) if sections else "(no metrics recorded)"


def format_decision_digest(digest: Mapping[str, object]) -> str:
    """Render a :func:`repro.obs.digest.decision_digest` summary."""
    total = digest.get("total", 0)
    if not total:
        return "(no replication decisions recorded)"
    lines: List[str] = []
    outcomes = digest.get("outcomes") or {}
    summary = ", ".join(
        f"{count} {name}" for name, count in sorted(outcomes.items())
    )
    lines.append(
        f"{total} candidate jumps considered: {summary}; "
        f"{digest.get('rtls_replicated', 0)} RTLs replicated across "
        f"{digest.get('blocks_copied', 0)} copied blocks"
    )
    reasons = digest.get("reasons") or {}
    if reasons:
        detail = ", ".join(
            f"{name}={count}"
            for name, count in sorted(reasons.items(), key=lambda i: -i[1])
        )
        lines.append(f"rejection/keep reasons: {detail}")
    kinds = digest.get("sequence_kinds") or {}
    if kinds:
        detail = ", ".join(
            f"{name}={count}" for name, count in sorted(kinds.items())
        )
        lines.append(f"sequence kinds: {detail}")
    functions = digest.get("functions") or []
    if functions:
        rows = [
            [
                row["function"],
                row["decisions"],
                row["accepted"],
                row["rtls"],
                row["rollbacks"],
            ]
            for row in functions[:20]
        ]
        lines.append("")
        lines.append(
            format_table(
                ["function", "decisions", "accepted", "RTLs", "rollbacks"], rows
            )
        )
        if len(functions) > 20:
            lines.append(f"... and {len(functions) - 20} more functions")
    return "\n".join(lines)


def format_trace_digest(events: Sequence[dict]) -> str:
    """Full terminal digest of a JSONL trace: spans, metrics, decisions."""
    from .obs.digest import aggregate_spans, decision_digest, split_events

    spans, decisions, metrics = split_events(list(events))
    sections: List[str] = []
    meta = next((e for e in events if e.get("event") == "meta"), None)
    if meta is not None:
        label = meta.get("label") or "(unlabeled)"
        sections.append(f"trace: {label} (schema v{meta.get('schema', '?')})")
    if spans:
        sections.append("Span breakdown (flame-style, heaviest first):")
        sections.append(format_span_tree(aggregate_spans(spans)))
    else:
        sections.append("(no spans recorded)")
    sections.append("Metrics:")
    sections.append(format_metrics(metrics))
    sections.append("Replication decision log:")
    sections.append(format_decision_digest(decision_digest(decisions)))
    return "\n\n".join(sections)


# --- the paper's tables --------------------------------------------------------
#
# ``collect`` measures every cell EXPERIMENTS.md reports, as integers per
# section (the goldens under ``tests/golden/``); ``render`` turns them into
# markdown.  Pipeline imports stay inside: ``import repro.cli`` loads no compiler.

CACHE_SIZES = (128, 256, 512, 1024, 2048, 4096, 8192)  # scaled [:4], paper [3:]
MAX_RTLS_BOUNDS = (2, 4, 8, 16)
PROFILE_THRESHOLDS = (0.0, 0.02, 0.1, 0.5)
ASSOC_SIZES = (128, 256, 512)
ASSOC_WAYS = (2, 4)
#: Pipeline model: refill bubbles per taken control transfer.
TAKEN_PENALTY = 2

_TARGET = {"sparc": "SPARC", "m68020": "68020"}
_CONFIG = {"none": "SIMPLE", "loops": "LOOPS", "jumps": "JUMPS"}
_FIELDS = ("static_insns", "dynamic_insns")
_MATRIX_FIELDS = {
    "table45": ("static_insns", "static_jumps", "dynamic_insns", "dynamic_jumps"),
    "sec52": ("dynamic_nops", "dynamic_branches"),
}


def _key(*parts: object) -> str:
    return "/".join(f"{p:g}" if isinstance(p, float) else str(p) for p in parts)


def cell_specs() -> dict:
    """Every cell :func:`collect` measures, by ``(section, key)``.

    Section ``"matrix"`` is the traced Table 4–6 matrix, keyed
    ``target/config/name``; ``"maxlen"``, ``"policy"`` and ``"profile"``
    are the §6 SPARC JUMPS cells, keyed ``bound/name``, ``policy/name``
    and ``threshold/name``.
    """
    from .benchsuite.programs import program_names
    from .core.policy import REPLICATIONS
    from .exec.envelope import CellSpec

    names = program_names()
    specs = {
        ("matrix", _key(target, config, name)): CellSpec(name, target, config, trace=True)
        for target in TARGETS for config in REPLICATIONS for name in names
    }
    for name in names:
        for bound in MAX_RTLS_BOUNDS:
            specs["maxlen", _key(bound, name)] = CellSpec(name, replication="jumps", max_rtls=bound)
        for policy in ("returns", "loops"):
            specs["policy", _key(policy, name)] = CellSpec(name, replication="jumps", policy=policy)
        for threshold in PROFILE_THRESHOLDS:
            specs["profile", _key(threshold, name)] = CellSpec(
                name, replication="jumps", profile_threshold=threshold
            )
    return specs


def matrix_cells(matrix: Mapping[tuple, object]) -> Dict[str, dict]:
    """Tables 4, 5, 6, §5.2 and the §6 associativity sweep as integers,
    from traced measurements keyed ``(target, config, name)``.

    Each cell's trace is walked once: every Table-6 size from 128 B to
    8 KB with context switches on and off, plus, for the SPARC SIMPLE and
    JUMPS cells, the 2- and 4-way caches without context switches.
    """
    from .cache import CacheConfig, simulate_multi_cache

    sweep = [(size, ctx) for size in CACHE_SIZES for ctx in ("on", "off")]
    assoc = [(ways, size) for size in ASSOC_SIZES for ways in ASSOC_WAYS]
    table6 = [(CacheConfig(size=size), ctx == "on") for size, ctx in sweep]
    with_assoc = table6 + [
        (CacheConfig(size=size, associativity=ways), False) for ways, size in assoc
    ]
    cells: Dict[str, dict] = {"table45": {}, "sec52": {}, "table6": {}, "assoc": {}}
    for (target, config, name), m in sorted(matrix.items()):
        key = _key(target, config, name)
        for section, fields in _MATRIX_FIELDS.items():
            cells[section][key] = {field: getattr(m, field) for field in fields}
        grid = with_assoc if target == "sparc" and config in ("none", "jumps") else table6
        configs, flags = zip(*grid)
        results = simulate_multi_cache(
            m.trace, m.block_fetches, configs, context_switches=flags
        )
        row = cells["table6"][key] = {"accesses": results[0].accesses}
        for (size, ctx), result in zip(sweep, results):
            row[_key(size, ctx)] = [result.misses, result.fetch_cost]
        for (ways, size), r in zip(assoc, results[len(sweep):]):
            cells["assoc"][_key(ways, size, config, name)] = [r.misses, r.fetch_cost]
    return cells


def extension_cells(
    matrix: Mapping[tuple, object], measured: Mapping[tuple, object]
) -> Dict[str, dict]:
    """Four §6 tables as integers (SPARC, all 14 programs); the fifth,
    associativity, comes from :func:`matrix_cells`' walk.

    ``measured`` maps :func:`cell_specs` keys to results; its ``maxlen``,
    ``policy`` and ``profile`` cells are read here.  ``matrix``'s SPARC
    SIMPLE and JUMPS cells are the baseline and the pipeline model's
    counts; they must be traced.
    """
    from .benchsuite.programs import program_names

    cells: Dict[str, dict] = {s: {} for s in ("maxlen", "policy", "profile", "pipeline")}
    for (section, key), result in measured.items():
        if section == "matrix":
            continue
        m = result.measurement
        cells[section][key] = [m.static_insns, m.dynamic_insns]
        if section == "profile":
            name = result.spec.program
            if m.output != matrix[("sparc", "none", name)].output:
                raise RuntimeError(f"profile-guided {name} changed its output")
            stats = result.replication_stats
            cells[section][key] += [stats["hot_jumps"], stats["cold_jumps"]]
    for name in program_names():
        for config in ("none", "jumps"):
            m = matrix[("sparc", config, name)]
            cycles = m.dynamic_insns + TAKEN_PENALTY * m.taken_transfers
            cells["pipeline"][_key(config, name)] = [m.dynamic_insns, m.taken_transfers, cycles]
    return cells


def collect() -> Dict[str, dict]:
    """Measure every EXPERIMENTS table.

    Every cell of :func:`cell_specs` runs in one parallel run (one
    worker per core) through the default on-disk result cache,
    ``.repro-cache``, so a second call in the same directory runs no
    cell; one cache walk per matrix trace then serves Table 6 and the
    associativity sweep here.  Raises ``RuntimeError`` listing every
    failed cell.
    """
    from .exec import ParallelRunner, ResultCache

    specs = cell_specs()
    results = ParallelRunner(cache=ResultCache()).run(list(specs.values()))
    failures = [f"{r.spec.label}:\n{r.error}" for r in results if not r.ok]
    if failures:
        raise RuntimeError(f"{len(failures)} table cell(s) failed:\n" + "\n".join(failures))
    measured = dict(zip(specs, results))
    matrix = {
        (r.spec.target, r.spec.replication, r.spec.program): r.measurement
        for (section, _), r in measured.items()
        if section == "matrix"
    }
    return {**matrix_cells(matrix), **extension_cells(matrix, measured)}


#: Section name -> title, in ``render`` order.
TABLE_TITLES = {
    "table4": "Table 4 — percent of instructions that are unconditional jumps",
    "table5": "Table 5 — mean change in instructions vs SIMPLE",
    **{f"table6-{sizes}-{ctx}": f"Table 6 — mean change vs SIMPLE, {sizes} sizes, "
       f"context switches {ctx}" for sizes in ("scaled", "paper") for ctx in ("on", "off")},
    "sec52": "§5.2 — block size and delay-slot no-ops (SPARC)",
    "maxlen": "§6 — bounded replication length (SPARC, mean vs SIMPLE)",
    "policy": "§6 — step-2 policy (SPARC, vs SIMPLE)",
    "profile": "§6 — profile-guided replication (SPARC, mean vs SIMPLE)",
    "assoc": "§6 — associativity × replication (SPARC, no context switches)",
    "pipeline": f"§6 — pipeline model (SPARC, taken-branch penalty {TAKEN_PENALTY})",
}

# The paper's own columns: Table 4 (static, dynamic) and Table 5 (SPARC, 68020).
_PAPER_TABLE4 = {
    ("sparc", "none"): ("3.74 %", "3.28 %"), ("sparc", "loops"): ("2.40 %", "1.89 %"),
    ("sparc", "jumps"): ("0.03 %", "0.10 %"), ("m68020", "none"): ("5.08 %", "4.14 %"),
    ("m68020", "loops"): ("3.42 %", "2.47 %"), ("m68020", "jumps"): ("0.04 %", "0.13 %"),
}
_PAPER_TABLE5 = {
    ("loops", "static"): ("+3.97 %", "+2.62 %"), ("jumps", "static"): ("+56.53 %", "~+53 %"),
    ("loops", "dynamic"): ("−2.39 %", "−2.92 %"), ("jumps", "dynamic"): ("−5.71 %", "−6.9 %"),
}


def _signed(value: float) -> str:
    return f"{value:+.2f} %".replace("-", "−")


def _change(new: float, base: float) -> float:
    return (new - base) / base * 100.0


def _markdown(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    def line(cells: Sequence[object]) -> str:
        return "|" + "".join(f" {cell} |" if cell != "" else " |" for cell in cells)

    return "\n".join([line(headers), "|" + "---|" * len(headers), *map(line, rows)])


def render(cells: Mapping[str, dict]) -> Dict[str, str]:
    """Every EXPERIMENTS table as markdown, keyed like :data:`TABLE_TITLES`."""
    from .benchsuite.programs import program_names

    names = program_names()
    t45, t6 = cells["table45"], cells["table6"]

    def over(per_program) -> float:  # the mean over the 14 programs
        return mean([per_program(n) for n in names])

    def count(target: str, config: str, n: str, field: str) -> int:
        return t45[_key(target, config, n)][field]

    def change(target: str, config: str, field: str):
        return lambda n: _change(count(target, config, n, field), count(target, "none", n, field))

    def vs_simple(section: str, label: object, index: int, field: str):
        return lambda n: _change(cells[section][_key(label, n)][index],
                                 count("sparc", "none", n, field))

    tables: Dict[str, str] = {}
    rows = []
    for (target, config), paper in _PAPER_TABLE4.items():
        row = [f"{_TARGET[target]} {_CONFIG[config]}"]
        for kind, paper_value in zip(("static", "dynamic"), paper):
            share = over(lambda n: 100.0 * count(target, config, n, f"{kind}_jumps")
                         / max(1, count(target, config, n, f"{kind}_insns")))
            row += [paper_value, f"{share:.2f} %"]
        rows.append(row)
    tables["table4"] = _markdown(["", "paper (static)", "measured (static)",
                                  "paper (dynamic)", "measured (dynamic)"], rows)

    rows = [
        [f"{_CONFIG[config]} {kind}"]
        + [value for target, paper_value in zip(TARGETS, paper) for value in
           (paper_value, _signed(over(change(target, config, f"{kind}_insns"))))]
        for (config, kind), paper in _PAPER_TABLE5.items()
    ]
    tables["table5"] = _markdown(["", "paper SPARC", "measured SPARC",
                                  "paper 68020", "measured 68020"], rows)

    def cache_change(target: str, config: str, size: int, ctx: str, metric: str):
        def one(n: str) -> float:
            row, base = t6[_key(target, config, n)], t6[_key(target, "none", n)]
            (misses, cost), (base_misses, base_cost) = row[_key(size, ctx)], base[_key(size, ctx)]
            if metric == "fetch cost":
                return _change(cost, base_cost)
            return (misses / row["accesses"] - base_misses / base["accesses"]) * 100
        return _signed(over(one))

    for label, sizes in (("scaled", CACHE_SIZES[:4]), ("paper", CACHE_SIZES[3:])):
        for ctx in ("on", "off"):
            rows = [
                [f"Δ {metric} ({_TARGET[target]})", _CONFIG[config]]
                + [cache_change(target, config, size, ctx, metric) for size in sizes]
                for metric in ("miss ratio", "fetch cost")
                for target in TARGETS
                for config in ("loops", "jumps")
            ]
            headers = [f"{s // 1024} KB" if s >= 1024 else f"{s} B" for s in sizes]
            tables[f"table6-{label}-{ctx}"] = _markdown(["metric", "config"] + headers, rows)

    gap, nops = {}, {}
    for config in ("none", "jumps"):
        sec52 = {n: cells["sec52"][_key("sparc", config, n)] for n in names}
        gap[config] = over(lambda n: count("sparc", config, n, "dynamic_insns")
                           / max(1, sec52[n]["dynamic_branches"]))
        nops[config] = sum(sec52[n]["dynamic_nops"] for n in names)
    eliminated = 100.0 * (nops["none"] - nops["jumps"]) / max(1, nops["none"])
    tables["sec52"] = _markdown(["", "paper", "measured"], [
        ["extra instructions between branches (JUMPS vs SIMPLE)", "+1.5",
         f"{gap['jumps'] - gap['none']:+.2f} ({gap['none']:.2f} → {gap['jumps']:.2f})"],
        ["executed no-ops eliminated", "50 %", f"{eliminated:.0f} %"],
    ])

    rows = [[str(bound)] + [_signed(over(vs_simple("maxlen", bound, i, f)))
                            for i, f in enumerate(_FIELDS)] for bound in MAX_RTLS_BOUNDS]
    rows.append(["unbounded"] + [_signed(over(change("sparc", "jumps", f))) for f in _FIELDS])
    tables["maxlen"] = _markdown(["max RTLs", "Δ static", "Δ dynamic"], rows)

    columns = [
        (f"{policy} Δ {field[:-6]}", change("sparc", "jumps", field) if policy == "shortest"
         else vs_simple("policy", policy, index, field))
        for index, field in enumerate(_FIELDS)
        for policy in ("shortest", "returns", "loops")
    ]
    rows = [[n] + [_signed(column(n)) for _, column in columns] for n in names]
    rows.append(["mean"] + [_signed(over(column)) for _, column in columns])
    tables["policy"] = _markdown(["program"] + [title for title, _ in columns], rows)

    rows = []
    for threshold in PROFILE_THRESHOLDS:
        hot, cold = (sum(cells["profile"][_key(threshold, n)][i] for n in names) for i in (2, 3))
        rows.append([f"{threshold * 100:g} %" if threshold else "0 (any executed)"]
                    + [_signed(over(vs_simple("profile", threshold, i, f)))
                       for i, f in enumerate(_FIELDS)] + [f"{hot} / {cold}"])
    tables["profile"] = _markdown(
        ["hotness threshold", "Δ static", "Δ dynamic", "hot / cold jumps"], rows)

    def assoc(ways: int, size: int, config: str, n: str) -> list:
        """[misses, fetch cost]; 1-way is Table 6's direct-mapped cell."""
        if ways == 1:
            return t6[_key("sparc", config, n)][_key(size, "off")]
        return cells["assoc"][_key(ways, size, config, n)]

    rows = []
    for size in ASSOC_SIZES:
        for ways in (1,) + ASSOC_WAYS:
            ratios = [
                over(lambda n: 100.0 * assoc(ways, size, config, n)[0]
                     / t6[_key("sparc", config, n)]["accesses"])
                for config in ("none", "jumps")
            ]
            cost = over(lambda n: _change(assoc(ways, size, "jumps", n)[1],
                                          assoc(ways, size, "none", n)[1]))
            rows.append([f"{size} B {ways}-way"]
                        + [f"{ratio:.2f} %" for ratio in ratios] + [_signed(cost)])
    tables["assoc"] = _markdown(
        ["cache", "SIMPLE miss", "JUMPS miss", "JUMPS Δ fetch cost"], rows)

    pipeline = {(c, n): cells["pipeline"][_key(c, n)] for c in ("none", "jumps") for n in names}
    savings = [
        lambda n, i=i: _change(pipeline[("jumps", n)][i], pipeline[("none", n)][i])
        for i in (0, 2)  # instructions, cycles
    ]
    rows = [
        [n] + [f"{pipeline[(c, n)][1]:,}" for c in ("none", "jumps")]
        + [f"{pipeline[(c, n)][2] / pipeline[(c, n)][0]:.3f}" for c in ("none", "jumps")]
        + [_signed(saving(n)) for saving in savings]
        for n in names
    ]
    rows.append(["mean", "", "", "", ""] + [_signed(over(saving)) for saving in savings])
    tables["pipeline"] = _markdown(["program", "taken (SIMPLE)", "taken (JUMPS)", "CPI (SIMPLE)",
                                    "CPI (JUMPS)", "Δ insns", "Δ cycles"], rows)
    return tables

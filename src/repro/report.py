"""Table formatting used by the benchmark harnesses.

The experiment scripts print rows shaped like the paper's tables; this
module keeps the formatting in one place.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

__all__ = [
    "format_table",
    "pct",
    "mean",
    "stddev",
    "format_pass_table",
    "format_cache_stats",
    "format_span_tree",
    "format_metrics",
    "format_decision_digest",
    "format_trace_digest",
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


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (0.0 below two items)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return (sum((v - centre) ** 2 for v in values) / (len(values) - 1)) ** 0.5


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
        f"{stats['evictions']} evictions"
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
    """Render a metrics-registry snapshot: counters, gauges, histograms."""
    sections: List[str] = []
    counters = snapshot.get("counters") or {}
    if counters:
        rows = [[name, counters[name]] for name in sorted(counters)]
        sections.append(format_table(["counter", "value"], rows))
    gauges = snapshot.get("gauges") or {}
    if gauges:
        rows = [[name, gauges[name]] for name in sorted(gauges)]
        sections.append(format_table(["gauge", "value"], rows))
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

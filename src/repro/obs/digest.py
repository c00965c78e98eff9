"""Pure aggregation of trace events into digest-ready structures.

The JSONL sink writes flat events; the terminal renderers in
:mod:`repro.report` want aggregates — a flame-style span tree (calls /
total / self time per span path) and a decision-log digest (outcomes,
reasons, per-function replication cost) and the per-pass table of
``repro bench --passes``.  This module is the pure-data middle layer the
``repro trace`` subcommand, the post-run terminal summary and the bench
report share.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["split_events", "aggregate_spans", "decision_digest", "pass_table"]


def split_events(
    events: List[dict],
) -> Tuple[List[dict], List[dict], dict]:
    """Partition raw JSONL events into (spans, decisions, merged metrics)."""
    from .metrics import MetricsRegistry

    spans: List[dict] = []
    decisions: List[dict] = []
    metrics = MetricsRegistry()
    for event in events:
        kind = event.get("event")
        if kind == "span":
            spans.append(event)
        elif kind == "replication.decision":
            decisions.append(event)
        elif kind == "metrics":
            metrics.merge_snapshot(event.get("data"))
    return spans, decisions, metrics.snapshot()


def aggregate_spans(spans: List[dict]) -> List[dict]:
    """Fold spans into a tree aggregated by name path.

    Spans with the same name under the same aggregated parent share one
    node.  Each node carries ``name``, ``calls``, ``total`` (summed
    duration), ``self`` (total minus the children's total) and
    ``children`` (list of nodes, heaviest first).  Roots are returned
    heaviest first.
    """
    by_id: Dict[int, dict] = {
        span["span_id"]: span for span in spans if "span_id" in span
    }

    # One aggregated node per (parent node identity, name); roots key on
    # a parent identity of None.  Memoized per span id so each span's
    # chain of parents resolves once.
    nodes: Dict[Tuple[Optional[int], str], dict] = {}
    node_of_span: Dict[int, dict] = {}

    def node_for(span: dict) -> dict:
        cached = node_of_span.get(span["span_id"])
        if cached is not None:
            return cached
        parent = span.get("parent_id")
        parent_node: Optional[dict] = None
        if parent is not None and parent in by_id:
            parent_node = node_for(by_id[parent])
        key = (id(parent_node) if parent_node is not None else None, span["name"])
        node = nodes.get(key)
        if node is None:
            node = {
                "name": span["name"],
                "calls": 0,
                "total": 0.0,
                "self": 0.0,
                "children": [],
            }
            nodes[key] = node
            if parent_node is not None:
                parent_node["children"].append(node)
        node_of_span[span["span_id"]] = node
        return node

    for span in spans:
        if "span_id" not in span:
            continue
        node = node_for(span)
        node["calls"] += 1
        node["total"] += float(span.get("duration") or 0.0)

    roots = [node for (parent, _), node in nodes.items() if parent is None]

    def finish(node: dict) -> None:
        child_total = sum(c["total"] for c in node["children"])
        node["self"] = max(0.0, node["total"] - child_total)
        node["children"].sort(key=lambda c: -c["total"])
        for child in node["children"]:
            finish(child)

    for root in roots:
        finish(root)
    roots.sort(key=lambda n: -n["total"])
    return roots


def decision_digest(decisions: List[dict]) -> dict:
    """Summarize decision-log entries for the terminal digest.

    Returns plain data: totals by outcome, failure reasons, sequence
    kinds, per-policy outcomes, and the per-function replication bill
    (jumps replaced / RTLs replicated / rollbacks), heaviest first.
    """
    outcomes: Dict[str, int] = {}
    reasons: Dict[str, int] = {}
    kinds: Dict[str, int] = {}
    policies: Dict[str, Dict[str, int]] = {}
    functions: Dict[str, dict] = {}
    total_rtls = 0
    total_copies = 0
    for decision in decisions:
        outcome = decision.get("outcome", "?")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        reason = decision.get("reason") or ""
        if reason:
            reasons[reason] = reasons.get(reason, 0) + 1
        kind = decision.get("sequence_kind") or ""
        if kind:
            kinds[kind] = kinds.get(kind, 0) + 1
        policy = decision.get("policy", "?")
        per_policy = policies.setdefault(policy, {})
        per_policy[outcome] = per_policy.get(outcome, 0) + 1
        row = functions.setdefault(
            decision.get("function", "?"),
            {"decisions": 0, "accepted": 0, "rtls": 0, "rollbacks": 0},
        )
        row["decisions"] += 1
        rollbacks = int(decision.get("rollbacks") or 0)
        row["rollbacks"] += rollbacks
        if outcome in ("accepted", "redundant"):
            row["accepted"] += 1
        if outcome == "accepted":
            rtls = int(decision.get("sequence_rtls") or 0)
            row["rtls"] += rtls
            total_rtls += rtls
            total_copies += len(decision.get("copies") or [])
    ranked = sorted(
        functions.items(), key=lambda item: (-item[1]["rtls"], item[0])
    )
    return {
        "total": len(decisions),
        "outcomes": outcomes,
        "reasons": reasons,
        "sequence_kinds": kinds,
        "policies": policies,
        "functions": [{"function": name, **row} for name, row in ranked],
        "rtls_replicated": total_rtls,
        "blocks_copied": total_copies,
    }


def pass_table(spans: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """Fold the optimizer's ``opt.<pass>`` spans into per-pass totals.

    Keys are pass names in first-seen order; each value sums ``calls``,
    ``changed`` (invocations reporting a change), ``seconds`` (span
    durations), ``rtl_delta`` and ``jumps_removed`` over every invocation.
    Other spans (``opt.function`` included) carry no census and are
    skipped.
    """
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        attrs = span.get("attrs") or {}
        if not span["name"].startswith("opt.") or "rtl_delta" not in attrs:
            continue
        row = table.setdefault(
            span["name"][len("opt."):],
            {
                "calls": 0,
                "changed": 0,
                "seconds": 0.0,
                "rtl_delta": 0,
                "jumps_removed": 0,
            },
        )
        row["calls"] += 1
        row["changed"] += 1 if attrs.get("changed") else 0
        row["seconds"] += float(span.get("duration") or 0.0)
        row["rtl_delta"] += attrs["rtl_delta"]
        row["jumps_removed"] += attrs["jumps_removed"]
    return table

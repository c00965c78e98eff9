"""Terminal renderers for traces: span tree, metrics, decision digest."""

from repro.report import (
    format_decision_digest,
    format_metrics,
    format_span_tree,
    format_trace_digest,
)


def _node(name, calls=1, total=1.0, self_=1.0, children=()):
    return {
        "name": name,
        "calls": calls,
        "total": total,
        "self": self_,
        "children": list(children),
    }


class TestSpanTree:
    def test_indented_tree_with_shares(self):
        tree = [
            _node(
                "root",
                total=2.0,
                self_=1.0,
                children=[_node("child", total=1.0)],
            )
        ]
        text = format_span_tree(tree)
        lines = text.splitlines()
        assert "root" in lines[2]
        assert "  child" in lines[3]
        assert "100.0%" in lines[2]
        assert "50.0%" in lines[3]

    def test_depth_limit(self):
        deep = _node("d3")
        for name in ("d2", "d1", "d0"):
            deep = _node(name, children=[deep])
        text = format_span_tree([deep], max_depth=2)
        assert "d1" in text and "d2" not in text

    def test_zero_total_does_not_divide_by_zero(self):
        text = format_span_tree([_node("idle", total=0.0, self_=0.0)])
        assert "idle" in text


class TestMetrics:
    def test_counters_gauges_histograms_rendered(self):
        # Traces written while the registry still had gauges carry a
        # "gauges" key: the snapshot still renders, without them.
        snap = {
            "counters": {"ease.runs": 3},
            "gauges": {"workers": 4},
            "histograms": {
                "seq": {"buckets": [1, 2], "counts": [1, 0, 2], "sum": 9, "count": 3}
            },
        }
        text = format_metrics(snap)
        assert "ease.runs" in text and "3" in text
        assert "workers" not in text
        assert "<=1:1" in text and ">2:2" in text

    def test_empty_snapshot(self):
        assert "no metrics" in format_metrics({})


class TestDecisionDigestRender:
    def test_summary_lines(self):
        digest = {
            "total": 3,
            "outcomes": {"accepted": 2, "rejected": 1},
            "reasons": {"max_rtls": 1},
            "sequence_kinds": {"fallthrough": 2},
            "policies": {"shortest": {"accepted": 2, "rejected": 1}},
            "functions": [
                {
                    "function": "main",
                    "decisions": 3,
                    "accepted": 2,
                    "rtls": 7,
                    "rollbacks": 0,
                }
            ],
            "rtls_replicated": 7,
            "blocks_copied": 2,
        }
        text = format_decision_digest(digest)
        assert "3 candidate jumps considered" in text
        assert "2 accepted" in text
        assert "max_rtls=1" in text
        assert "main" in text

    def test_empty_digest(self):
        assert "no replication decisions" in format_decision_digest({"total": 0})


class TestFullDigest:
    def test_renders_all_sections_from_events(self):
        events = [
            {"event": "meta", "schema": 1, "label": "unit"},
            {
                "event": "span",
                "name": "work",
                "span_id": 0,
                "parent_id": None,
                "start": 0.0,
                "duration": 1.0,
            },
            {"event": "metrics", "data": {"counters": {"n": 1}}},
            {
                "event": "replication.decision",
                "function": "f",
                "outcome": "accepted",
                "policy": "shortest",
                "sequence_rtls": 3,
                "copies": ["L1"],
            },
        ]
        text = format_trace_digest(events)
        assert "trace: unit" in text
        assert "work" in text
        assert "1 candidate jumps considered" in text

    def test_spanless_trace(self):
        events = [{"event": "metrics", "data": {"counters": {"n": 1}}}]
        text = format_trace_digest(events)
        assert "no spans recorded" in text

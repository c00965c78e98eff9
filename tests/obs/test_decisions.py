"""Replication decision log — unit behavior and real-run coverage."""

from repro.api import compile_and_measure
from repro.core import CodeReplicator
from repro.obs import observing
from repro.obs.decisions import DecisionLog, ReplicationDecision
from repro.obs.digest import decision_digest
from tests.core.test_replication_valve import CASCADING_SOURCE, _main_function
from tests.core.valves import valves

VALID_OUTCOMES = {"accepted", "redundant", "rejected", "kept"}
VALID_REASONS = {
    "",
    "irreducible",
    "max_rtls",
    "loop_completion",
    "inadmissible",
    "no_candidates",
    "filtered",
    "self_loop",
    "stale_target",
    "convergence_guard",
}


def _decision(**overrides) -> ReplicationDecision:
    base = dict(
        function="f",
        block="B1",
        target="L1",
        mode="jumps",
        policy="shortest",
        outcome="accepted",
    )
    base.update(overrides)
    return ReplicationDecision(**base)


class TestLog:
    def test_record_and_export(self):
        log = DecisionLog()
        log.record(_decision(copies=["L1000"]))
        assert len(log) == 1
        (row,) = log.as_dicts()
        assert row["outcome"] == "accepted"
        assert row["copies"] == ["L1000"]

    def test_disabled_log_drops_everything(self):
        log = DecisionLog(enabled=False)
        log.record(_decision())
        assert len(log) == 0

    def test_merge_dicts_round_trip(self):
        source = DecisionLog()
        source.record(_decision(function="g", outcome="rejected", reason="max_rtls"))
        sink = DecisionLog()
        sink.merge_dicts(source.as_dicts())
        assert len(sink) == 1
        assert sink.decisions[0].reason == "max_rtls"

    def test_replicated_labels_filters_by_function(self):
        log = DecisionLog()
        log.record(_decision(function="f", copies=["L1", "L2"]))
        log.record(_decision(function="g", copies=["L3"]))
        log.record(_decision(function="f", outcome="rejected"))
        assert log.replicated_labels() == {"L1", "L2", "L3"}
        assert log.replicated_labels("f") == {"L1", "L2"}
        assert log.replicated_labels("g") == {"L3"}


class TestRealRuns:
    """Decisions recorded by actually running the replication engine."""

    def _decisions(self, name: str, replication: str = "jumps", **kwargs):
        with observing(spans=False) as obs:
            result = compile_and_measure(name, replication=replication, **kwargs)
        return obs.decisions.decisions, result

    def test_one_event_per_candidate_with_valid_fields(self):
        decisions, result = self._decisions("wc")
        assert decisions, "wc must present at least one candidate jump"
        for d in decisions:
            assert d.outcome in VALID_OUTCOMES
            assert d.reason in VALID_REASONS
            assert d.mode == "jumps"
            assert d.policy == "shortest"
            assert d.function and d.block and d.target

    def test_accepted_decisions_carry_the_replication_bill(self):
        decisions, result = self._decisions("wc")
        accepted = [d for d in decisions if d.outcome == "accepted"]
        stats = result.replication_stats
        assert len(accepted) == stats.jumps_replaced
        assert sum(d.sequence_rtls for d in accepted) == stats.rtls_replicated
        for d in accepted:
            assert d.copies, "an accepted replication creates replica blocks"
            assert d.sequence_blocks >= 1
            assert d.sequence_kind in ("fallthrough", "returns")

    def test_rejection_has_a_reason(self):
        # A tight RTL bound forces rejections with reason max_rtls.
        decisions, _ = self._decisions("wc", max_rtls=0)
        rejected = [d for d in decisions if d.outcome == "rejected"]
        assert rejected, "max_rtls=0 must reject every candidate"
        assert all(d.reason for d in rejected)
        assert any(d.reason == "max_rtls" for d in rejected)

    def test_rollbacks_match_stats(self):
        decisions, result = self._decisions("deroff")
        assert sum(d.rollbacks for d in decisions) == result.replication_stats.rollbacks

    def test_loops_mode_is_tagged(self):
        decisions, _ = self._decisions("wc", replication="loops")
        assert decisions
        assert all(d.mode == "loops" for d in decisions)

    def test_guarded_cascade_reasons_are_documented(self):
        # The cascade is the one shape whose run reaches the convergence
        # guard, so its reason is checked against the documented set.
        func = _main_function(CASCADING_SOURCE)
        with observing(spans=False) as obs:
            stats = CodeReplicator().run(func)
        assert stats.guard_stops >= 1
        decisions = obs.decisions.decisions
        assert any(d.reason == "convergence_guard" for d in decisions)
        for d in decisions:
            assert d.outcome in VALID_OUTCOMES
            assert d.reason in VALID_REASONS

    def test_valve_trip_is_counted_not_logged(self):
        # A lowered block valve trips mid-cascade: the trip shows in the
        # metrics, and the log still holds one row per examined jump.
        func = _main_function(CASCADING_SOURCE)
        with observing(spans=False) as obs, valves(blocks=100):
            stats = CodeReplicator().run(func)
        assert stats.valve_block_trips == 1
        counters = obs.metrics.counters
        assert counters["replication.valve_trips.max_function_blocks"] == 1
        rows = obs.decisions.as_dicts()
        assert {row["outcome"] for row in rows} <= VALID_OUTCOMES
        examined = sum(
            counters.get(f"replication.{outcome}", 0)
            for outcome in ("accepted", "redundant", "rejected", "kept")
        )
        assert decision_digest(rows)["total"] == examined

"""Metrics registry: counters, histograms and their merge law."""

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


class TestInstruments:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 4)
        assert reg.counters["hits"] == 5

    def test_histogram_bucket_placement(self):
        reg = MetricsRegistry()
        # Bounds are inclusive upper bounds; the last slot is overflow.
        for value in (1, 2, 3, 300):
            reg.observe("seq", value, buckets=(1, 2, 4))
        hist = reg.histograms["seq"]
        assert hist["buckets"] == [1, 2, 4]
        assert hist["counts"] == [1, 1, 1, 1]
        assert hist["count"] == 4
        assert hist["sum"] == 306

    def test_histogram_default_buckets(self):
        reg = MetricsRegistry()
        reg.observe("seq", 3)
        assert reg.histograms["seq"]["buckets"] == list(DEFAULT_BUCKETS)

    def test_histogram_bounds_fixed_on_first_use(self):
        reg = MetricsRegistry()
        reg.observe("seq", 1, buckets=(1, 2))
        reg.observe("seq", 1, buckets=(10, 20))  # ignored
        assert reg.histograms["seq"]["buckets"] == [1, 2]

    def test_is_empty(self):
        reg = MetricsRegistry()
        assert reg.is_empty()
        reg.inc("x")
        assert not reg.is_empty()


class TestSnapshotAndMerge:
    def test_snapshot_is_independent_copy(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("h", 1, buckets=(1,))
        snap = reg.snapshot()
        snap["counters"]["a"] = 99
        snap["histograms"]["h"]["counts"][0] = 99
        assert reg.counters["a"] == 1
        assert reg.histograms["h"]["counts"][0] == 1

    def test_merge_adds_counters_and_histograms(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for reg in (a, b):
            reg.inc("n", 2)
            reg.observe("h", 3, buckets=(2, 4))
        a.merge_snapshot(b.snapshot())
        assert a.counters["n"] == 4
        assert a.histograms["h"]["counts"] == [0, 2, 0]
        assert a.histograms["h"]["count"] == 2

    def test_merge_into_empty_registry(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        b.inc("n")
        b.observe("h", 1)
        a.merge_snapshot(b.snapshot())
        assert a.snapshot() == b.snapshot()

    def test_merge_is_associative_for_counters_and_histograms(self):
        snaps = []
        for k in range(3):
            reg = MetricsRegistry()
            reg.inc("n", k + 1)
            reg.observe("h", k + 1, buckets=(1, 2))
            snaps.append(reg.snapshot())

        left = MetricsRegistry()
        for snap in snaps:
            left.merge_snapshot(snap)
        right_tail = MetricsRegistry()
        right_tail.merge_snapshot(snaps[1])
        right_tail.merge_snapshot(snaps[2])
        right = MetricsRegistry()
        right.merge_snapshot(snaps[0])
        right.merge_snapshot(right_tail.snapshot())
        assert left.counters == right.counters
        assert left.histograms == right.histograms

    def test_merge_rejects_mismatched_buckets(self):
        a = MetricsRegistry()
        a.observe("h", 1, buckets=(1, 2))
        b = MetricsRegistry()
        b.observe("h", 1, buckets=(5, 6))
        with pytest.raises(ValueError, match="bucket bounds differ"):
            a.merge_snapshot(b.snapshot())

    def test_merge_none_is_noop(self):
        a = MetricsRegistry()
        a.merge_snapshot(None)
        assert a.is_empty()

    def test_merge_passes_over_an_old_gauges_key(self):
        a = MetricsRegistry()
        a.merge_snapshot({"counters": {"n": 2}, "gauges": {"g": 7}})
        assert a.snapshot() == {"counters": {"n": 2}, "histograms": {}}

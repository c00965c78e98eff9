"""Unit tests for result-cache maintenance: disk_stats and gc."""

import os
import time

from repro.exec import CellResult, CellSpec, ResultCache


def _result(tag: str) -> CellResult:
    from repro.ease.measure import Measurement

    spec = CellSpec(program=f"int main() {{ return {tag}; }}")
    measurement = Measurement()
    measurement.exit_code = 0
    return CellResult(spec=spec, measurement=measurement)


def _fill(cache: ResultCache, count: int, base_age: float = 0.0):
    """``count`` entries whose mtimes step one minute apart (0 = oldest)."""
    now = time.time()
    paths = []
    for i in range(count):
        key = cache.key(CellSpec(program=f"int main() {{ return {i}; }}"))
        cache.put(key, _result(str(i)))
        path = cache._path(key)
        mtime = now - base_age - (count - i) * 60.0
        os.utime(path, (mtime, mtime))
        paths.append((key, path))
    return paths


def test_disk_stats_empty(tmp_path):
    info = ResultCache(tmp_path).disk_stats()
    assert info["entries"] == 0
    assert info["bytes"] == 0
    assert info["oldest_mtime"] is None
    assert info["versions"] == {}


def test_disk_stats_counts_all_versions(tmp_path):
    current = ResultCache(tmp_path)
    old = ResultCache(tmp_path, schema_version=1)
    _fill(current, 2)
    _fill(old, 3)
    info = current.disk_stats()
    assert info["entries"] == 5
    assert info["bytes"] > 0
    assert info["versions"][f"v{current.schema_version}"]["entries"] == 2
    assert info["versions"]["v1"]["entries"] == 3
    assert info["oldest_mtime"] <= info["newest_mtime"]


def test_gc_max_age_evicts_only_old_entries(tmp_path):
    cache = ResultCache(tmp_path)
    paths = _fill(cache, 4)  # ages: 4, 3, 2, 1 minutes
    report = cache.gc(max_age=150.0)  # keep the two newest (< 2.5 min)
    assert report["removed"] == 2
    assert report["remaining_entries"] == 2
    survivors = {p for _, p in paths if p.exists()}
    assert survivors == {paths[2][1], paths[3][1]}


def test_gc_max_bytes_evicts_lru_order(tmp_path):
    cache = ResultCache(tmp_path)
    paths = _fill(cache, 5)
    sizes = [p.stat().st_size for _, p in paths]
    budget = sizes[-1] + sizes[-2]  # room for exactly the two newest
    report = cache.gc(max_bytes=budget)
    assert report["removed"] == 3
    # Oldest-first: the survivors are the most recently used entries.
    assert [p.exists() for _, p in paths] == [False, False, False, True, True]
    assert report["remaining_bytes"] <= budget
    reasons = {item["reason"] for item in report["entries"]}
    assert reasons == {"bytes"}


def test_gc_age_then_bytes_compose(tmp_path):
    cache = ResultCache(tmp_path)
    paths = _fill(cache, 6)
    size = paths[0][1].stat().st_size
    report = cache.gc(max_age=210.0, max_bytes=size)  # age kills 3, budget 2 more
    assert report["removed"] == 5
    assert [p.exists() for _, p in paths] == [False] * 5 + [True]
    by_reason = {}
    for item in report["entries"]:
        by_reason[item["reason"]] = by_reason.get(item["reason"], 0) + 1
    assert by_reason == {"age": 3, "bytes": 2}


def test_gc_dry_run_removes_nothing(tmp_path):
    cache = ResultCache(tmp_path)
    paths = _fill(cache, 3)
    report = cache.gc(max_age=0.0, dry_run=True)
    assert report["dry_run"]
    assert report["removed"] == 3
    assert all(p.exists() for _, p in paths)
    assert cache.evictions == 0


def test_gc_sweeps_older_schema_versions(tmp_path):
    current = ResultCache(tmp_path)
    old = ResultCache(tmp_path, schema_version=1)
    _fill(current, 1)
    old_paths = _fill(old, 2, base_age=7200.0)
    report = current.gc(max_age=3600.0)
    assert report["removed"] == 2
    assert not any(p.exists() for _, p in old_paths)
    assert len(current) == 1


def test_gc_tolerates_corrupted_entries(tmp_path):
    """Garbage bytes in an entry slot are swept like any other entry."""
    cache = ResultCache(tmp_path)
    _fill(cache, 2)
    bad = tmp_path / f"v{cache.schema_version}" / "zz" / ("f" * 64 + ".pkl")
    bad.parent.mkdir(parents=True)
    bad.write_bytes(b"\x00not a pickle")
    old = time.time() - 7200.0
    os.utime(bad, (old, old))
    report = cache.gc(max_age=3600.0)
    assert report["removed"] == 1
    assert not bad.exists()
    assert report["unlink_failures"] == 0


def test_gc_cleans_orphaned_tmp_files(tmp_path):
    """Half-written entries left by dead writers go; ones that could
    still belong to a live writer stay."""
    cache = ResultCache(tmp_path)
    _fill(cache, 1)
    shard = next(iter((tmp_path / f"v{cache.schema_version}").iterdir()))
    stale_tmp = shard / ".deadbeef-x.tmp"
    stale_tmp.write_bytes(b"partial write")
    old = time.time() - 7200.0
    os.utime(stale_tmp, (old, old))
    fresh_tmp = shard / ".cafebabe-y.tmp"
    fresh_tmp.write_bytes(b"in flight")
    report = cache.gc(max_age=86400.0)
    assert report["tmp_removed"] == 1
    assert not stale_tmp.exists()
    assert fresh_tmp.exists()  # could still be live


def test_gc_without_policies_is_a_census(tmp_path):
    cache = ResultCache(tmp_path)
    paths = _fill(cache, 3)
    report = cache.gc()
    assert report["removed"] == 0
    assert report["examined"] == 3
    assert all(p.exists() for _, p in paths)


def test_gc_missing_root(tmp_path):
    report = ResultCache(tmp_path / "never-created").gc(max_age=1.0)
    assert report["examined"] == 0
    assert report["removed"] == 0

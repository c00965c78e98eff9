"""Unit + regression tests for cross-process single-flight deduplication.

The lock primitives are tested directly; the protocol is tested through
:class:`ParallelRunner`, the one execution path that uses it.
"""

import os
import subprocess
import sys
import threading
import time

from repro.exec import CellResult, CellSpec, ParallelRunner, ResultCache, SingleFlight

SPEC = CellSpec(program="int main() { return 7; }", target="sparc")


def small_result(spec=SPEC) -> CellResult:
    from repro.ease.measure import Measurement

    measurement = Measurement()
    measurement.exit_code = 7
    return CellResult(spec=spec, measurement=measurement)


# --- lock primitives -----------------------------------------------------------


def test_acquire_is_exclusive(tmp_path):
    cache = ResultCache(tmp_path)
    flight = SingleFlight(cache)
    key = cache.key(SPEC)
    assert flight.try_acquire(key)
    assert not flight.try_acquire(key)
    assert flight.holder_active(key)
    flight.release(key)
    assert not flight.holder_active(key)
    assert flight.try_acquire(key)
    flight.release(key)


def test_release_is_idempotent(tmp_path):
    cache = ResultCache(tmp_path)
    flight = SingleFlight(cache)
    key = cache.key(SPEC)
    flight.release(key)  # never acquired: no error
    assert flight.try_acquire(key)
    flight.release(key)
    flight.release(key)


def test_stale_lock_is_broken_and_reclaimed(tmp_path):
    cache = ResultCache(tmp_path)
    flight = SingleFlight(cache, stale_after=10.0)
    key = cache.key(SPEC)
    assert flight.try_acquire(key)
    # Back-date the lock beyond the staleness timeout (a crashed owner).
    lock = flight._lock_path(key)
    old = time.time() - 60.0
    os.utime(lock, (old, old))
    assert flight.try_acquire(key)  # broke the stale lock, owns a fresh one
    flight.release(key)


def test_wait_for_returns_published_entry(tmp_path):
    cache = ResultCache(tmp_path)
    flight = SingleFlight(cache, poll=0.01)
    key = cache.key(SPEC)
    assert flight.try_acquire(key)

    def publish():
        time.sleep(0.15)
        cache.put(key, small_result())
        flight.release(key)

    thread = threading.Thread(target=publish)
    thread.start()
    try:
        waited = flight.wait_for(key, timeout=10.0)
    finally:
        thread.join()
    assert waited is not None
    assert waited.measurement.exit_code == 7


def test_wait_for_gives_up_when_owner_vanishes_without_entry(tmp_path):
    cache = ResultCache(tmp_path)
    flight = SingleFlight(cache, poll=0.01)
    key = cache.key(SPEC)
    assert flight.try_acquire(key)

    def abandon():
        time.sleep(0.1)
        flight.release(key)  # owner dies without publishing

    thread = threading.Thread(target=abandon)
    thread.start()
    try:
        assert flight.wait_for(key, timeout=10.0) is None
    finally:
        thread.join()


def test_wait_for_counts_a_single_miss(tmp_path):
    """Polling probes the entry file; it must not inflate miss stats."""
    cache = ResultCache(tmp_path)
    flight = SingleFlight(cache, poll=0.01)
    key = cache.key(SPEC)
    assert flight.try_acquire(key)
    try:
        assert flight.wait_for(key, timeout=0.3) is None  # ~30 polls
    finally:
        flight.release(key)
    assert cache.misses == 1


def test_wait_for_times_out(tmp_path):
    cache = ResultCache(tmp_path)
    flight = SingleFlight(cache, poll=0.01)
    key = cache.key(SPEC)
    assert flight.try_acquire(key)
    try:
        assert flight.wait_for(key, timeout=0.05) is None
    finally:
        flight.release(key)


# --- the runner's single-flight path ------------------------------------------


def test_single_flight_computes_and_publishes(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    calls = []

    def compute(spec):
        calls.append(spec)
        return small_result(spec)

    monkeypatch.setattr("repro.exec.runner.execute_cell", compute)
    (result,) = ParallelRunner(workers=1, cache=cache).run([SPEC])
    assert result.ok and not result.cache_hit and len(calls) == 1
    assert cache.get_spec(SPEC) is not None and cache.writes == 1
    assert not SingleFlight(cache).holder_active(cache.key(SPEC))


def test_single_flight_never_publishes_failures(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)

    def fail(spec):
        return CellResult(spec=spec, error="boom")

    monkeypatch.setattr("repro.exec.runner.execute_cell", fail)
    (result,) = ParallelRunner(workers=1, cache=cache).run([SPEC])
    assert not result.ok and not result.cache_hit
    assert cache.get_spec(SPEC) is None
    # And the lock is released so the next caller isn't parked.
    assert not SingleFlight(cache).holder_active(cache.key(SPEC))


def test_single_flight_adopts_already_published_entry(tmp_path, monkeypatch):
    """A published entry is adopted as a hit, never recomputed."""
    cache = ResultCache(tmp_path)
    cache.put_spec(SPEC, small_result())

    def recompute(spec):
        raise AssertionError("recomputed")

    monkeypatch.setattr("repro.exec.runner.execute_cell", recompute)
    warm_cache = ResultCache(tmp_path)
    (result,) = ParallelRunner(workers=1, cache=warm_cache).run([SPEC])
    assert result.cache_hit
    assert result.measurement.exit_code == 7
    assert warm_cache.writes == 0
    assert not SingleFlight(cache).holder_active(cache.key(SPEC))


def test_runner_waiter_adopts_owners_envelope(tmp_path, monkeypatch):
    """A cell another process is computing is adopted, never recomputed."""
    cache = ResultCache(tmp_path)
    flight = SingleFlight(cache, poll=0.01)
    key = cache.key(SPEC)
    assert flight.try_acquire(key)  # simulate a concurrent owner

    def owner():
        time.sleep(0.15)
        cache.put(key, small_result())
        flight.release(key)

    def recompute(spec):
        raise AssertionError("recomputed")

    monkeypatch.setattr("repro.exec.runner.execute_cell", recompute)
    thread = threading.Thread(target=owner)
    thread.start()
    try:
        (result,) = ParallelRunner(workers=1, cache=cache).run([SPEC])
    finally:
        thread.join()
    assert result.cache_hit
    assert result.measurement.exit_code == 7


# --- the regression: two deliberately racing processes -------------------------

_RACER = """
import sys, time
import repro.exec.runner as runner
from repro.exec import CellSpec, ParallelRunner, ResultCache

cache_dir, marker_dir, tag = sys.argv[1], sys.argv[2], sys.argv[3]
execute_cell = runner.execute_cell

def slow_execute(spec):
    # Record that THIS process did the work, slowly enough that the
    # other process is guaranteed to arrive while the lock is held.
    with open(f"{marker_dir}/{spec.program[-4]}-{tag}", "w") as fh:
        fh.write(tag)
    time.sleep(0.5)
    return execute_cell(spec)

runner.execute_cell = slow_execute
specs = [
    CellSpec(program=f"int main() {{ return {code}; }}", target="sparc")
    for code in (7, 8)
]
cache = ResultCache(cache_dir)
results = ParallelRunner(workers=1, cache=cache).run(specs)
assert all(result.ok for result in results), [r.error for r in results]
print(f"{tag} writes={cache.writes} hits={sum(r.cache_hit for r in results)}")
"""


def test_two_racing_processes_compute_once(tmp_path):
    """Two runners race on the same cold cache; each cell is computed once."""
    cache_dir = tmp_path / "cache"
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(cache_dir), str(marker_dir), tag],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for tag in ("a", "b")
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
    markers = sorted(p.name for p in marker_dir.iterdir())
    assert sorted(m.split("-")[0] for m in markers) == ["7", "8"], (
        f"a cell was computed twice: {markers}\n"
        + "\n".join(out for out, _ in outputs)
    )
    # The work of one: total writes equal the cell count, and every cell
    # the other process did not compute it adopted as a hit.
    counts = [
        dict(field.split("=") for field in out.split()[1:]) for out, _ in outputs
    ]
    assert sum(int(c["writes"]) for c in counts) == 2
    assert sum(int(c["hits"]) for c in counts) == 2
    assert ResultCache(cache_dir).get_spec(SPEC) is not None


def test_lock_files_live_beside_entries(tmp_path):
    """Locks land in the entry's shard dir, never mistaken for entries."""
    cache = ResultCache(tmp_path)
    flight = SingleFlight(cache)
    key = cache.key(SPEC)
    assert flight.try_acquire(key)
    lock = flight._lock_path(key)
    assert lock.parent == cache._path(key).parent
    assert lock.suffix == ".lock"
    assert len(cache) == 0  # a lock is not an entry
    assert cache.disk_stats()["entries"] == 0
    flight.release(key)

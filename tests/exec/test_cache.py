"""Unit tests for the content-addressed result cache (disk and memory)."""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from dataclasses import fields, replace

import pytest

from repro.ease.measure import Measurement
from repro.exec import CellResult, CellSpec, ParallelRunner, ResultCache, execute_cell
from repro.obs import observing

SPEC = CellSpec(program="int main() { return 7; }", target="sparc")
STORES = ("disk", "memory")


def make_cache(store: str, root) -> ResultCache:
    """The same cache on disk under ``root``, or in memory."""
    return ResultCache(root if store == "disk" else None)


@pytest.fixture(params=STORES)
def store(request, tmp_path) -> ResultCache:
    return make_cache(request.param, tmp_path)


def small_result(spec=SPEC) -> CellResult:
    measurement = Measurement()
    measurement.static_insns = 3
    measurement.exit_code = 7
    return CellResult(spec=spec, measurement=measurement)


# --- keying --------------------------------------------------------------------


def test_key_is_stable_within_process(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.key(SPEC) == cache.key(SPEC)
    assert cache.key(SPEC) == cache.key(replace(SPEC))


def test_key_is_stable_across_processes(tmp_path):
    """SHA-256 of canonical content — no per-process hash randomization."""
    script = (
        "from repro.exec import CellSpec, ResultCache;"
        "print(ResultCache('x').key("
        "CellSpec(program='int main() { return 7; }', target='sparc')))"
    )
    keys = {
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        for _ in range(2)
    }
    assert len(keys) == 1
    assert keys.pop() == ResultCache(tmp_path).key(SPEC)


def test_key_ignores_cache_root(tmp_path):
    assert ResultCache(tmp_path / "a").key(SPEC) == ResultCache(tmp_path / "b").key(
        SPEC
    )


#: Result-affecting CellSpec fields, each with a value that must change
#: the key.
KEYED_VARIANTS = [
    {"program": "int main() { return 8; }"},
    {"target": "m68020"},
    {"replication": "jumps"},
    {"policy": "returns"},
    {"max_rtls": 12},
    {"trace": True},
    {"optimize": False},
    {"stdin": b"abc"},
    {"ease_engine": "interp"},
    # A zero bound is a bound, not "unbounded" (None).
    {"max_rtls": 0},
    {"policy": "loops"},
    {"replication": "jumps", "profile_threshold": 0.0},
]

#: CellSpec fields that do not change the result, so must not change the
#: key: verified runs bypass the cache altogether.
UNKEYED_VARIANTS = {"verify": "full"}


@pytest.mark.parametrize(
    "store_kind, variant",
    [(kind, variant) for kind in STORES for variant in KEYED_VARIANTS],
    # The disk cases keep their historical ids (variant0, ...).
    ids=[
        f"{'' if kind == 'disk' else kind + '-'}variant{index}"
        for kind in STORES
        for index in range(len(KEYED_VARIANTS))
    ],
)
def test_key_changes_when_config_changes(tmp_path, store_kind, variant):
    # Every CellSpec field is classified: a new field must be added to
    # one of the two tables before any variant passes.
    keyed = {name for v in KEYED_VARIANTS for name in v}
    assert keyed.isdisjoint(UNKEYED_VARIANTS)
    assert keyed | set(UNKEYED_VARIANTS) == {f.name for f in fields(CellSpec)}
    cache = make_cache(store_kind, tmp_path)
    assert cache.key(replace(SPEC, **variant)) != cache.key(SPEC)
    # A distinct key is a distinct entry in either store.
    cache.put_spec(SPEC, small_result())
    assert cache.get_spec(replace(SPEC, **variant)) is None


@pytest.mark.parametrize(
    "variant",
    [
        {"target": "SPARC"},
        {"target": "68020"},
        {"target": "M68020"},
        {"target": "vax"},
        {"max_rtls": -3},
    ],
)
def test_spec_rejects_unkeyable_spellings(variant):
    """One spelling per target and no negative bound, so two specs that
    mean the same cell never get two keys."""
    with pytest.raises(ValueError):
        replace(SPEC, **variant)


def test_key_hashes_profile_threshold(tmp_path):
    """Profile-guided JUMPS is its own cell at every threshold, and a
    threshold has one key however it is spelled."""
    cache = ResultCache(tmp_path)
    jumps = replace(SPEC, replication="jumps")
    keys = {cache.key(replace(jumps, profile_threshold=t)) for t in (None, 0.0, 0, 0.5)}
    assert len(keys) == 3


@pytest.mark.parametrize(
    "variant",
    [
        {"replication": "bogus"},
        {"replication": "JUMPS"},
        {"replication": "jumps", "profile_threshold": -0.1},
        {"replication": "loops", "profile_threshold": 0.1},
        {"replication": "jumps", "profile_threshold": 0.1, "optimize": False},
        {"replication": "jumps", "profile_threshold": 0.1, "verify": "full"},
    ],
)
def test_spec_rejects_a_cell_no_worker_could_run(variant):
    """An unknown replication, or a profile threshold off an optimized,
    unverified JUMPS cell, fails at construction, before any compile."""
    with pytest.raises(ValueError):
        replace(SPEC, **variant)


@pytest.mark.parametrize(
    "variant, label",
    [
        ({}, "wc/sparc/jumps"),
        ({"trace": True}, "wc/sparc/jumps+trace"),
        ({"policy": "returns"}, "wc/sparc/jumps+returns"),
        ({"max_rtls": 4}, "wc/sparc/jumps+max_rtls=4"),
        ({"max_rtls": 0}, "wc/sparc/jumps+max_rtls=0"),
        ({"profile_threshold": 0.02}, "wc/sparc/jumps+profile=0.02"),
        ({"profile_threshold": 0.0}, "wc/sparc/jumps+profile=0"),
    ],
)
def test_label_names_every_non_default_knob(variant, label):
    """Cells of one program that differ only in policy, bound or profile
    threshold get distinct labels, so a failure list names each."""
    assert CellSpec(program="wc", replication="jumps", **variant).label == label


def test_key_hashes_resolved_ease_engine(tmp_path):
    """A spec left at the default and one pinned to the compiled engine
    are the same cell."""
    cache = ResultCache(tmp_path)
    assert cache.key(SPEC) == cache.key(replace(SPEC, ease_engine="compiled"))


def test_key_resolves_benchmark_source():
    """Named benchmarks hash by content, not by name alone."""
    from repro.benchsuite import PROGRAMS

    by_name = ResultCache("x").key(CellSpec(program="wc"))
    by_source = ResultCache("x").key(
        CellSpec(program=PROGRAMS["wc"].source, stdin=PROGRAMS["wc"].stdin)
    )
    assert by_name == by_source


def test_unkeyed_fields_do_not_change_key(tmp_path):
    """Fields that leave the result alone share the plain spec's key."""
    cache = ResultCache(tmp_path)
    for name, value in UNKEYED_VARIANTS.items():
        assert cache.key(replace(SPEC, **{name: value})) == cache.key(SPEC), name


def test_schema_version_changes_key_and_namespace(tmp_path):
    v1 = ResultCache(tmp_path, schema_version=1)
    v2 = ResultCache(tmp_path, schema_version=2)
    assert v1.key(SPEC) != v2.key(SPEC)
    v1.put_spec(SPEC, small_result())
    assert v2.get_spec(SPEC) is None  # schema bump invalidates everything
    assert len(v1) == 1 and len(v2) == 0


# --- round trips ----------------------------------------------------------------


def test_round_trip(store):
    cache = store
    assert cache.get_spec(SPEC) is None
    cache.put_spec(SPEC, small_result())
    loaded = cache.get_spec(SPEC)
    assert loaded is not None
    assert loaded.measurement.exit_code == 7
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1
    assert cache.stats()["writes"] == 1


def test_entry_pickled_before_the_measurement_move_is_a_hit(tmp_path):
    """Entries written while ``Measurement`` lived in ``repro.ease.measure``
    name that module; they still load, as hits, not evictions."""
    from repro.ease.measurement import Measurement as LeafMeasurement

    cache = ResultCache(tmp_path)
    key = cache.key(SPEC)
    data = pickle.dumps(small_result(), protocol=2)
    moved = b"crepro.ease.measurement\nMeasurement\n"
    assert data.count(moved) == 1
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(data.replace(moved, b"crepro.ease.measure\nMeasurement\n"))
    result = cache.get(key)
    assert type(result.measurement) is LeafMeasurement
    assert (result.measurement.static_insns, result.measurement.exit_code) == (3, 7)
    assert (cache.hits, cache.misses, cache.evictions) == (1, 0, 0)


def test_executed_cell_round_trips_with_instrumentation(tmp_path):
    """A cell executed under a tracing observer round-trips through the
    disk with its measurement and stats; its ``opt.<pass>`` spans went to
    the observer, not into the stored envelope."""
    cache = ResultCache(tmp_path)
    spec = CellSpec(program="wc", replication="jumps")
    with observing() as obs:
        result = execute_cell(spec)
    assert result.ok
    assert any(s.name == "opt.dead_code" for s in obs.tracer.spans)
    cache.put_spec(spec, result)
    loaded = ResultCache(tmp_path).get_spec(spec)  # fresh instance, same disk
    assert loaded.measurement.dynamic_insns == result.measurement.dynamic_insns
    assert loaded.replication_stats == result.replication_stats
    assert vars(loaded.measurement) == vars(result.measurement)


def test_runner_entry_holds_no_observations(tmp_path):
    """An entry the runner writes under a tracing, decision-logging
    observer unpickles to a result alone: no spans, counters or decisions
    (those went to the observer)."""
    cache = ResultCache(tmp_path)
    spec = CellSpec(program="wc", replication="jumps")
    with observing() as obs:
        (result,) = ParallelRunner(workers=1, cache=cache).run([spec])
    assert result.ok and obs.tracer.spans and len(obs.decisions)
    (path,) = (tmp_path / f"v{cache.schema_version}").glob("*/*.pkl")
    data = path.read_bytes()
    entry = pickle.loads(data)
    assert isinstance(entry, CellResult) and not hasattr(entry, "obs")
    for name in (b"exec.cell", b"opt.dead_code", b"ease.runs", b"sequence_kind"):
        assert name not in data, name


def test_cached_envelope_carries_ease_engine(tmp_path):
    """An interpreter run is its own cell: its envelope (spec included)
    round-trips, and it does not answer for the compiled default."""
    cache = ResultCache(tmp_path)
    spec = CellSpec(program="wc", ease_engine="interp")
    result = execute_cell(spec)
    assert result.ok
    cache.put_spec(spec, result)
    loaded = ResultCache(tmp_path).get_spec(spec)
    assert loaded.spec.ease_engine == "interp"
    assert loaded.measurement.dynamic_insns == result.measurement.dynamic_insns
    assert cache.get_spec(CellSpec(program="wc")) is None


def test_clear(store):
    cache = store
    cache.put_spec(SPEC, small_result())
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0
    assert cache.get_spec(SPEC) is None


# --- the in-memory store -----------------------------------------------------------


def test_memory_hit_is_a_copy():
    """A hit is flagged on a copy: the first caller's envelope, which is
    the stored one, never turns into a cache hit behind its back."""
    cache = ResultCache(None)
    (first,) = ParallelRunner(workers=1, cache=cache).run([SPEC])
    (again,) = ParallelRunner(workers=1, cache=cache).run([SPEC])
    assert again.cache_hit and not first.cache_hit
    assert again is not first and again.measurement is first.measurement
    assert not cache.get_spec(SPEC).cache_hit


def test_memory_store_touches_no_disk(tmp_path, monkeypatch):
    """No entry or tmp file: not even the default cache directory is
    created."""
    monkeypatch.chdir(tmp_path)
    cache = ResultCache(None)
    for _ in range(2):
        ParallelRunner(workers=1, cache=cache).run([SPEC])
    assert cache.stats()["writes"] == 1 and cache.stats()["hits"] == 1
    assert list(tmp_path.iterdir()) == []


# --- corruption recovery ----------------------------------------------------------


@pytest.mark.parametrize(
    "garbage",
    [b"", b"not a pickle", pickle.dumps({"wrong": "type"})],
    ids=["truncated", "garbage", "foreign-object"],
)
def test_corrupted_entry_is_evicted_and_recomputed(tmp_path, garbage):
    cache = ResultCache(tmp_path)
    cache.put_spec(SPEC, small_result())
    path = cache._path(cache.key(SPEC))
    path.write_bytes(garbage)
    assert cache.get_spec(SPEC) is None  # corrupted = miss
    assert cache.evictions == 1
    assert not path.exists()  # evicted from disk
    cache.put_spec(SPEC, small_result())  # caller heals the cache
    assert cache.get_spec(SPEC) is not None


# --- concurrent writers -----------------------------------------------------------


def _hammer(args):
    root, index = args
    cache = ResultCache(root)
    spec = CellSpec(program=f"int main() {{ return {index % 3}; }}")
    for _ in range(20):
        cache.put_spec(spec, small_result(spec))
        loaded = cache.get_spec(spec)
        # Entries are published atomically: a reader either misses (its
        # writer not yet done) or sees a complete, consistent envelope.
        assert loaded is None or loaded.spec == spec
    return cache.evictions


def test_concurrent_writers_never_corrupt(tmp_path):
    with multiprocessing.Pool(4) as pool:
        evictions = pool.map(_hammer, [(str(tmp_path), i) for i in range(8)])
    assert sum(evictions) == 0  # nobody ever observed a torn entry
    cache = ResultCache(tmp_path)
    assert len(cache) == 3
    for index in range(3):
        spec = CellSpec(program=f"int main() {{ return {index}; }}")
        assert cache.get_spec(spec) is not None
    # No temporary files leaked by the atomic-rename protocol.
    assert not list(tmp_path.rglob("*.tmp"))


_RACER = """
import json, sys, time
import repro.exec.runner as runner
from repro.exec import CellSpec, ParallelRunner, ResultCache

execute_cell = runner.execute_cell

def slow_execute(spec):
    # Slow enough that both processes miss the cold key and compute it.
    time.sleep(0.5)
    return execute_cell(spec)

runner.execute_cell = slow_execute
spec = CellSpec(program="int main() { return 7; }", target="sparc")
(result,) = ParallelRunner(workers=1, cache=ResultCache(sys.argv[1])).run([spec])
assert result.ok, result.error
m = result.measurement
print(json.dumps([m.static_insns, m.dynamic_insns, m.dynamic_jumps, m.exit_code]))
"""


def test_two_racing_processes_agree(tmp_path):
    """Two runners race on one cold key: both succeed with the same
    measurement, and the cache ends with one whole entry."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(tmp_path)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
    first, second = (json.loads(out) for out, _ in outputs)
    assert first == second
    cache = ResultCache(tmp_path)
    assert len(cache) == 1
    stored = cache.get_spec(SPEC).measurement
    assert [
        stored.static_insns, stored.dynamic_insns, stored.dynamic_jumps,
        stored.exit_code,
    ] == first
    assert not list(tmp_path.rglob("*.tmp"))


def test_lock_file_beside_a_cold_key_is_ignored(tmp_path, monkeypatch):
    """A ``.lock`` left beside an entry by an older version (or a killed
    run) never parks the runner: the cold cell is computed at once."""
    cache = ResultCache(tmp_path)
    lock = cache._path(cache.key(SPEC)).with_suffix(".lock")
    lock.parent.mkdir(parents=True)
    lock.write_text(f"{os.getpid()} {time.time():.3f}\n")

    def no_waiting(seconds):
        raise AssertionError("waited on a lock file")

    monkeypatch.setattr(time, "sleep", no_waiting)
    (result,) = ParallelRunner(workers=1, cache=cache).run([SPEC])
    assert result.ok and not result.cache_hit
    assert result.measurement.exit_code == 7
    assert cache.writes == 1 and cache.get_spec(SPEC) is not None

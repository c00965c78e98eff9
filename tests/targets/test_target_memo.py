"""Worker cold-start fix: machine descriptions are built once per process."""

import pytest

from repro.obs import Observer, deactivate, install
from repro.targets import clear_target_cache, get_target
from repro.targets.machine import Machine


@pytest.fixture
def fresh_observer():
    observer = install(Observer(spans=False))
    clear_target_cache()
    yield observer
    deactivate()
    clear_target_cache()


def test_get_target_memoizes_instances(fresh_observer):
    first = get_target("sparc")
    assert get_target("sparc") is first
    assert isinstance(first, Machine)
    assert get_target("m68020") is get_target("m68020")
    assert get_target("m68020") is not first


def test_reuse_is_visible_in_obs_counters(fresh_observer):
    get_target("sparc")
    get_target("sparc")
    get_target("sparc")
    get_target("m68020")
    counters = fresh_observer.metrics.snapshot()["counters"]
    assert counters["targets.machine.constructed"] == 2
    assert counters["targets.machine.reused"] == 2


def test_clear_target_cache_forces_reconstruction(fresh_observer):
    first = get_target("sparc")
    clear_target_cache()
    second = get_target("sparc")
    assert second is not first
    counters = fresh_observer.metrics.snapshot()["counters"]
    assert counters["targets.machine.constructed"] == 2
    assert counters.get("targets.machine.reused", 0) == 0


def test_warm_worker_initializer_prewarms_targets(fresh_observer):
    """After warm_worker, every get_target in the worker is a reuse hit."""
    from repro.exec import warm_worker

    warm_worker(("sparc", "m68020"))
    counters = fresh_observer.metrics.snapshot()["counters"]
    assert counters["targets.machine.constructed"] == 2
    # A cell executing afterwards (the warm re-use pool workers rely on)
    # only ever sees memoized machines.
    get_target("sparc")
    get_target("m68020")
    counters = fresh_observer.metrics.snapshot()["counters"]
    assert counters["targets.machine.constructed"] == 2
    assert counters["targets.machine.reused"] == 2


def test_unknown_target_still_raises(fresh_observer):
    with pytest.raises(ValueError):
        get_target("vax")

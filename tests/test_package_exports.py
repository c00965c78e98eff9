"""The package inits export their public names lazily (PEP 562)."""

import importlib

import pytest

PACKAGES = ("repro", "repro.core", "repro.ease", "repro.targets", "repro.benchsuite")


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        assert getattr(package, export) is not None, f"{name}.{export}"
        assert export in dir(package)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        package.nope


def test_old_import_paths_still_resolve():
    """The leaf modules' names stay importable from their former homes."""
    from repro.core import POLICIES, Policy
    from repro.core.replication import POLICIES as replication_policies
    from repro.ease.measure import Measurement
    from repro.ease.measurement import Measurement as leaf_measurement
    from repro.targets.machine import TARGETS
    from repro.targets.names import TARGETS as leaf_targets

    assert replication_policies is POLICIES and POLICIES["shortest"] is Policy.SHORTEST
    assert Measurement is leaf_measurement
    assert TARGETS is leaf_targets == ("sparc", "m68020")

import pytest

from tests.golden.regen_table_snapshots import load_goldens


@pytest.fixture(scope="session")
def golden():
    """Every table golden, by section (see ``regen_table_snapshots.py``)."""
    return load_goldens()

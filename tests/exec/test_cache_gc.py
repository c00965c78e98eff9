"""Unit tests for the result cache's on-disk census, ``disk_stats``."""

from repro.exec import CellResult, CellSpec, ResultCache


def _result(tag: str) -> CellResult:
    from repro.ease.measure import Measurement

    spec = CellSpec(program=f"int main() {{ return {tag}; }}")
    measurement = Measurement()
    measurement.exit_code = 0
    return CellResult(spec=spec, measurement=measurement)


def _fill(cache: ResultCache, count: int) -> None:
    for i in range(count):
        spec = CellSpec(program=f"int main() {{ return {i}; }}")
        cache.put_spec(spec, _result(str(i)))


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

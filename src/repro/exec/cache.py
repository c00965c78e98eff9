"""Content-addressed cache for measured matrix cells.

A ``ResultCache`` is a directory: every cached cell, from ``repro
bench``, :func:`repro.report.collect` or :func:`repro.benchsuite.run_matrix`,
is one pickled file under its root.

Layout (under the cache root, default ``.repro-cache/``)::

    .repro-cache/
        v1/                   # CACHE_SCHEMA_VERSION namespace
            3f/               # first two hex digits of the key
                3fa4...e2.pkl # pickled CellResult (results only:
                              # no spans, counters or decisions)

A key is the SHA-256 over a canonical rendering of everything that
determines a cell's outcome: the *resolved* program source and stdin
bytes (so a benchmark rename or source edit changes the key), the target
name, the full optimization configuration, the trace flag, and the cache
schema version.  Editing any of those makes old entries unreachable —
there is no invalidation protocol to get wrong.

Robustness properties, each covered by unit tests:

* **corrupted entries** (truncated/garbage pickle) are evicted on read
  and treated as a miss;
* **concurrent writers** are safe: entries are written to a unique
  temporary file and published with an atomic ``os.replace``, so readers
  only ever see complete entries.  This is the cache's one concurrency
  rule: processes that miss the same key both compute it, and the last
  writer wins;
* a failed write (full disk, read-only directory) is counted in
  ``write_errors``, never raised: the caller keeps its result;
* hit/miss/eviction/write counters are kept per instance for reporting.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Iterator, Optional

from .envelope import CACHE_SCHEMA_VERSION, CellResult, CellSpec

__all__ = ["ResultCache", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = ".repro-cache"


class ResultCache:
    """On-disk cache of :class:`CellResult` envelopes under ``root``."""

    def __init__(
        self,
        root: os.PathLike = DEFAULT_CACHE_DIR,
        schema_version: int = CACHE_SCHEMA_VERSION,
    ) -> None:
        self.root = Path(root)
        self.schema_version = schema_version
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0
        self.write_errors = 0

    # --- keying ---------------------------------------------------------------

    def key(self, spec: CellSpec) -> str:
        """Content hash of everything that determines the cell's result."""
        source, stdin = spec.resolve()
        threshold = spec.profile_threshold
        hasher = hashlib.sha256()
        for part in (
            f"schema={self.schema_version}",
            f"target={spec.target}",
            f"replication={spec.replication if spec.optimize else '<reference>'}",
            f"policy={spec.policy}",
            f"max_rtls={spec.max_rtls}",
            # One spelling per threshold: 0 and 0.0 are one cell.
            f"profile_threshold={None if threshold is None else float(threshold)}",
            f"trace={spec.trace}",
            f"optimize={spec.optimize}",
            # ``None`` is the compiled default: one entry for both.
            f"ease_engine={spec.ease_engine or 'compiled'}",
            f"source={source}",
        ):
            hasher.update(part.encode("utf-8"))
            hasher.update(b"\x00")
        hasher.update(stdin)
        return hasher.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"v{self.schema_version}" / key[:2] / f"{key}.pkl"

    # --- read/write -----------------------------------------------------------

    def _count(self, counter: str) -> None:
        setattr(self, counter, getattr(self, counter) + 1)
        from ..obs import active as _active_observer

        _active_observer().metrics.inc(f"exec.cache.{counter}")

    def get(self, key: str) -> Optional[CellResult]:
        """The cached envelope for ``key``, or ``None`` (counted as a miss).

        A corrupted entry is deleted (counted as an eviction) and reported
        as a miss, so the caller recomputes and heals the cache; an entry
        that cannot be read at all (say, the root is a regular file) is
        a plain miss.
        """
        result = self._load(self._path(key))
        self._count("misses" if result is None else "hits")
        return result

    def _load(self, path: Path) -> Optional[CellResult]:
        try:
            data = path.read_bytes()
        except OSError:
            # Absent, or the cache directory is unusable: a plain miss.
            return None
        try:
            result = pickle.loads(data)
            if not isinstance(result, CellResult):
                raise pickle.UnpicklingError(f"expected CellResult, got {type(result)}")
        except Exception:
            # Truncated write, foreign object, unpicklable garbage: evict.
            self._count("evictions")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return result

    def put(self, key: str, result: CellResult) -> None:
        """Store ``result`` under ``key`` (atomic, last writer wins).

        An ``OSError`` while writing is counted in ``write_errors``, not
        raised: losing a cache entry must not lose the computed cell.
        """
        try:
            self._write(self._path(key), result)
        except OSError:
            self._count("write_errors")
            return
        self._count("writes")

    @staticmethod
    def _write(path: Path, result: CellResult) -> None:
        import tempfile  # not on the read path: a warm run never writes

        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.stem[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def get_spec(self, spec: CellSpec) -> Optional[CellResult]:
        return self.get(self.key(spec))

    def put_spec(self, spec: CellSpec, result: CellResult) -> None:
        self.put(self.key(spec), result)

    # --- maintenance ----------------------------------------------------------

    def _entries(self) -> Iterator[Path]:
        """This schema version's entry files, in directory order."""
        version_dir = self.root / f"v{self.schema_version}"
        if version_dir.is_dir():
            yield from version_dir.glob("*/*.pkl")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def stats(self) -> dict:
        return {
            "root": str(self.root),
            "schema_version": self.schema_version,
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writes": self.writes,
            "write_errors": self.write_errors,
        }

    # --- census ---------------------------------------------------------------

    def _files(self, pattern: str) -> Iterator[Path]:
        """Files matching ``pattern`` in every shard of *all* schema
        versions."""
        if not self.root.is_dir():
            return
        for version_dir in sorted(self.root.glob("v*")):
            if version_dir.is_dir():
                yield from sorted(version_dir.glob(f"*/{pattern}"))

    def disk_stats(self) -> dict:
        """On-disk census: entries, bytes and age range, per schema version.

        Unstatable files (racing deletes, permissions) are skipped, never
        fatal — the cache directory is shared with concurrent writers.
        """
        per_version: dict = {}
        total_bytes = 0
        total_entries = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for path in self._files("*.pkl"):
            try:
                info = path.stat()
            except OSError:
                continue
            version = path.parent.parent.name
            bucket = per_version.setdefault(version, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += info.st_size
            total_entries += 1
            total_bytes += info.st_size
            oldest = info.st_mtime if oldest is None else min(oldest, info.st_mtime)
            newest = info.st_mtime if newest is None else max(newest, info.st_mtime)
        return {
            "root": str(self.root),
            "schema_version": self.schema_version,
            "entries": total_entries,
            "bytes": total_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
            "versions": per_version,
        }

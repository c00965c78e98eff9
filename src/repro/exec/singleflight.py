"""Cross-process single-flight for the on-disk result cache.

Two ``repro bench`` processes racing on the same cold cache key used to
*both* compute the cell — correct (last atomic write wins) but wasteful:
the matrix cells are seconds each, and concurrent CI shards or two CLI
invocations on one cache duplicate the whole cold set.  This module
adds the classic lock-file sentinel protocol around a cell computation:

* the first process to create ``<entry>.lock`` (``O_CREAT | O_EXCL``,
  atomic on every POSIX filesystem) owns the computation; it computes,
  publishes the envelope through the cache's atomic write, and removes
  the lock;
* every other process *waits*, polling for the published entry, instead
  of recomputing;
* a lock whose mtime exceeds the **staleness timeout** is presumed
  abandoned (owner crashed or was SIGKILLed between create and unlink)
  and is broken: the waiter deletes it and computes itself.  The
  envelope write stays atomic, so the worst case of a mis-judged "stale"
  lock is the duplicated work we had before, never a torn entry.
  ``ResultCache.gc`` sweeps locks past the same timeout.

The protocol is advisory and crash-tolerant by construction — nothing
ever blocks on a kernel lock, and correctness never depends on the lock
(only deduplication does).

Metrics: ``exec.singleflight.{acquired,waited,stale_broken,recomputed}``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional

from .cache import LOCK_STALE_AFTER, ResultCache
from .envelope import CellResult

__all__ = ["SingleFlight"]

#: How long a waiter polls before giving up and computing anyway.
DEFAULT_WAIT_TIMEOUT = 900.0
#: Poll interval while waiting on another process's computation.
DEFAULT_POLL = 0.05


def _observer():
    from ..obs import active

    return active()


class SingleFlight:
    """Lock-file dedup of cell computations against one :class:`ResultCache`."""

    def __init__(
        self,
        cache: ResultCache,
        stale_after: float = LOCK_STALE_AFTER,
        wait_timeout: float = DEFAULT_WAIT_TIMEOUT,
        poll: float = DEFAULT_POLL,
    ) -> None:
        self.cache = cache
        self.stale_after = stale_after
        self.wait_timeout = wait_timeout
        self.poll = poll

    # --- lock primitives ------------------------------------------------------

    def _lock_path(self, key: str) -> Path:
        return self.cache._path(key).with_suffix(".lock")

    def try_acquire(self, key: str) -> bool:
        """Claim the computation for ``key``; ``False`` if someone owns it.

        A stale lock (mtime older than ``stale_after``) is broken first;
        breaking and re-creating is not atomic, so after a break the
        claim is retried once — losing that race just means waiting.
        """
        path = self._lock_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        for attempt in (0, 1):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt == 0 and self._is_stale(path):
                    self._break_stale(path)
                    continue
                return False
            with os.fdopen(fd, "w") as handle:
                handle.write(f"{os.getpid()} {time.time():.3f}\n")
            obs = _observer()
            if obs is not None:
                obs.metrics.inc("exec.singleflight.acquired")
            return True
        return False

    def release(self, key: str) -> None:
        """Drop the lock (idempotent; missing lock is fine)."""
        try:
            self._lock_path(key).unlink()
        except OSError:
            pass

    def holder_active(self, key: str) -> bool:
        """True while a fresh (non-stale) lock exists for ``key``."""
        path = self._lock_path(key)
        return path.exists() and not self._is_stale(path)

    def _is_stale(self, path: Path) -> bool:
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return False  # gone already — not ours to break
        return age > self.stale_after

    def _break_stale(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            return
        obs = _observer()
        if obs is not None:
            obs.metrics.inc("exec.singleflight.stale_broken")

    # --- waiting --------------------------------------------------------------

    def wait_for(self, key: str, timeout: Optional[float] = None) -> Optional[CellResult]:
        """Wait for another process to publish ``key``; ``None`` = compute.

        Returns the published envelope as soon as it appears.  Returns
        ``None`` when the owner's lock goes stale or vanishes without a
        published entry, or when ``timeout`` elapses — the caller should
        then compute the cell itself (counted as ``recomputed``).
        """
        deadline = time.monotonic() + (
            self.wait_timeout if timeout is None else timeout
        )
        obs = _observer()
        if obs is not None:
            obs.metrics.inc("exec.singleflight.waited")
        entry_path = self.cache._path(key)
        result = self.cache.get(key)  # the whole wait counts as one miss
        if result is not None:
            return result
        while True:
            # Probe the entry file cheaply; deserialize (and touch the
            # hit/miss counters) only once it appears, so a long wait
            # doesn't inflate the cache's miss stats once per poll.
            if entry_path.exists():
                result = self.cache.get(key)
                if result is not None:
                    return result
            path = self._lock_path(key)
            if not path.exists():
                # Owner finished (or crashed) without a usable entry.
                recheck = self.cache.get(key)
                if recheck is None and obs is not None:
                    obs.metrics.inc("exec.singleflight.recomputed")
                return recheck
            if self._is_stale(path):
                self._break_stale(path)
                if obs is not None:
                    obs.metrics.inc("exec.singleflight.recomputed")
                return None
            if time.monotonic() >= deadline:
                if obs is not None:
                    obs.metrics.inc("exec.singleflight.recomputed")
                return None
            time.sleep(self.poll)

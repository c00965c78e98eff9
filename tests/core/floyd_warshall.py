"""The paper's step-1 algorithm, kept as a test oracle.

The paper computes all-pairs shortest paths over blocks with
Floyd/Warshall "once per invocation" of JUMPS.  The optimizer answers
the same queries with demand-driven Dijkstra
(:class:`repro.core.shortest_path.ShortestPaths`); this dense matrix
overrides only its two distance hooks, so canonical path reconstruction
is shared and the two must agree decision for decision.  It lives beside
the parity suites that use it, outside the installed package, because it
needs numpy (a test-only dependency); ``test_engine_parity.py`` swaps it
in by patching ``repro.core.replication.ShortestPaths``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cfg.block import Function
from repro.core.shortest_path import _INF, ShortestPaths

__all__ = ["ShortestPathMatrix"]


class ShortestPathMatrix(ShortestPaths):
    """All-pairs shortest paths, computed densely with Floyd/Warshall."""

    def __init__(self, func: Function) -> None:
        super().__init__(func)
        n = len(self.blocks)
        sizes = np.array(self._sizes, dtype=np.float64)
        dist = np.full((n, n), _INF, dtype=np.float64)
        for i, row in enumerate(self._succ_idx):
            for j in row:
                weight = sizes[i] + sizes[j]
                if weight < dist[i, j]:
                    dist[i, j] = weight
        # Floyd/Warshall, vectorized over the (i, j) plane for each pivot k.
        # Intermediate block k is counted once: dist[i,k] + dist[k,j] counts
        # it twice, so subtract its size.
        for k in range(n):
            through_k = dist[:, k, None] + dist[None, k, :] - sizes[k]
            np.minimum(dist, through_k, out=dist)
        self._dist = dist
        # Nearest-return vector, filled on first use by one vectorized argmin.
        self._ret_vec: Optional[np.ndarray] = None

    def _distances_from(self, i: int):
        return self._dist[i]

    def _best_return_from(self, i: int) -> Optional[int]:
        if self._ret_vec is None:
            n = len(self.blocks)
            ridx = self._return_idx
            if not ridx:
                self._ret_vec = np.full(n, -1, dtype=np.int64)
            else:
                sub = self._dist[:, ridx].copy()
                for pos, j in enumerate(ridx):
                    sub[j, pos] = _INF  # non-reflexive: skip dist(j, j)
                best_pos = np.argmin(sub, axis=1)  # first minimum wins ties
                best = np.array(ridx, dtype=np.int64)[best_pos]
                best[sub[np.arange(n), best_pos] == _INF] = -1
                self._ret_vec = best
        j = int(self._ret_vec[i])
        return None if j < 0 else j

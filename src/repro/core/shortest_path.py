"""Step 1 of JUMPS: shortest paths over basic blocks.

The paper finds the replacement for an unconditional jump by following the
*shortest path* in the control-flow graph, where the length of a path is the
number of RTLs in the traversed blocks.  The paper computes all-pairs
shortest paths with the Floyd/Warshall algorithm ([Wa62], [Fl62]) "once per
invocation of JUMPS", but the optimizer driver invokes JUMPS once per
*sweep*, and a sweep only ever queries a handful of sources: the targets of
the unconditional jumps under consideration (plus, transitively, the blocks
of the chosen sequences).  :class:`ShortestPaths` therefore answers the
same queries by running one binary-heap Dijkstra per *queried* source,
memoized for the lifetime of the object (one sweep).  The paper's dense
Floyd/Warshall matrix survives as a test oracle
(:class:`repro.verify.floyd_warshall.ShortestPathMatrix`); both compute
true shortest distances under the conventions below.

Conventions:

* ``dist(u, v)`` is the minimum total number of RTLs over all paths from
  ``u`` to ``v``, counting the RTLs of *both* endpoints and of every block
  in between.  ``dist(u, u)`` is not defined (the relation is kept
  non-reflexive, as in the paper).
* Self edges are excluded; blocks ending in an indirect jump contribute no
  outgoing edges ("the replication of indirect jumps has not yet been
  implemented", §4) — and they also cannot appear in the middle of a
  replication sequence because they never fall through.

Canonical paths
---------------

Ties between equally short paths are broken *canonically*, from distance
values alone, so any distance source reconstructs the identical block
sequence: among all minimum-weight paths the hop-minimal one is chosen,
and within a hop layer the smallest-index predecessor wins.  This is what
makes Dijkstra and the Floyd/Warshall oracle produce byte-identical
replication decisions.

Observability: each Dijkstra run increments ``sssp.dijkstra_runs`` and
its relaxation count lands in ``sssp.relaxations``, so ``repro trace``
shows exactly how much of the all-pairs work the sweep avoided.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional

from ..cfg.block import BasicBlock, Function
from ..obs import active as _active_observer

__all__ = ["ShortestPaths"]

_INF = float("inf")


class ShortestPaths:
    """Step-1 queries over a snapshot of one function's blocks.

    The snapshot is taken at construction and stays valid across
    replacements within one sweep: replication only adds blocks, so
    recorded shortest paths remain intact.  Distances come from the two
    hooks :meth:`_distances_from` (per-source Dijkstra, memoized) and
    :meth:`_best_return_from`; everything else is shared with any
    subclass that supplies distances another way.
    """

    def __init__(self, func: Function) -> None:
        self.func = func
        self.blocks: List[BasicBlock] = list(func.blocks)
        self.index: Dict[int, int] = {
            id(block): i for i, block in enumerate(self.blocks)
        }
        self._sizes = [block.size() for block in self.blocks]
        succ_idx: List[List[int]] = []
        for i, block in enumerate(self.blocks):
            row: List[int] = []
            if not block.ends_in_indirect_jump():  # excluded (paper, step 1)
                for succ in block.succs:
                    j = self.index.get(id(succ))
                    # Self-reflexive transitions are excluded; duplicate
                    # edges (a conditional branch whose target is also its
                    # fall-through) collapse to one.
                    if j is not None and j != i and j not in row:
                        row.append(j)
            succ_idx.append(row)
        pred_idx: List[List[int]] = [[] for _ in self.blocks]
        for i, row in enumerate(succ_idx):
            for j in row:
                pred_idx[j].append(i)
        self._succ_idx = succ_idx
        self._pred_idx = pred_idx
        self._return_idx = [
            i for i, block in enumerate(self.blocks) if block.ends_in_return()
        ]
        self._rows: Dict[int, List[float]] = {}
        #: Nearest-return index per queried source (memoized like rows).
        self._ret_best: Dict[int, Optional[int]] = {}

    # --- distance hooks -------------------------------------------------------

    def _distances_from(self, i: int):
        """Distances from source ``i`` to every block index (indexable).

        Entry ``[i]`` itself is unspecified — the relation is
        non-reflexive and every query path treats the source specially.
        """
        row = self._rows.get(i)
        if row is None:
            row = self._dijkstra(i)
            self._rows[i] = row
        return row

    def _best_return_from(self, i: int) -> Optional[int]:
        """Index of the nearest return block (smallest index on ties)."""
        if i not in self._ret_best:
            d = self._distances_from(i)
            best: Optional[int] = None
            best_d = _INF
            # Ascending index order + strict improvement: the smallest
            # index among minimal distances wins.
            for j in self._return_idx:
                if j != i and d[j] < best_d:
                    best_d = d[j]
                    best = j
            self._ret_best[i] = best
        return self._ret_best[i]

    def _dijkstra(self, i: int) -> List[float]:
        """Distances from block ``i`` under the paper's conventions.

        The weight of a path is the RTL count of every block on it,
        both endpoints included, realized as node weights: entering
        block ``v`` costs ``size(v)``, and the source's own size seeds
        the frontier.  The source is never re-entered (the relation is
        non-reflexive; queries mask ``dist(i, i)`` anyway).
        """
        sizes = self._sizes
        succ = self._succ_idx
        d = [_INF] * len(self.blocks)
        d[i] = float(sizes[i])
        heap: List[tuple] = [(d[i], i)]
        relaxations = 0
        while heap:
            du, u = heappop(heap)
            if du > d[u]:
                continue  # stale entry
            for v in succ[u]:
                if v == i:
                    continue
                nd = du + sizes[v]
                relaxations += 1
                if nd < d[v]:
                    d[v] = nd
                    heappush(heap, (nd, v))
        metrics = _active_observer().metrics
        metrics.inc("sssp.dijkstra_runs")
        metrics.inc("sssp.relaxations", relaxations)
        return d

    # --- canonical path reconstruction ----------------------------------------

    def _canonical_path_idx(self, i: int, j: int) -> Optional[List[int]]:
        """The canonical shortest path ``i .. j`` as block indices.

        Built purely from distance values, so every distance source agrees: BFS
        over the shortest-path subgraph (edges that settle the distance
        equation) finds minimal hop counts, then a backward walk picks
        the smallest-index predecessor in the previous hop layer.  All
        block sizes are non-negative integers, so the float comparisons
        below are exact.
        """
        d = self._distances_from(i)
        if i == j or not d[j] < _INF:
            return None
        sizes = self._sizes
        hops: Dict[int, int] = {i: 0}
        frontier = [i]
        depth = 0
        while frontier and j not in hops:
            depth += 1
            next_frontier: List[int] = []
            for u in frontier:
                du = sizes[i] if u == i else d[u]
                for v in self._succ_idx[u]:
                    if v == i or v in hops:
                        continue
                    if du + sizes[v] == d[v]:
                        hops[v] = depth
                        next_frontier.append(v)
            frontier = next_frontier
        if j not in hops:  # pragma: no cover - distances imply reachability
            return None
        path = [j]
        v = j
        while v != i:
            layer = hops[v] - 1
            best = -1
            for u in self._pred_idx[v]:
                if hops.get(u, -1) != layer or (best >= 0 and u >= best):
                    continue
                du = sizes[i] if u == i else d[u]
                if du + sizes[v] == d[v]:
                    best = u
            assert best >= 0, "canonical walk lost the BFS parent"
            path.append(best)
            v = best
        path.reverse()
        return path

    # --- queries --------------------------------------------------------------

    def dist(self, src: BasicBlock, dst: BasicBlock) -> float:
        """Total RTLs on the shortest path from ``src`` to ``dst`` (inclusive)."""
        i = self.index.get(id(src))
        j = self.index.get(id(dst))
        if i is None or j is None or i == j:
            return _INF
        return float(self._distances_from(i)[j])

    def path(self, src: BasicBlock, dst: BasicBlock) -> Optional[List[BasicBlock]]:
        """The blocks of the shortest path ``src .. dst`` inclusive, or None."""
        i = self.index.get(id(src))
        j = self.index.get(id(dst))
        if i is None or j is None or i == j:
            return None
        idxs = self._canonical_path_idx(i, j)
        if idxs is None:
            return None
        return [self.blocks[k] for k in idxs]

    def shortest_sequence_to_return(
        self, start: BasicBlock
    ) -> Optional[List[BasicBlock]]:
        """Option A of step 2: cheapest block sequence from ``start`` ending
        in a return from the routine ("favoring returns")."""
        if start.ends_in_return():
            return [start]
        i = self.index.get(id(start))
        if i is None:
            return None
        best_j = self._best_return_from(i)
        if best_j is None:
            return None
        idxs = self._canonical_path_idx(i, best_j)
        if idxs is None:
            return None
        return [self.blocks[k] for k in idxs]

    def shortest_sequence_to_fallthrough(
        self, start: BasicBlock, follow: BasicBlock
    ) -> Optional[List[BasicBlock]]:
        """Option B of step 2: cheapest sequence from ``start`` whose last
        block has an edge to ``follow`` ("favoring loops").  ``follow`` itself
        is *not* part of the sequence — the copy will fall through into it."""
        if any(succ is follow for succ in start.succs) and not (
            start.ends_in_indirect_jump() or start is follow
        ):
            direct: Optional[List[BasicBlock]] = [start]
        else:
            direct = None
        path = self.path(start, follow)
        via_path = path[:-1] if path is not None and len(path) > 1 else None
        candidates = [c for c in (direct, via_path) if c is not None]
        if not candidates:
            return None
        return min(candidates, key=lambda seq: sum(b.size() for b in seq))

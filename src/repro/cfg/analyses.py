"""Cached CFG analyses with explicit edition-based invalidation.

Dominator trees, natural loops, reverse postorder and the reducibility
verdict are pure functions of the flow graph's *structure*, yet the seed
code base recomputed them from scratch at every use — once per candidate
jump inside a replication sweep, once per optimizer pass that needs loop
or dominance information.  :class:`AnalysisManager` caches them per
function, keyed on ``Function.cfg_edition``: :func:`repro.cfg.graph.compute_flow`
bumps that counter whenever the block list or any edge actually changes
(and every structural transformation in this code base calls
``compute_flow`` afterwards — the system-wide invariant the CFG
validator enforces), so a cached result is served exactly until the
graph really changed.

Usage::

    from repro.cfg.analyses import get_analyses

    am = get_analyses(func)
    loops = am.loops()          # cached until the CFG mutates
    if am.reducible():
        ...
    am.dominates(a, b)          # cached dominator tree

Cache traffic is visible through the ambient observer as the
``analysis.cache.hit`` / ``analysis.cache.miss`` counters (plus
per-analysis ``analysis.cache.{hit,miss}.<kind>`` breakdowns).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..obs import active as _active_observer
from .block import BasicBlock, Function
from .dominators import DominatorTree, compute_dominators
from .loops import LoopInfo, find_loops
from .reducibility import is_reducible
from .traversal import reverse_postorder

__all__ = ["AnalysisManager", "get_analyses"]


class AnalysisManager:
    """Per-function cache of structure-derived CFG analyses."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self._edition = -1
        self._cache: Dict[str, object] = {}

    # --- cache plumbing -------------------------------------------------------

    def _get(self, kind: str, compute: Callable[[], object]) -> object:
        edition = self.func.cfg_edition
        if edition != self._edition:
            self._cache.clear()
            self._edition = edition
        obs = _active_observer()
        if kind in self._cache:
            obs.metrics.inc("analysis.cache.hit")
            obs.metrics.inc(f"analysis.cache.hit.{kind}")
            return self._cache[kind]
        obs.metrics.inc("analysis.cache.miss")
        obs.metrics.inc(f"analysis.cache.miss.{kind}")
        result = compute()
        self._cache[kind] = result
        return result

    # --- the analyses ---------------------------------------------------------

    def dominators(self) -> DominatorTree:
        """The dominator tree of the reachable part of the function."""
        return self._get("dominators", lambda: compute_dominators(self.func))

    def loops(self) -> LoopInfo:
        """All natural loops (reuses the cached dominator tree)."""
        return self._get(
            "loops", lambda: find_loops(self.func, self.dominators())
        )

    def reverse_postorder(self) -> List[BasicBlock]:
        """Reverse postorder of the reachable blocks."""
        return self._get("rpo", lambda: reverse_postorder(self.func))

    def reducible(self) -> bool:
        """Whether the reachable flow graph is reducible (T1/T2 test)."""
        return self._get("reducible", lambda: is_reducible(self.func))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` dominates ``b``, off the cached tree."""
        return self.dominators().dominates(a, b)


def get_analyses(func: Function) -> AnalysisManager:
    """The (lazily created) analysis manager attached to ``func``."""
    manager: Optional[AnalysisManager] = getattr(func, "_analysis_manager", None)
    if manager is None:
        manager = AnalysisManager(func)
        func._analysis_manager = manager
    return manager

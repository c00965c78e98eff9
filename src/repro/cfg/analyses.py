"""Cached CFG analyses with explicit edition-based invalidation.

Reverse postorder, the dominator tree (computed from it), natural loops
(members in layout order) and the reducibility verdict are functions of
the flow graph and its layout.  :class:`AnalysisManager` derives each
once per ``Function.cfg_edition``, which :func:`repro.cfg.graph.compute_flow`
bumps on any permutation, insertion or deletion of blocks and any edge
change.  A pass calls ``compute_flow`` after it changes the block list or
a terminator's targets; the sanitizer reports a block list that
``compute_flow`` never saw while the cache is at the current edition.

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
from .reducibility import reducible
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
        return self._get(
            "dominators",
            lambda: compute_dominators(self.func, self.reverse_postorder()),
        )

    def loops(self) -> LoopInfo:
        """All natural loops (reuses the cached dominator tree)."""
        return self._get(
            "loops", lambda: find_loops(self.func, self.dominators())
        )

    def reverse_postorder(self) -> List[BasicBlock]:
        """Reverse postorder of the reachable blocks."""
        return self._get("rpo", lambda: reverse_postorder(self.func))

    def reducible(self) -> bool:
        """Whether the reachable flow graph is reducible, off the cached
        reverse postorder and dominator tree."""
        return self._get(
            "reducible", lambda: reducible(self.reverse_postorder(), self.dominators())
        )

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

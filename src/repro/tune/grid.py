"""The autotuner's candidate space.

A :class:`Candidate` is one per-function replication tuning the sweep
evaluates: a step-2 policy, a §6 sequence-length bound, and a pass
ordering (see :data:`repro.opt.driver.PASS_ORDERS`).  A :class:`TuneGrid`
enumerates the cross product; the defaults cover the paper's three
policies, a small geometric ladder of bounds, and all three orderings —
the fixed global configuration is always among the candidates, so the
per-function winner can never lose to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from ..core.replication import POLICIES
from ..opt.driver import PASS_ORDERS

__all__ = ["Candidate", "TuneGrid", "DEFAULT_BOUNDS"]

#: §6 sequence-length bounds swept per function; ``None`` is unbounded.
DEFAULT_BOUNDS: Tuple[Optional[int], ...] = (None, 4, 8, 16)

#: Step-2 policy names, all of :data:`~repro.core.replication.POLICIES`.
DEFAULT_POLICIES: Tuple[str, ...] = tuple(POLICIES)


@dataclass(frozen=True)
class Candidate:
    """One point of the per-function sweep, in wire vocabulary.

    ``policy`` is a :data:`~repro.core.replication.POLICIES` name
    (strings travel in :class:`~repro.exec.envelope.CellSpec` tuned rows
    and in the tuned config JSON; the enum never crosses a process
    boundary).
    """

    policy: str = "shortest"
    max_rtls: Optional[int] = None
    order: str = "standard"

    def as_row(self, function: str) -> Tuple[str, str, Optional[int], str]:
        """The spec's ``tuned`` row for ``function`` under this candidate."""
        return (function, self.policy, self.max_rtls, self.order)

    @property
    def label(self) -> str:
        bound = "inf" if self.max_rtls is None else str(self.max_rtls)
        return f"{self.policy}/{bound}/{self.order}"


@dataclass(frozen=True)
class TuneGrid:
    """The candidate cross product one tuning run sweeps per function."""

    policies: Tuple[str, ...] = DEFAULT_POLICIES
    bounds: Tuple[Optional[int], ...] = DEFAULT_BOUNDS
    orders: Tuple[str, ...] = PASS_ORDERS

    def __post_init__(self) -> None:
        for policy in self.policies:
            if policy not in POLICIES:
                raise ValueError(f"unknown policy {policy!r}")
        for bound in self.bounds:
            if bound is not None and (not isinstance(bound, int) or bound < 1):
                raise ValueError(f"max_rtls bound must be >= 1, got {bound!r}")
        for order in self.orders:
            if order not in PASS_ORDERS:
                raise ValueError(
                    f"order must be one of {'/'.join(PASS_ORDERS)}, got {order!r}"
                )

    def __len__(self) -> int:
        return len(self.policies) * len(self.bounds) * len(self.orders)

    def candidates(self) -> Iterator[Candidate]:
        """Every grid point, in deterministic sweep order."""
        for policy in self.policies:
            for bound in self.bounds:
                for order in self.orders:
                    yield Candidate(policy=policy, max_rtls=bound, order=order)

    @classmethod
    def parse(
        cls,
        policies: Optional[Sequence[str]] = None,
        bounds: Optional[Sequence[Optional[int]]] = None,
        orders: Optional[Sequence[str]] = None,
    ) -> "TuneGrid":
        """Build a grid from CLI-style overrides (``None`` = default)."""
        return cls(
            policies=tuple(policies) if policies else DEFAULT_POLICIES,
            bounds=tuple(bounds) if bounds else DEFAULT_BOUNDS,
            orders=tuple(orders) if orders else PASS_ORDERS,
        )

"""The replication decision log.

The paper's evaluation (Tables 4–6) is an exercise in *attribution*:
which replications removed which jumps at what code-size cost.  The
decision log captures exactly that — one structured
:class:`ReplicationDecision` per candidate jump the engine examined,
recording where the jump sat, which policy arbitrated the step-2
sequence options, how long the chosen sequence was, and whether the
replication was accepted, rejected or rolled back (and why).

Outcomes
--------

``accepted``     the jump was replaced by a replicated sequence
``redundant``    the jump targeted its fall-through and was deleted
``rejected``     every candidate sequence failed; the jump stays
``kept``         the jump was examined but never attempted (filtered,
                 self-loop, unresolved or stale target)

Reasons (for ``rejected``/``kept``, or the rollback note on an
``accepted`` decision that succeeded on its second sequence):

``irreducible``          step-6 reducibility check rolled the copy back
``max_rtls``             the §6 sequence-length bound refused the copy
``loop_completion``      step-3 completion grew pathologically
``inadmissible``         the LOOPS mode restriction declined it
``no_candidates``        no sequence to a return or the fall-through
``filtered``             the profile-guided jump filter declined it
``self_loop``            the jump targets its own block
``unresolved_target``    the jump target label does not exist
``stale_target``         target created mid-sweep; retried next sweep
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional, Set

__all__ = ["ReplicationDecision", "DecisionLog"]


@dataclass
class ReplicationDecision:
    """One candidate jump the replication engine examined."""

    function: str
    #: Label of the block whose terminating jump was examined.
    block: str
    #: Label the jump targeted.
    target: str
    #: Engine configuration: ``"jumps"`` or ``"loops"``.
    mode: str
    #: Step-2 policy: ``"shortest"``, ``"returns"`` or ``"loops"``.
    policy: str
    #: ``accepted`` / ``redundant`` / ``rejected`` / ``kept``.
    outcome: str
    #: Failure reason (see module docstring); empty when accepted clean.
    reason: str = ""
    #: Which sequence kind won: ``"returns"``, ``"fallthrough"`` or ``""``.
    sequence_kind: str = ""
    #: Length of the chosen (or last tried) sequence.
    sequence_blocks: int = 0
    sequence_rtls: int = 0
    #: Candidate sequences tried before the outcome.
    attempts: int = 0
    #: Step-6 rollbacks performed while deciding this jump.
    rollbacks: int = 0
    #: Labels of the replica blocks created (accepted decisions only).
    copies: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


class DecisionLog:
    """Accumulates decisions; disabled logs drop them with no storage."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.decisions: List[ReplicationDecision] = []

    def record(self, decision: ReplicationDecision) -> None:
        if self.enabled:
            self.decisions.append(decision)

    def __len__(self) -> int:
        return len(self.decisions)

    def as_dicts(self) -> List[dict]:
        return [d.as_dict() for d in self.decisions]

    def merge_dicts(self, rows: Optional[List[dict]]) -> None:
        if not self.enabled:
            return
        for row in rows or []:
            self.decisions.append(ReplicationDecision(**row))

    def replicated_labels(self, function: Optional[str] = None) -> Set[str]:
        """Labels of every replica block created (for CFG annotation).

        With ``function`` given, only that function's replicas.
        """
        labels: Set[str] = set()
        for decision in self.decisions:
            if function is not None and decision.function != function:
                continue
            labels.update(decision.copies)
        return labels

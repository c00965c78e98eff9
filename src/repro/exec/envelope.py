"""Pickle-safe work units for the parallel execution layer.

A :class:`CellSpec` names one cell of the evaluation matrix — one
(program × target × configuration) point of the paper's Tables 4–6 —
plus the knobs that change what a run produces (tracing, the JUMPS
policy, the §6 RTL bound or profile threshold, or skipping optimization
entirely for the differential-testing reference).  A :class:`CellResult`
is the envelope a worker process ships back: the measurement,
replication statistics and timings on success, or a captured traceback
on failure.  Both sides are plain data so they cross process boundaries
and live in the on-disk result cache unchanged.  Observations (spans,
counters, the decision log) are not part of either: they go to the
running process's observer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.policy import POLICIES, REPLICATIONS
from ..ease.measurement import Measurement
from ..targets.names import TARGETS

__all__ = ["CellSpec", "CellResult", "CACHE_SCHEMA_VERSION", "VERIFY_MODES"]

#: Translation-validation modes, weakest first (see :mod:`repro.verify`).
VERIFY_MODES = ("off", "sanitize", "full")

#: Bump whenever the envelope layout or the meaning of a measurement
#: changes; old cache entries become unreachable (different keys).
#: v2: CellSpec grew ``observe``; CellResult grew ``obs`` (the
#: observability snapshot: spans, metrics, replication decision log).
#: v3: CellSpec grew a step-1 shortest-path engine selector.
#: v4: traced measurements carry an RLE ``CompressedTrace`` instead of
#: the raw ``List[int]`` (the streaming dynamic-measurement pipeline);
#: old raw-list envelopes must not shadow compressed ones, and the
#: Table-6 engines (reference / multi) consume the new records.
#: v5: CellSpec grew ``verify`` and CellResult grew ``verification``
#: (the translation-validation subsystem); verified runs bypass the
#: cache entirely, but old envelopes lacking the new fields must not
#: resurface.
#: v6: CellSpec grew ``ease_engine`` (the measurement execution engine)
#: and measurements carry an ``ease_engine`` provenance field; the
#: engines are parity-gated but differ in timing, so pre-engine
#: envelopes must not shadow engine-tagged ones.
#: v7: CellSpec grew per-function replication rows and the replication
#: engine gained the §5.2 convergence guard, which can change replication
#: results on cascading shapes; guard-less envelopes must not shadow
#: guarded ones.
#: v8: CellSpec lost the shortest-path engine selector (the key no
#: longer hashes it, and ``ease_engine=None`` keys as ``"compiled"``
#: without consulting the environment) and ``Measurement`` lost its
#: ``ease_engine`` provenance field, so v7 pickles carry a stale layout.
#: v9: CellSpec lost its CFG-validation debug flag (the sanitizer is the
#: one per-pass check) and CellResult lost its per-pass record list (the
#: ``opt.<pass>`` spans in ``obs`` are the one per-pass record).
#: v10: CellSpec lost its per-function replication rows (one global
#: policy/max_rtls per cell); the key no longer hashes them.
#: v11: CellSpec lost ``observe`` and CellResult lost ``obs``: a cell
#: records into the running process's observer, so entries hold results
#: only (29 % fewer pickled bytes over the 84 untraced cells).
#: v12: CellSpec grew ``profile_threshold`` (profile-guided JUMPS, whose
#: hot/cold jump counts ride in ``replication_stats``) and traced
#: measurements carry ``taken_transfers``.
CACHE_SCHEMA_VERSION = 12


@dataclass(frozen=True)
class CellSpec:
    """One cell of the (program × target × configuration) matrix."""

    #: A Table-3 benchmark name (e.g. ``"wc"``) or mini-C source text.
    program: str
    target: str = "sparc"
    replication: str = "none"
    policy: str = "shortest"
    max_rtls: Optional[int] = None
    #: Record the block trace (needed by the Table-6 cache simulations).
    trace: bool = False
    #: ``False`` runs the raw front-end output — the differential-test
    #: semantic reference.
    optimize: bool = True
    #: Standard input override; ``None`` uses the benchmark's workload.
    stdin: Optional[bytes] = None
    #: Measurement engine: ``None``/``"compiled"`` (the product engine)
    #: or ``"interp"`` (the closure interpreter, which differential
    #: references run on).  Parity makes the counts engine-independent,
    #: but wall time (``measure_seconds``) differs, so the engine is part
    #: of the cache key; ``None`` and ``"compiled"`` share one entry.
    ease_engine: Optional[str] = None
    #: Translation-validation mode, one of :data:`VERIFY_MODES`.  A cell
    #: not "off" bypasses the result cache in both directions: a
    #: verified run must actually *run* (a cache hit would validate
    #: nothing), and its timings are poisoned by oracle overhead, so it
    #: must not shadow a clean run either.
    verify: str = "off"
    #: Profile-guided JUMPS (``OptimizationConfig.profile_threshold``):
    #: replicate only jumps executed at least this fraction of all
    #: executed jumps on a training run over the cell's stdin; ``None``
    #: replicates all.
    profile_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(
                f"unknown target {self.target!r}; expected one of {list(TARGETS)}"
            )
        if self.replication not in REPLICATIONS:
            raise ValueError(
                f"replication must be one of {'/'.join(REPLICATIONS)}, "
                f"got {self.replication!r}"
            )
        if self.max_rtls is not None and self.max_rtls < 0:
            raise ValueError(f"max_rtls must be non-negative, got {self.max_rtls}")
        if self.policy not in POLICIES:
            raise KeyError(
                f"unknown policy {self.policy!r}; expected one of {list(POLICIES)}"
            )
        if self.ease_engine not in (None, "compiled", "interp"):
            raise ValueError(
                f"ease_engine must be compiled/interp, got {self.ease_engine!r}"
            )
        if self.verify not in VERIFY_MODES:
            raise ValueError(
                f"verify mode must be one of {'/'.join(VERIFY_MODES)}, "
                f"got {self.verify!r}"
            )
        if self.profile_threshold is not None:
            if self.profile_threshold < 0:
                raise ValueError(
                    f"profile_threshold must be non-negative, got {self.profile_threshold}"
                )
            if (self.replication, self.optimize) != ("jumps", True):
                raise ValueError("profile_threshold needs an optimized jumps cell")

    def resolve(self) -> Tuple[str, bytes]:
        """The (source text, stdin bytes) this cell actually runs."""
        from ..benchsuite.programs import PROGRAMS

        if self.program in PROGRAMS:
            bench = PROGRAMS[self.program]
            stdin = bench.stdin if self.stdin is None else self.stdin
            return bench.source, stdin
        return self.program, self.stdin if self.stdin is not None else b""

    @property
    def label(self) -> str:
        """Short human-readable cell id for progress and error reports."""
        name = self.program if "\n" not in self.program else "<source>"
        config = self.replication if self.optimize else "reference"
        if self.policy != "shortest":
            config += f"+{self.policy}"
        if self.max_rtls is not None:
            config += f"+max_rtls={self.max_rtls}"
        if self.profile_threshold is not None:
            config += f"+profile={self.profile_threshold:g}"
        suffix = "+trace" if self.trace else ""
        return f"{name}/{self.target}/{config}{suffix}"


@dataclass
class CellResult:
    """What one executed cell produced (or how it failed)."""

    spec: CellSpec
    measurement: Optional[Measurement] = None
    #: ``ReplicationStats`` flattened to a plain dict (stable to pickle).
    replication_stats: Optional[dict] = None
    compile_seconds: float = 0.0
    optimize_seconds: float = 0.0
    measure_seconds: float = 0.0
    #: Translation-validation report (``None`` when verification was off).
    verification: Optional[dict] = None
    #: Captured traceback text when the cell crashed; ``None`` on success.
    error: Optional[str] = None
    #: Filled in by the runner: whether this came from the result cache.
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

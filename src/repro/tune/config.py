"""The versioned tuned-config JSON the autotuner emits.

The file is the tuner's one durable artifact: per program, per function,
the winning (policy, max_rtls, order).  ``repro --tuned-config FILE``
replays it as ``tuned`` rows (the :class:`~repro.exec.CellSpec`
vocabulary), and :func:`repro.tune.tuner.tune` writes it.  The format is
versioned and strictly validated — a config written by a future
incompatible tuner must fail loudly, not silently detune.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..core.replication import POLICIES
from ..opt.driver import PASS_ORDERS
from .grid import Candidate

__all__ = [
    "TUNED_CONFIG_VERSION",
    "TunedConfig",
    "TunedConfigError",
    "load_tuned_config",
]

TUNED_CONFIG_VERSION = 1


class TunedConfigError(ValueError):
    """A malformed or incompatible tuned-config file."""


@dataclass
class TunedConfig:
    """Per-function tunings for a set of programs, plus their context."""

    target: str = "sparc"
    replication: str = "jumps"
    #: The global configuration the overrides were tuned against.
    baseline: Candidate = field(default_factory=Candidate)
    #: ``programs[program][function]`` → winning candidate.
    programs: Dict[str, Dict[str, Candidate]] = field(default_factory=dict)
    version: int = TUNED_CONFIG_VERSION

    def overrides_for(
        self, program: str
    ) -> Tuple[Tuple[str, str, Optional[int], str], ...]:
        """``tuned`` rows pinning every recorded winner of one program.

        Unlike :meth:`tuned_rows` nothing is normalized away: a winner
        equal to the file's baseline still pins its function when the
        replay runs under a different global ``--policy``/``--max-rtls``.
        Empty if the program is untuned.
        """
        functions = self.programs.get(program, {})
        return tuple(functions[name].as_row(name) for name in sorted(functions))

    def tuned_rows(
        self, program: str
    ) -> Optional[Tuple[Tuple[str, str, Optional[int], str], ...]]:
        """The canonical ``CellSpec.tuned`` value for one program."""
        from .cutout import normalize_rows

        return normalize_rows(self.programs.get(program, {}), self.baseline)

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "target": self.target,
            "replication": self.replication,
            "baseline": {
                "policy": self.baseline.policy,
                "max_rtls": self.baseline.max_rtls,
            },
            "programs": {
                program: {
                    function: {
                        "policy": candidate.policy,
                        "max_rtls": candidate.max_rtls,
                        "order": candidate.order,
                    }
                    for function, candidate in sorted(functions.items())
                }
                for program, functions in sorted(self.programs.items())
            },
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n")


def _candidate_from_dict(raw: object, where: str) -> Candidate:
    if not isinstance(raw, dict):
        raise TunedConfigError(f"{where}: expected an object, got {type(raw).__name__}")
    policy = raw.get("policy", "shortest")
    max_rtls = raw.get("max_rtls")
    order = raw.get("order", "standard")
    unknown = set(raw) - {"policy", "max_rtls", "order"}
    if unknown:
        raise TunedConfigError(f"{where}: unknown keys {sorted(unknown)}")
    if policy not in POLICIES:
        raise TunedConfigError(f"{where}: unknown policy {policy!r}")
    if not (max_rtls is None or (isinstance(max_rtls, int) and max_rtls >= 1)):
        raise TunedConfigError(f"{where}: max_rtls must be a positive int or null")
    if order not in PASS_ORDERS:
        raise TunedConfigError(f"{where}: unknown order {order!r}")
    return Candidate(policy=policy, max_rtls=max_rtls, order=order)


def load_tuned_config(path) -> TunedConfig:
    """Parse and validate a tuned-config file."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TunedConfigError(f"cannot read tuned config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise TunedConfigError("tuned config must be a JSON object")
    version = raw.get("version")
    if version != TUNED_CONFIG_VERSION:
        raise TunedConfigError(
            f"tuned config version {version!r} is not supported "
            f"(expected {TUNED_CONFIG_VERSION})"
        )
    baseline_raw = raw.get("baseline", {})
    baseline = _candidate_from_dict(baseline_raw, "baseline")
    if baseline.order != "standard":
        raise TunedConfigError("baseline order must be 'standard'")
    programs_raw = raw.get("programs", {})
    if not isinstance(programs_raw, dict):
        raise TunedConfigError("'programs' must be an object")
    programs: Dict[str, Dict[str, Candidate]] = {}
    for program, functions_raw in programs_raw.items():
        if not isinstance(functions_raw, dict):
            raise TunedConfigError(f"programs[{program!r}] must be an object")
        programs[program] = {
            function: _candidate_from_dict(
                candidate_raw, f"programs[{program!r}][{function!r}]"
            )
            for function, candidate_raw in functions_raw.items()
        }
    return TunedConfig(
        target=raw.get("target", "sparc"),
        replication=raw.get("replication", "jumps"),
        baseline=baseline,
        programs=programs,
        version=version,
    )

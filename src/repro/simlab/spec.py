"""The simlab job model.

A :class:`RunSpec` deterministically captures *everything* that decides a
simulation's outcome: the experiment kind, workload name, code level, the
full resolved configuration (every :class:`~repro.uarch.config.TripsConfig`
or :class:`~repro.baseline.ooo.BaselineConfig` field, defaults included,
so a changed default never aliases an old record), and a fingerprint of
the simulator's own source code.  Its :attr:`RunSpec.key` is a stable
content hash over all of that — the cache key, and the reason a repeated
sweep is pure cache hits while any code or config change re-simulates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional

from ..baseline.ooo import BaselineConfig
from ..uarch.config import PredictorConfig, TripsConfig

#: experiment kinds execute_spec understands.  ``selftest`` exists for the
#: executor's own crash/retry/timeout tests and never touches a simulator.
#: ``fuzz`` is one differential-fuzzing shard (a seed range plus oracle
#: options, see :mod:`repro.fuzz`).
KINDS = ("trips", "baseline", "selftest", "fuzz")


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``.py`` file in the ``repro`` package.

    Cached results are only valid for the exact simulator that produced
    them; baking this into every spec's key makes cache invalidation on
    code change automatic (stale records are simply never looked up again
    — ``python -m repro.simlab clear --stale`` reclaims the disk).
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def trips_config_to_dict(config: Optional[TripsConfig]) -> Dict[str, Any]:
    """Full resolved field dict (nested predictor included)."""
    return asdict(config if config is not None else TripsConfig())


def trips_config_from_dict(data: Dict[str, Any]) -> TripsConfig:
    data = dict(data)
    predictor = data.pop("predictor", None)
    return TripsConfig(
        predictor=PredictorConfig(**predictor) if predictor
        else PredictorConfig(),
        **data)


def baseline_config_to_dict(
        config: Optional[BaselineConfig]) -> Dict[str, Any]:
    return asdict(config if config is not None else BaselineConfig())


def baseline_config_from_dict(data: Dict[str, Any]) -> BaselineConfig:
    return BaselineConfig(**data)


def _freeze_sampling(sampling) -> Optional[tuple]:
    """Normalize a SamplingConfig / dict / tuple-of-pairs / None to the
    hashable sorted-tuple form RunSpec stores."""
    if sampling is None:
        return None
    if hasattr(sampling, "to_dict"):
        sampling = sampling.to_dict()
    return tuple(sorted(dict(sampling).items()))


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation job.

    Build specs through the :meth:`trips` / :meth:`baseline` /
    :meth:`fuzz` constructors — they resolve the config to its full
    field dict and normalize the fields the kind doesn't use, so two specs
    describing the same experiment always hash identically.
    """

    kind: str
    workload: str
    level: str = ""                 # trips only: "hand" | "tcc"
    trace: bool = False             # trips only: collect a critpath trace
    telemetry: bool = False         # trips only: cache a telemetry summary
    size: int = 1                   # trips only: workload size multiplier
    config: Dict[str, Any] = field(default_factory=dict)
    #: trips only: a SamplingConfig dict switches the job to sampled +
    #: checkpointed simulation (see :mod:`repro.sampling`); ``None`` is
    #: ordinary full simulation.  Stored as a plain tuple-of-pairs so the
    #: frozen dataclass stays hashable; read it back with
    #: :meth:`sampling_config`.
    sampling: Any = None
    fingerprint: str = ""

    # -- constructors ----------------------------------------------------
    @classmethod
    def trips(cls, workload: str, level: str = "hand",
              config: Optional[TripsConfig] = None, trace: bool = False,
              telemetry: bool = False, size: int = 1,
              sampling: Optional["SamplingConfig"] = None,
              fingerprint: Optional[str] = None) -> "RunSpec":
        """``sampling`` may be a
        :class:`~repro.sampling.SamplingConfig` (or its dict form);
        ``size`` scales the workload through
        :func:`~repro.workloads.get_workload`."""
        return cls(kind="trips", workload=workload, level=level,
                   trace=trace, telemetry=telemetry, size=int(size),
                   sampling=_freeze_sampling(sampling),
                   config=trips_config_to_dict(config),
                   fingerprint=fingerprint if fingerprint is not None
                   else code_fingerprint())

    def sampling_config(self) -> Optional["SamplingConfig"]:
        """The job's sampling geometry, or ``None`` for full simulation."""
        if self.sampling is None:
            return None
        from ..sampling import SamplingConfig
        return SamplingConfig.from_dict(dict(self.sampling))

    @classmethod
    def baseline(cls, workload: str,
                 config: Optional[BaselineConfig] = None,
                 fingerprint: Optional[str] = None) -> "RunSpec":
        return cls(kind="baseline", workload=workload,
                   config=baseline_config_to_dict(config),
                   fingerprint=fingerprint if fingerprint is not None
                   else code_fingerprint())

    @classmethod
    def fuzz(cls, start: int, count: int,
             gen: Optional[Dict[str, Any]] = None,
             checks: Optional[tuple] = None,
             telemetry_every: int = 4, nuca_every: int = 8,
             fingerprint: Optional[str] = None) -> "RunSpec":
        """One differential-fuzzing shard over seeds [start, start+count).

        The seed range, generator shape, check selection, and sampling
        periods all live in ``config`` and therefore in :attr:`key`, so a
        cached shard result can never be served for a different campaign
        — and the code fingerprint covers :mod:`repro.fuzz` itself.
        """
        from ..fuzz.oracle import ALL_CHECKS
        config: Dict[str, Any] = {
            "start": int(start), "count": int(count),
            "gen": dict(gen or {}),
            "checks": list(checks if checks is not None else ALL_CHECKS),
            "telemetry_every": int(telemetry_every),
            "nuca_every": int(nuca_every),
        }
        return cls(kind="fuzz",
                   workload=f"seeds[{start}:{start + count}]",
                   config=config,
                   fingerprint=fingerprint if fingerprint is not None
                   else code_fingerprint())

    @classmethod
    def selftest(cls, payload: str) -> "RunSpec":
        """Executor-test probe; ``payload`` is ``mode[:arg]`` (see
        :func:`~repro.simlab.executor.execute_spec`)."""
        return cls(kind="selftest", workload=payload,
                   fingerprint=code_fingerprint())

    # -- identity --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "workload": self.workload,
                "level": self.level, "trace": self.trace,
                "telemetry": self.telemetry, "size": self.size,
                "sampling": None if self.sampling is None
                else dict(self.sampling),
                "config": self.config, "fingerprint": self.fingerprint}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        return cls(kind=data["kind"], workload=data["workload"],
                   level=data.get("level", ""),
                   trace=bool(data.get("trace", False)),
                   telemetry=bool(data.get("telemetry", False)),
                   size=int(data.get("size", 1)),
                   sampling=_freeze_sampling(data.get("sampling")),
                   config=dict(data.get("config", {})),
                   fingerprint=data.get("fingerprint", ""))

    @property
    def key(self) -> str:
        """Stable content hash — the cache filename."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    @property
    def label(self) -> str:
        """Short human-readable job name for progress lines."""
        if self.kind == "trips":
            return f"trips:{self.workload}" + \
                (f"x{self.size}" if self.size != 1 else "") + \
                f"@{self.level}" + \
                (" +trace" if self.trace else "") + \
                (" +tel" if self.telemetry else "") + \
                (" +sampled" if self.sampling is not None else "")
        return f"{self.kind}:{self.workload}"

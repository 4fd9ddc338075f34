"""repro.fuzz — a differential fuzzing farm for the whole stack.

Three pieces:

* :mod:`repro.fuzz.gen` — a seeded, deterministic random TIR program
  generator constrained to valid TRIPS block shapes,
* :mod:`repro.fuzz.oracle` — the differential oracle that runs each
  program through every independent execution path (interpreter, both
  compile levels, the SRISC/OOO baseline, the cycle-level simulator, and
  the two cycle-engine tiers ± telemetry ± NUCA) and flags divergences,
* :mod:`repro.fuzz.minimize` / :mod:`repro.fuzz.corpus` — automatic
  failure minimization and the checked-in regression corpus replayed by
  tier-1 (``tests/fuzz/corpus/``).

``python -m repro.fuzz run|minimize|corpus`` is the CLI; long campaigns
shard through :mod:`repro.simlab` (``RunSpec.fuzz``).
"""

from .gen import GenConfig, generate
from .oracle import Divergence, run_case, run_shard

__all__ = ["GenConfig", "generate", "Divergence", "run_case", "run_shard"]

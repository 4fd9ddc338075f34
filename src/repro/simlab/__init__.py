"""simlab: a parallel, cached experiment engine for the repro's sweeps.

Every paper artifact (Table 3, the Section 5.2 traffic studies, the
ablations) is a *sweep* — many independent (workload, code level, config)
simulations.  simlab gives all of them one engine:

* :class:`RunSpec` — a content-hashed job description (workload, level,
  full config, code fingerprint).
* :func:`run_specs` — a scheduler over worker processes it owns, with a
  per-attempt timeout, one retry per job, and deterministic, spec-ordered
  results (``workers=0`` runs serially in-process, with identical output).
* :class:`ResultCache` — JSON records under ``.simlab-cache/`` keyed by
  spec hash; repeated sweeps are pure cache hits, and any source change
  invalidates every key via the code fingerprint.
* ``python -m repro.simlab sweep|status|clear`` — the CLI.

Environment knobs (read by the benchmark sweeps through
:func:`workers_from_env` / :func:`cache_from_env`): ``SIMLAB_WORKERS``
(int; 0 = serial, the default) and ``SIMLAB_CACHE`` (cache directory;
unset = no caching).
"""

from __future__ import annotations

import os
from typing import Optional

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .executor import (
    SimlabError,
    execute_spec,
    resolve_workers,
    run_specs,
)
from .spec import RunSpec, code_fingerprint

__all__ = [
    "DEFAULT_CACHE_DIR", "ResultCache", "RunSpec", "SimlabError",
    "cache_from_env", "code_fingerprint", "execute_spec",
    "resolve_workers", "run_specs", "workers_from_env",
]


def workers_from_env(default: int = 0) -> int:
    """``SIMLAB_WORKERS`` as an int (0 = serial, the tier-1 default)."""
    try:
        return int(os.environ.get("SIMLAB_WORKERS", default))
    except ValueError:
        return default


def cache_from_env() -> Optional[ResultCache]:
    """A cache rooted at ``SIMLAB_CACHE``, or None when unset/empty."""
    root = os.environ.get("SIMLAB_CACHE", "")
    return ResultCache(root) if root else None

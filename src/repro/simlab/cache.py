"""Content-addressed result cache.

One JSON file per completed job under ``.simlab-cache/``, named by the
spec's content hash.  Records are self-describing — they embed the full
spec (config, fingerprint) alongside the result — so ``status`` and
``clear --stale`` can reason about the cache without re-deriving keys,
and a record is never *wrong*, only unreachable (a code or config change
changes the key).

Writes are atomic (temp file + ``os.replace``) so parallel workers and
concurrent sweeps sharing one cache directory never expose a torn record;
a corrupt or truncated file degrades to a cache miss.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

#: bump when the record layout changes; old-schema records become misses.
SCHEMA = 1

#: default cache location, relative to the invoking directory.
DEFAULT_CACHE_DIR = ".simlab-cache"


class ResultCache:
    """Keyed JSON records with hit/miss accounting.

    ``hits`` and ``misses`` count this object's lookups; they are the
    totals ``simlab sweep`` prints.  Fleet counters come from the sweep's
    events (:mod:`repro.metrics.events`), not from the cache.
    """

    def __init__(self, root: os.PathLike = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- lookup ----------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The full record for ``key``, or None (counted as a miss)."""
        try:
            record = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            record = None
        if not isinstance(record, dict) or record.get("schema") != SCHEMA \
                or "result" not in record:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Atomically persist ``record`` (annotated with the schema)."""
        self.root.mkdir(parents=True, exist_ok=True)
        record = dict(record, schema=SCHEMA)
        tmp = self.root / f".{key}.{os.getpid()}.tmp"
        # Key order is preserved, NOT sorted: result dicts round-trip in
        # insertion order, so cached table rows render column-identical
        # to freshly simulated ones.
        tmp.write_text(json.dumps(record))
        os.replace(tmp, self._path(key))

    # -- maintenance -----------------------------------------------------
    def records(self) -> Iterator[Tuple[Path, Dict[str, Any]]]:
        """All readable records, in deterministic (filename) order."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.json")):
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(record, dict):
                yield path, record

    def clear(self, stale_fingerprint: Optional[str] = None) -> int:
        """Delete records; returns the count removed.

        With ``stale_fingerprint`` set, only records whose spec fingerprint
        differs from it (i.e. results from an older simulator) are removed.
        """
        removed = 0
        for path, record in list(self.records()):
            if stale_fingerprint is not None:
                spec = record.get("spec", {})
                if spec.get("fingerprint") == stale_fingerprint:
                    continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def summary(self) -> Dict[str, Any]:
        """The census behind ``simlab status``: entry count, byte size,
        fingerprints, per-suite/per-kind breakdown, entry-age range."""
        entries = 0
        size = 0
        fingerprints: Dict[str, int] = {}
        suites: Dict[str, int] = {}
        kinds: Dict[str, int] = {}
        oldest: Optional[float] = None
        newest: Optional[float] = None
        suite_of = _workload_suites()
        for path, record in self.records():
            entries += 1
            size += path.stat().st_size
            spec = record.get("spec", {})
            fp = spec.get("fingerprint", "?")
            fingerprints[fp] = fingerprints.get(fp, 0) + 1
            kind = spec.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
            suite = suite_of.get(spec.get("workload"), "other")
            suites[suite] = suites.get(suite, 0) + 1
            created = record.get("created")
            if isinstance(created, (int, float)):
                oldest = created if oldest is None else min(oldest,
                                                            created)
                newest = created if newest is None else max(newest,
                                                            created)
        return {"dir": str(self.root), "entries": entries, "bytes": size,
                "fingerprints": fingerprints, "suites": suites,
                "kinds": kinds, "oldest_created": oldest,
                "newest_created": newest}


def _workload_suites() -> Dict[str, str]:
    """workload name -> suite, for the status census (lazy import: the
    registry pulls in every workload module)."""
    from ..workloads.registry import SUITES
    return {name: suite for suite, names in SUITES.items()
            for name in names}

"""simlab command line.

Usage::

    python -m repro.simlab sweep [workload ...] [--workers N] [--json]
                                 [--no-cache] [--cache-dir DIR]
                                 [--no-performance] [--quiet]
    python -m repro.simlab status [--cache-dir DIR]
    python -m repro.simlab clear  [--cache-dir DIR] [--stale]
    python -m repro.simlab watch  [--once] [--interval S]
                                  [--cache-dir DIR] [--events FILE]
    python -m repro.simlab metrics [--prom | --json] [--cache-dir DIR]
                                   [--events FILE]

``sweep`` runs the full Table 3 experiment set (critical-path overheads
plus TRIPS-vs-baseline performance) through the parallel executor with
the content-addressed cache on by default: the first invocation
simulates, every subsequent identical invocation is pure cache hits.
Cached sweeps also append a job-lifecycle event log next to the cache
(``events.jsonl``), which the two observability commands read:
``watch`` is the live terminal dashboard (``--once`` renders a single
frame for CI), ``metrics`` replays the log into the fleet registry and
exposes it in Prometheus text format (``--prom``, the default) or as a
JSON snapshot (``--json``), both with source/host provenance.
``status`` inspects the cache; ``clear`` empties it (``--stale`` keeps
records produced by the current source tree and drops the rest).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..harness.tables import render_table, table3_rows
from ..metrics import FleetMetrics, default_events_path
from ..workloads import workload_names
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .spec import code_fingerprint


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help=f"cache directory (default: "
                             f"{DEFAULT_CACHE_DIR})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.simlab",
        description="Parallel, cached experiment engine for the "
                    "reproduction's sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the Table 3 experiment set")
    sweep.add_argument("workloads", nargs="*", default=None,
                       help="subset of benchmarks (default: all 21)")
    sweep.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes (default: one per CPU; "
                            "0 = serial in-process)")
    sweep.add_argument("--json", action="store_true",
                       help="emit rows as JSON instead of a text table")
    sweep.add_argument("--no-cache", action="store_true",
                       help="always re-simulate; do not touch the cache")
    sweep.add_argument("--no-performance", action="store_true",
                       help="critical-path overheads only (skip the "
                            "baseline comparisons)")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")
    _add_cache_dir(sweep)

    status = sub.add_parser("status", help="inspect the result cache")
    _add_cache_dir(status)

    clear = sub.add_parser("clear", help="delete cached results")
    clear.add_argument("--stale", action="store_true",
                       help="only drop records from older source trees")
    _add_cache_dir(clear)

    watch = sub.add_parser(
        "watch", help="live dashboard over the sweep event log")
    watch.add_argument("--once", action="store_true",
                       help="render a single frame and exit (CI mode)")
    watch.add_argument("--interval", type=float, default=2.0, metavar="S",
                       help="redraw period in seconds (default 2)")
    watch.add_argument("--events", default=None, metavar="FILE",
                       help="event log path (default: "
                            "<cache-dir>/events.jsonl)")
    _add_cache_dir(watch)

    metrics = sub.add_parser(
        "metrics", help="expose fleet metrics from the event log")
    fmt = metrics.add_mutually_exclusive_group()
    fmt.add_argument("--prom", action="store_true",
                     help="Prometheus text format (default)")
    fmt.add_argument("--json", action="store_true",
                     help="JSON snapshot instead of Prometheus text")
    metrics.add_argument("--events", default=None, metavar="FILE",
                         help="event log path (default: "
                              "<cache-dir>/events.jsonl)")
    _add_cache_dir(metrics)

    args = parser.parse_args(argv)
    if args.command == "sweep":
        return _sweep(args)
    if args.command == "status":
        return _status(args)
    if args.command == "watch":
        return _watch(args)
    if args.command == "metrics":
        return _metrics(args)
    return _clear(args)


def _sweep(args) -> int:
    unknown = [name for name in (args.workloads or [])
               if name not in workload_names()]
    if unknown:
        print(f"error: unknown workload(s) {', '.join(unknown)}; "
              f"see 'python -m repro.harness list'", file=sys.stderr)
        return 2
    metrics = None
    if not args.no_cache:
        metrics = FleetMetrics.for_cache_dir(args.cache_dir)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    log = None if args.quiet else \
        (lambda message: print(message, file=sys.stderr))
    start = time.perf_counter()
    rows = table3_rows(args.workloads or None,
                       include_performance=not args.no_performance,
                       workers=args.workers, cache=cache, log=log,
                       metrics=metrics)
    elapsed = time.perf_counter() - start
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(render_table(rows, "Table 3: overheads and performance"))
    if cache is not None:
        counts = metrics.counts()
        faults = ""
        if counts["retries"] or counts["failed"]:
            faults = (f", {counts['retries']} retried "
                      f"({counts['timeouts']} timeout, "
                      f"{counts['crashes']} crash), "
                      f"{counts['failed']} failed")
        print(f"[simlab] {cache.hits + cache.misses} jobs: "
              f"{cache.hits} hits, {cache.misses} misses{faults} in "
              f"{elapsed:.1f}s (cache: {cache.root})", file=sys.stderr)
    else:
        print(f"[simlab] sweep finished in {elapsed:.1f}s (cache off)",
              file=sys.stderr)
    return 0


def _human_bytes(n: int) -> str:
    for unit in ("bytes", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n} bytes" if unit == "bytes" \
                else f"{n:.1f} {unit}"
        n /= 1024
    return f"{n:.1f} GiB"


def _human_age(created, now: float) -> str:
    if created is None:
        return "?"
    seconds = max(0.0, now - created)
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _status(args) -> int:
    cache = ResultCache(args.cache_dir)
    summary = cache.summary()
    current = code_fingerprint()
    stale = sum(count for fp, count in summary["fingerprints"].items()
                if fp != current)
    now = time.time()
    print(f"cache dir:    {summary['dir']}")
    print(f"entries:      {summary['entries']} "
          f"({summary['bytes']} bytes, "
          f"{_human_bytes(summary['bytes'])})")
    print(f"fingerprint:  {current} (current source tree)")
    print(f"stale:        {stale} entries from other source versions")
    if summary["entries"]:
        print(f"age:          oldest "
              f"{_human_age(summary['oldest_created'], now)}, newest "
              f"{_human_age(summary['newest_created'], now)}")
        by_suite = " · ".join(
            f"{suite} {count}" for suite, count
            in sorted(summary["suites"].items(),
                      key=lambda item: (-item[1], item[0])))
        by_kind = " · ".join(
            f"{kind} {count}" for kind, count
            in sorted(summary["kinds"].items(),
                      key=lambda item: (-item[1], item[0])))
        print(f"by suite:     {by_suite}")
        print(f"by kind:      {by_kind}")
    events = default_events_path(args.cache_dir)
    if events.exists():
        print(f"event log:    {events} ({events.stat().st_size} bytes; "
              f"see 'simlab watch' / 'simlab metrics')")
    return 0


def _events_path(args):
    from pathlib import Path
    if args.events is not None:
        return Path(args.events)
    return default_events_path(args.cache_dir)


def _watch(args) -> int:
    from ..metrics.watch import watch
    return watch(_events_path(args), interval=args.interval,
                 once=args.once)


def _metrics(args) -> int:
    from ..metrics import MetricsRegistry
    from ..metrics.events import read_events, replay_into
    from ..metrics.expo import render_json, render_prometheus
    registry = MetricsRegistry()
    path = _events_path(args)
    replay_into(registry, read_events(path))
    summary = ResultCache(args.cache_dir).summary()
    registry.gauge("simlab_cache_entries",
                   "result records in the cache").set(summary["entries"])
    registry.gauge("simlab_cache_bytes",
                   "bytes held by the result cache").set(summary["bytes"])
    if args.json:
        print(json.dumps(render_json(registry), indent=2))
    else:
        sys.stdout.write(render_prometheus(registry))
    return 0


def _clear(args) -> int:
    cache = ResultCache(args.cache_dir)
    removed = cache.clear(
        stale_fingerprint=code_fingerprint() if args.stale else None)
    print(f"removed {removed} cached result(s) from {cache.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

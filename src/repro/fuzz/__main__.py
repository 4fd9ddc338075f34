"""CLI: ``python -m repro.fuzz run|minimize|corpus``.

``run`` drives a seeded campaign, sharded through the simlab executor
(serial by default; ``--workers N`` fans shards over processes, and
``--cache`` reuses simlab's result cache so a repeated campaign on
unchanged code is pure hits).  ``minimize`` re-generates one seed,
shrinks the first failing check to a minimal reproducer, and can save it
as a corpus entry.  ``corpus`` lists or replays the checked-in
regression corpus.

Exit status: 0 when every check passed (or every corpus entry replayed
clean), 1 otherwise — suitable for CI gating.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import CORPUS_DIR, load_corpus, replay_all, save_entry
from .gen import GenConfig, generate
from .minimize import minimize
from .oracle import ALL_CHECKS, Divergence, run_case, run_shard


def _parse_checks(text: str):
    checks = tuple(c.strip() for c in text.split(",") if c.strip())
    for c in checks:
        if c not in ALL_CHECKS:
            raise argparse.ArgumentTypeError(
                f"unknown check {c!r} (choose from {', '.join(ALL_CHECKS)})")
    return checks


def _cmd_run(args) -> int:
    from ..simlab.executor import SimlabError, run_specs
    from ..simlab.spec import RunSpec

    shard_size = max(1, min(args.shard_size, args.n))
    specs = []
    start = args.seed
    remaining = args.n
    while remaining > 0:
        count = min(shard_size, remaining)
        specs.append(RunSpec.fuzz(
            start, count, checks=args.checks,
            telemetry_every=args.telemetry_every,
            nuca_every=args.nuca_every))
        start += count
        remaining -= count

    cache = None
    if args.cache:
        from ..simlab.cache import ResultCache
        cache = ResultCache(args.cache_dir) if args.cache_dir \
            else ResultCache()

    log = (lambda m: print(m, file=sys.stderr)) if args.verbose \
        else (lambda m: None)
    try:
        results = run_specs(specs, workers=args.workers, cache=cache,
                            log=log)
    except SimlabError as exc:
        # the message names the shard and the cause of its last failure
        print(f"error: {exc}", file=sys.stderr)
        return 1

    divergences = []
    cases = 0
    for result in results:
        cases += result["count"]
        divergences.extend(
            Divergence.from_dict(d) for d in result["divergences"])

    if args.json:
        print(json.dumps({
            "seed": args.seed, "n": args.n, "cases": cases,
            "divergences": [d.to_dict() for d in divergences]}, indent=1))
    else:
        for d in divergences:
            print(f"DIVERGENCE {d.program} [{d.stage}] {d.detail}")
        print(f"{cases} programs checked "
              f"({', '.join(args.checks)}): "
              f"{len(divergences)} divergence(s)")
    if divergences and not args.json:
        print("triage: python -m repro.fuzz minimize --seed <seed-hex>",
              file=sys.stderr)
    return 1 if divergences else 0


def _cmd_minimize(args) -> int:
    prog = generate(args.seed, GenConfig())
    found = run_case(prog, checks=args.checks, nuca=args.nuca,
                     telemetry=args.telemetry)
    if not found:
        print(f"seed {args.seed}: no divergence to minimize", file=sys.stderr)
        return 1
    first = found[0]
    print(f"minimizing: [{first.stage}] {first.detail[:120]}",
          file=sys.stderr)

    # The divergence reproduces when the same stage family still fails.
    stage_family = first.stage.split(":")[0]

    def still_fails(candidate) -> bool:
        ds = run_case(candidate, checks=(stage_family,), nuca=args.nuca,
                      telemetry=args.telemetry)
        return bool(ds)

    small = minimize(prog, still_fails)
    from ..tir.serialize import program_to_dict
    print(json.dumps(program_to_dict(small), indent=1))
    if args.save:
        path = save_entry(
            args.save, small,
            reason=f"seed {args.seed}: [{first.stage}] {first.detail[:200]}",
            checks=(stage_family,), nuca=args.nuca, telemetry=args.telemetry)
        print(f"saved corpus entry: {path}", file=sys.stderr)
    return 0


def _cmd_corpus(args) -> int:
    corpus = load_corpus(args.dir)
    if args.action == "list":
        if not corpus:
            print(f"(corpus empty: {args.dir or CORPUS_DIR})")
            return 0
        for name, entry in corpus.items():
            checks = ",".join(entry.get("checks", []))
            print(f"{name:40s} [{checks}] {entry.get('reason', '')[:90]}")
        return 0
    # replay
    failures = 0
    for name, divergences in replay_all(args.dir).items():
        if divergences:
            failures += 1
            for d in divergences:
                print(f"REGRESSION {name} [{d.stage}] {d.detail}")
        else:
            print(f"ok {name}")
    print(f"{len(corpus)} corpus entries, {failures} regression(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential fuzzing farm (see README: Fuzzing)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded campaign")
    run.add_argument("--seed", type=int, default=0,
                     help="first generator seed (default 0)")
    run.add_argument("--n", type=int, default=200,
                     help="number of programs (default 200)")
    run.add_argument("--checks", type=_parse_checks,
                     default=ALL_CHECKS, metavar="arch,engines,asm,ffwd",
                     help="comma-separated check families (default: all)")
    run.add_argument("--shard-size", type=int, default=25,
                     help="seeds per simlab shard (default 25)")
    run.add_argument("--workers", type=int, default=0,
                     help="shard worker processes (0 = serial in-process)")
    run.add_argument("--telemetry-every", type=int, default=4, metavar="K",
                     help="run the telemetry engine variant on every Kth "
                          "seed (0 disables; default 4)")
    run.add_argument("--nuca-every", type=int, default=8, metavar="K",
                     help="run the NUCA engine variant on every Kth seed "
                          "(0 disables; default 8)")
    run.add_argument("--cache", action="store_true",
                     help="reuse the simlab result cache for shards")
    run.add_argument("--cache-dir", default=None,
                     help="simlab cache directory (with --cache)")
    run.add_argument("--json", action="store_true",
                     help="machine-readable report on stdout")
    run.add_argument("--verbose", action="store_true",
                     help="shard progress on stderr")
    run.set_defaults(func=_cmd_run)

    mini = sub.add_parser("minimize",
                          help="minimize one seed's divergence")
    mini.add_argument("--seed", type=int, required=True)
    mini.add_argument("--checks", type=_parse_checks, default=ALL_CHECKS)
    mini.add_argument("--nuca", action="store_true")
    mini.add_argument("--telemetry", action="store_true")
    mini.add_argument("--save", metavar="NAME", default=None,
                      help="save the minimized program as a corpus entry")
    mini.set_defaults(func=_cmd_minimize)

    corpus = sub.add_parser("corpus",
                            help="list or replay the regression corpus")
    corpus.add_argument("action", choices=("list", "replay"))
    corpus.add_argument("--dir", default=None,
                        help=f"corpus directory (default {CORPUS_DIR})")
    corpus.set_defaults(func=_cmd_corpus)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

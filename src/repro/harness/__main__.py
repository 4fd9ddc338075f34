"""Command-line entry point: regenerate the paper's tables.

Usage::

    python -m repro.harness table1
    python -m repro.harness table2
    python -m repro.harness table3 [workload ...] [--json] [--workers N]
                                   [--cache DIR]
    python -m repro.harness floorplan
    python -m repro.harness run <workload> [--level hand|tcc] [--json]
                                [--size N] [--sample [--interval B]
                                [--warmup B] [--measure B] [--phases]
                                [--phase-windows N] [--max-phases K]
                                [--warm-horizon B]]
    python -m repro.harness sbench [--smoke] [--out FILE]
    python -m repro.harness inspect <workload> [--level hand|tcc]
                                    [--mem l2perfect|nuca]
                                    [--perfetto out.json] [--json]
    python -m repro.harness diff <specA> <specB> [--cache DIR]
                                 [--workers N] [--top N] [--json]

``inspect`` runs one workload with the :mod:`repro.telemetry` probe
layer enabled and prints the per-tile utilization heatmap and
stall-attribution table; ``--perfetto`` additionally exports a
Chrome/Perfetto trace-event timeline.

``diff`` compares two telemetry runs (served from the simlab cache,
simulated on a miss) and attributes the cycle delta to the stall
taxonomy, per-tile shifts, and per-link traffic movers.  Specs use the
``workload[@level][/mem][+flag|-flag ...]`` grammar — e.g.
``harness diff 'vadd@hand/l2perfect' 'vadd@hand/nuca'`` asks where the
NUCA hierarchy spends its extra cycles (see :mod:`repro.metrics.diff`).

``run --sample`` switches to sampled + checkpointed simulation
(:mod:`repro.sampling`): architectural results stay exact, cycles/IPC
become estimates with 95% confidence intervals, and ``--size`` scales the
input far past what full simulation can afford.  ``sbench`` measures the
sampled-vs-full error and effective speedup on scaled workloads and
writes ``BENCH_sampling.json``.

``table3`` submits its per-benchmark jobs through :mod:`repro.simlab`;
``--workers``/``--cache`` opt into parallel execution and result caching
(see ``python -m repro.simlab`` for the full sweep engine).  ``--json``
emits machine-consumable rows instead of the fixed-width table.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..analysis.floorplan import render_floorplan
from ..simlab import ResultCache
from ..workloads import workload_names
from .runner import run_trips_workload
from .tables import render_table, table1_rows, table2_rows, table3_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness",
        description="Regenerate the TRIPS paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table 1: tile specifications")
    sub.add_parser("table2", help="Table 2: control and data networks")
    t3 = sub.add_parser("table3", help="Table 3: overheads + performance")
    t3.add_argument("workloads", nargs="*", default=None,
                    help="subset of benchmarks (default: all 21)")
    t3.add_argument("--json", action="store_true",
                    help="emit rows as JSON instead of a text table")
    t3.add_argument("--workers", type=int, default=0, metavar="N",
                    help="simlab worker processes (0 = serial, default)")
    t3.add_argument("--cache", default=None, metavar="DIR",
                    help="simlab result-cache directory (default: off)")
    sub.add_parser("floorplan", help="Figure 6: chip floorplan")
    sub.add_parser("list", help="list the benchmark suite")
    bench_p = sub.add_parser(
        "bench", help="engine throughput: fast path vs. escape hatch")
    bench_p.add_argument("workloads", nargs="*", default=None,
                         help="subset of benchmarks (default: Table 3 sweep)")
    bench_p.add_argument("--smoke", action="store_true",
                         help="three-workload CI subset")
    bench_p.add_argument("--repeat", type=int, default=2, metavar="N",
                         help="best-of-N timing per engine (default 2)")
    bench_p.add_argument("--out", default="BENCH_engine.json", metavar="FILE",
                         help="JSON report path (default BENCH_engine.json)")
    bench_p.add_argument("--json", action="store_true",
                         help="emit the report on stdout as well")
    prof_p = sub.add_parser(
        "profile", help="cProfile the simulation loop of one workload")
    prof_p.add_argument("workload")
    prof_p.add_argument("--level", default="tcc", choices=["tcc", "hand"])
    prof_p.add_argument("--mem", default="l2perfect",
                        choices=["l2perfect", "nuca"],
                        help="secondary memory model (default l2perfect)")
    prof_p.add_argument("--top", type=int, default=25, metavar="N",
                        help="functions per table (default 25)")
    prof_p.add_argument("--slow", action="store_true",
                        help="profile the full-scan engine instead")
    prof_p.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"])
    run_p = sub.add_parser("run", help="run one workload on tsim-proc")
    run_p.add_argument("workload")
    run_p.add_argument("--level", default="hand", choices=["tcc", "hand"])
    run_p.add_argument("--size", type=int, default=1, metavar="N",
                       help="input-size multiplier for scalable workloads")
    run_p.add_argument("--sample", action="store_true",
                       help="sampled + checkpointed simulation: exact "
                       "architectural results, cycle estimates with 95%% "
                       "confidence intervals (see repro.sampling)")
    run_p.add_argument("--interval", type=int, default=2000, metavar="B",
                       help="blocks between measurement windows "
                       "(default 2000)")
    run_p.add_argument("--warmup", type=int, default=150, metavar="B",
                       help="discarded detailed warmup per window "
                       "(default 150)")
    run_p.add_argument("--measure", type=int, default=300, metavar="B",
                       help="measured blocks per window (default 300)")
    run_p.add_argument("--phases", action="store_true",
                       help="SimPoint-style phase clustering: pick "
                       "windows by BBV similarity instead of stratified "
                       "stride (see repro.sampling.phases)")
    run_p.add_argument("--phase-windows", type=int, default=12,
                       metavar="N", help="target window count under "
                       "--phases (default 12)")
    run_p.add_argument("--max-phases", type=int, default=8, metavar="K",
                       help="k-means cluster ceiling under --phases "
                       "(default 8)")
    run_p.add_argument("--warm-horizon", type=int, default=None,
                       metavar="B", help="bound functional warming to "
                       "the last B blocks before each window (default: "
                       "warm continuously)")
    run_p.add_argument("--json", action="store_true",
                       help="emit the full stats record as JSON")
    sb_p = sub.add_parser(
        "sbench", help="sampled vs. full simulation on scaled workloads")
    sb_p.add_argument("--smoke", action="store_true",
                      help="~10x smaller sizes for CI")
    sb_p.add_argument("--out", default="BENCH_sampling.json", metavar="FILE",
                      help="JSON report path (default BENCH_sampling.json)")
    sb_p.add_argument("--json", action="store_true",
                      help="emit the report on stdout as well")
    ins_p = sub.add_parser(
        "inspect", help="run one workload with telemetry and report")
    ins_p.add_argument("workload")
    ins_p.add_argument("--level", default="hand", choices=["tcc", "hand"])
    ins_p.add_argument("--mem", default="l2perfect",
                       choices=["l2perfect", "nuca"],
                       help="secondary memory model (default l2perfect)")
    ins_p.add_argument("--perfetto", default=None, metavar="FILE",
                       help="also export a Perfetto trace-event JSON")
    ins_p.add_argument("--json", action="store_true",
                       help="emit the telemetry summary as JSON")
    diff_p = sub.add_parser(
        "diff", help="attribute the cycle delta between two configs")
    diff_p.add_argument("spec_a", metavar="specA",
                        help="baseline: workload[@level][/mem][±flag...]")
    diff_p.add_argument("spec_b", metavar="specB",
                        help="candidate, same grammar")
    diff_p.add_argument("--cache", default=None, metavar="DIR",
                        help="simlab result-cache directory (default: "
                             "the simlab default cache)")
    diff_p.add_argument("--workers", type=int, default=0, metavar="N",
                        help="simlab worker processes (0 = serial)")
    diff_p.add_argument("--top", type=int, default=8, metavar="N",
                        help="rows per movers table (default 8)")
    diff_p.add_argument("--json", action="store_true",
                        help="emit the attribution report as JSON")

    args = parser.parse_args(argv)
    if args.command == "table1":
        print(render_table(table1_rows(), "Table 1: TRIPS Tile Specifications"))
    elif args.command == "table2":
        print(render_table(table2_rows(),
                           "Table 2: TRIPS Control and Data Networks"))
    elif args.command == "table3":
        names = args.workloads or None
        cache = ResultCache(args.cache) if args.cache else None
        rows = table3_rows(names, workers=args.workers, cache=cache,
                           log=lambda message: print(message,
                                                     file=sys.stderr))
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(render_table(rows, "Table 3: overheads and performance"))
    elif args.command == "bench":
        from .bench import run_bench
        report = run_bench(smoke=args.smoke, repeat=args.repeat,
                           workloads=args.workloads or None, out=args.out,
                           log=lambda message: print(message,
                                                     file=sys.stderr))
        if args.json:
            print(json.dumps(report, indent=2))
        if not report["equivalent"]:
            return 1
    elif args.command == "profile":
        from .profile import profile_workload
        print(profile_workload(args.workload, level=args.level,
                               mem=args.mem, top=args.top,
                               fast_path=False if args.slow else None,
                               sort=args.sort))
    elif args.command == "floorplan":
        print(render_floorplan())
    elif args.command == "list":
        for name in workload_names():
            print(name)
    elif args.command == "run" and args.sample:
        from ..sampling import SamplingConfig, run_sampled_workload
        sampling = SamplingConfig(interval_blocks=args.interval,
                                  warmup_blocks=args.warmup,
                                  measure_blocks=args.measure,
                                  clustering=args.phases,
                                  phase_windows=args.phase_windows,
                                  max_phases=args.max_phases,
                                  warm_horizon=args.warm_horizon)
        run = run_sampled_workload(args.workload, level=args.level,
                                   sampling=sampling, size=args.size)
        s = run.sampled
        if args.json:
            print(json.dumps({"name": run.name, "level": run.level,
                              "size": args.size,
                              "sampling": sampling.to_dict(),
                              "sampled": s.to_dict()}, indent=2))
        else:
            ci_pct = 100 * s.cycles_ci / s.cycles_est if s.cycles_est \
                else float("inf")
            print(f"{run.name} @ {args.level} (sampled): "
                  f"{s.cycles_est:.0f} ± {s.cycles_ci:.0f} cycles "
                  f"(95% CI ±{ci_pct:.2f}%), "
                  f"IPC {s.ipc_est:.2f} ± {s.ipc_ci:.2f}, "
                  f"{s.blocks_total} blocks")
            print(f"  {s.windows} realized windows, "
                  f"{s.measured_blocks} measured blocks "
                  f"({100 * s.coverage:.2f}% cycle-accurate coverage)"
                  + (f", warm horizon {sampling.warm_horizon} blocks"
                     if sampling.warm_horizon is not None else ""))
            if s.phases:
                windows_by_phase = {}
                for detail in s.window_detail:
                    phase = detail.get("phase", 0)
                    windows_by_phase[phase] = \
                        windows_by_phase.get(phase, 0) + 1
                parts = [f"p{c} {100 * w:.1f}%"
                         f"×{windows_by_phase.get(c, 0)}"
                         for c, w in enumerate(s.phase_weights)]
                print(f"  {s.phases} phases "
                      f"(weight×windows): {', '.join(parts)}")
    elif args.command == "run":
        run = run_trips_workload(args.workload, level=args.level,
                                 size=args.size)
        if args.json:
            print(json.dumps({"name": run.name, "level": run.level,
                              "cycles": run.cycles,
                              "ipc": round(run.ipc, 4),
                              "stats": run.stats.to_dict()}, indent=2))
        else:
            print(f"{run.name} @ {args.level}: {run.cycles} cycles, "
                  f"IPC {run.ipc:.2f}, "
                  f"{run.stats.blocks_committed} blocks committed, "
                  f"{run.stats.blocks_flushed} flushed "
                  f"({run.stats.flushes_mispredict} mispredict / "
                  f"{run.stats.flushes_violation} violation)")
    elif args.command == "sbench":
        from .sbench import run_sampling_bench
        report = run_sampling_bench(
            smoke=args.smoke, out=args.out,
            log=lambda message: print(message, file=sys.stderr))
        if args.json:
            print(json.dumps(report, indent=2))
        if not args.smoke and not report["meets_targets"]:
            return 1
    elif args.command == "inspect":
        from ..telemetry.perfetto import export_perfetto
        from ..telemetry.report import render_report
        from ..uarch.config import TripsConfig
        config = TripsConfig(perfect_l2=(args.mem != "nuca"))
        run = run_trips_workload(args.workload, level=args.level,
                                 config=config, telemetry=True)
        summary = run.proc.tel.summary()
        if args.json:
            print(json.dumps(summary.to_dict(), indent=2))
        else:
            title = (f"{args.workload} @ {args.level} "
                     f"(mem={args.mem}, IPC {run.ipc:.2f})")
            print(render_report(summary, title=title))
        if args.perfetto:
            doc = export_perfetto(run.proc.tel, args.perfetto)
            print(f"wrote {args.perfetto} "
                  f"({len(doc['traceEvents'])} trace events)",
                  file=sys.stderr)
    elif args.command == "diff":
        from ..metrics.diff import DiffError, diff_specs, render_diff
        from ..simlab.cache import DEFAULT_CACHE_DIR
        cache = ResultCache(args.cache or DEFAULT_CACHE_DIR)
        try:
            report = diff_specs(
                args.spec_a, args.spec_b, cache=cache,
                workers=args.workers,
                log=lambda message: print(message, file=sys.stderr))
        except DiffError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(render_diff(report, top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())

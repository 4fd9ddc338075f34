"""Run the benchmark: ``python3 perfbench/run.py`` or ``python -m perfbench``.

Runs each requested workload in fresh child processes, one at a time
(see :mod:`perfbench.child`), so set-up time and peak memory belong to
that workload alone:

* untraced runs first start :data:`SETUP_SAMPLES` set-up-only children;
  ``setup_s`` is the median set-up time over those and the measuring
  child, each timed from process start to the child's ready line;
* ``peak_rss_mb`` is the measuring child's peak resident set, its own
  worker processes included (``wait4`` rusage);
* with ``--trace 1`` the child wraps every layer and reports per-layer
  metrics instead (tracing overhead is the traced minus the untraced
  ``sweep_s``).

Every result is written to ``--out`` (default ``.perfbench/``) as one
JSON file, the input of ``perfbench/compare.py``.  The last line of
standard output is the result in the form ``BENCHMARK.json`` asks for:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics untraced and the per-layer metrics traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.cases import WORKLOADS  # noqa: E402
from perfbench.child import READY  # noqa: E402

#: set-up-only children started before each untraced run
SETUP_SAMPLES = 4
#: every run must end within this many seconds, children included
RUN_LIMIT_S = 170.0
DEFAULT_OUT = ROOT / ".perfbench"


class ChildError(RuntimeError):
    """A child process failed or printed no result."""


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child(args, deadline: float, setup_only: bool = False) -> dict:
    """Run one child; return its timings, peak RSS and parsed output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "perfbench.child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(args.out)]
    cmd += ["--trace"] if args.trace else []
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--setup-only"] if setup_only else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    # the whole process group goes: the child and any simlab workers
    killer = threading.Timer(max(0.0, deadline - time.monotonic()),
                             _kill_group, (proc.pid,))
    killer.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == READY:
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = killer.finished.is_set()
        killer.cancel()
        _reap_group(proc.pid)
    if proc.returncode != 0 or ready is None:
        why = (f"was killed after {wall:.0f} s, at the run's time limit"
               if timed_out else f"exited with {proc.returncode}")
        raise ChildError(f"{args.workload}: child {why} "
                         f"(see its stderr above)")
    out = {"setup_s": ready, "wall_s": wall,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if not setup_only:
        try:
            out["result"] = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise ChildError(f"{args.workload}: child printed no result")
    return out


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Wait (briefly) until no process of the child's group is left."""
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    _kill_group(pgid)


def run_workload(args, deadline: float) -> dict:
    """Set-up samples, then the measuring child; returns the result."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(_child(args, deadline, setup_only=True)["setup_s"])
    run = _child(args, deadline)
    setups.append(run["setup_s"])
    result = run["result"]
    result["seconds"] = args.seconds
    result["trace"] = bool(args.trace)
    result["child_wall_s"] = run["wall_s"]
    result["setup_samples_s"] = setups
    metrics = result["metrics"]
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": run["peak_rss_mb"], "unit": "MB"}
    if args.trace:
        # the spans' coverage of the child's wall clock: layer rows plus
        # ``other`` against the process lifetime measured from outside
        result["layers"]["trace_closure"] = {
            "value": sum(result["rows"].values()) / run["wall_s"],
            "unit": "ratio"}
    result["provenance"] = {
        "git_rev": git_rev(), "python": platform.python_version(),
        "platform": platform.platform(), "host": platform.node(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    args.out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = (f"{args.workload}-seed{args.seed}"
            f"{'-trace' if args.trace else ''}-{stamp}-{os.getpid()}.json")
    (args.out / name).write_text(json.dumps(result) + "\n")
    return result


def result_line(result: dict, spec: dict, trace: bool) -> dict:
    """The last-line result: BENCHMARK.json's metrics, by name and unit."""
    source = result["layers"] if trace else result["metrics"]
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        metric = source.get(entry["name"])
        if metric is None:
            raise ChildError(f"the result has no {entry['name']!r}")
        if metric["unit"] != entry["unit"]:
            raise ChildError(f"{entry['name']}: unit {metric['unit']!r}, "
                             f"BENCHMARK.json says {entry['unit']!r}")
        metrics[entry["name"]] = {"value": metric["value"],
                                  "unit": entry["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="The simulator benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per run (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run (--trace or "
                        "--trace 1)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for result and trace files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.out = args.out.resolve()

    ok = True
    for workload in ([args.workload] if args.workload else WORKLOADS):
        args.workload = workload
        try:
            result = run_workload(args, time.monotonic() + RUN_LIMIT_S)
            line = result_line(result, spec, bool(args.trace))
        except ChildError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        for failure in result["failures"]:
            print(f"FAILED {workload} {failure}", file=sys.stderr)
        table = result["layers"] if args.trace else result["metrics"]
        for name, metric in table.items():
            print(f"{workload:17s} {name:36s} {metric['value']:14.6g} "
                  f"{metric['unit']}")
        print(json.dumps(line), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

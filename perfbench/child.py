"""One workload in one fresh process: ``python -m perfbench.child``.

``run.py`` starts this with the checkout's ``src/`` on ``PYTHONPATH``.
The child prints :data:`READY` once set-up is done (``run.py`` times
set-up from process start to that line), runs the workload unless
``--setup-only``, and prints its result as one JSON line.  With
``--trace`` the layers are wrapped (:mod:`perfbench.trace`), per-layer
metrics join the result, and the spans go to ``OUT/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
from contextlib import ExitStack
from pathlib import Path

from .cases import WORKLOADS
from .trace import Instrumentation, Tracer, layer_metrics, load_jobs, wall_rows
from .workloads import ABSENT_LAYER_DEFAULTS, BENCHES

READY = "perfbench-ready"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.child")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    root = tracer.begin("perfbench") if tracer is not None else None
    # private scratch space: the fuzz cache, event logs, job spans
    work = args.out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = BENCHES[args.workload](args.workload, args.seed, args.smoke,
                                       work, tracer=tracer)
        with ExitStack() as stack:
            if tracer is not None:
                # simlab's workers inherit the patches only when forked
                if multiprocessing.get_start_method() != "fork":
                    raise SystemExit("perfbench: --trace needs the 'fork' "
                                     "start method for simlab's workers")
                setup = tracer.begin("perfbench.setup")
                stack.enter_context(Instrumentation(tracer, work))
                bench.setup()
                tracer.end(setup)
            else:
                bench.setup()
            print(READY, flush=True)
            if args.setup_only:
                return 0
            bench.run(args.seconds)
        result = bench.result()
        if tracer is not None:
            tracer.end(root)
            jobs = load_jobs(work)
            layers = dict(ABSENT_LAYER_DEFAULTS)
            layers.update(layer_metrics(tracer, jobs))
            layers.update(bench.layer_extras())
            result["layers"] = {name: {"value": value, "unit": unit}
                                for name, (value, unit) in layers.items()}
            result["rows"] = wall_rows(tracer.spans)
            trace_path = args.out / f"trace-{args.workload}.json"
            trace_path.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "processes": [tracer.to_dict()] + jobs}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of perfbench results: ``python perfbench/compare.py A B``.

``A`` (the reference, e.g. the parent commit) and ``B`` (the change) are
each a directory of result files written by ``run.py`` (or one file).
For every (workload, end-to-end metric) the table shows both sides'
medians and quartiles over their untraced runs, and a verdict:

* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's spread (quartile distance / median) is
  wider than the bound, so the data cannot tell, unless every run of B
  beats every run of A (``better``), or every run of B is worse than
  every run of A and the medians differ by more than the bound
  (``REGRESSION``);
* ``ok`` otherwise.

Bounds come from ``BENCHMARK.json`` for the metrics it lists and
from :data:`BOUNDS` for the workload-specific ones.  The comparison also
fails when ``error_rate`` rises, or when a value fixed by the simulated
work (pinned digests, cycles, sampled estimates, the traced ``uarch.*``
and ``mem.*`` counts) differs between runs of the same workload and
seed.  Traced counts of host work (compile calls, checkpoints taken,
...) may move; each move is printed with its direction.  It closes
with each set's tracing overhead and the memory system's share of
``uarch.run_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]

#: workload-specific end-to-end metrics: (better, bound, relative?)
BOUNDS = {
    "kcycles_per_s": ("higher", 0.10, True),
    "sampled_kblocks_per_s": ("higher", 0.10, True),
    "fuzz_seeds_per_s": ("higher", 0.10, True),
    "sampled_max_err_pct": ("lower", 0.10, False),
    "sampled_ci_coverage": ("higher", 0.0, False),
    "error_rate": ("lower", 0.0, False),
}


def load(path: Path) -> List[dict]:
    """The result files in ``path`` (span files are skipped)."""
    results = []
    for file in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        data = json.loads(file.read_text())
        if isinstance(data, dict) and "metrics" in data:
            results.append(data)
    return results


def _spec(spec_path: Path = ROOT / "BENCHMARK.json") -> dict:
    return json.loads(spec_path.read_text())


def bounds(spec: dict) -> Dict[str, tuple]:
    table = {entry["name"]: (entry["better"], entry["bound"], True)
             for entry in spec["end_to_end"]}
    table.update(BOUNDS)
    return table


def summary(values: List[float]) -> tuple:
    """(median, first quartile, third quartile) as statistics gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: List[float]) -> float:
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float,
            relative: bool) -> tuple:
    """(signed worsening of B against A, verdict word)."""
    ma, mb = summary(a)[0], summary(b)[0]
    worse = (mb - ma) if better == "lower" else (ma - mb)
    if relative:
        worse = worse / abs(ma) if ma else 0.0
        beats = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        loses = (min(b) > max(a)) if better == "lower" else (max(b) < min(a))
        if beats:
            return worse, "better"
        if max(spread(a), spread(b)) > bound and not (loses and worse > bound):
            return worse, "unresolved"
    return worse, ("REGRESSION" if worse > bound + 1e-12 else "ok")


def _by_workload(results: List[dict], trace: bool) -> Dict[str, List[dict]]:
    groups: Dict[str, List[dict]] = {}
    for result in results:
        if bool(result.get("trace")) == trace:
            groups.setdefault(result["workload"], []).append(result)
    return groups


#: traced counts that are functions of the simulated work alone; other
#: traced counts measure host work, which a change may well reduce
EXACT_LAYERS = ("uarch.", "mem.")


def _exact(result: dict) -> dict:
    """Everything in a result that must repeat for its workload and seed."""
    values = dict(result.get("counts", {}))
    for name, metric in result.get("layers", {}).items():
        if metric["unit"] == "count" and name.startswith(EXACT_LAYERS):
            values[name] = metric["value"]
    return values


def count_changes(results: List[dict]) -> List[str]:
    """Exact values that differ between runs of one workload and seed."""
    seen: Dict[tuple, dict] = {}
    problems = []
    for result in results:
        key = (result["workload"], result["seed"], result.get("smoke"))
        for name, value in _exact(result).items():
            first = seen.setdefault(key, {}).setdefault(name, value)
            if first != value:
                problems.append(f"{key[0]} seed {key[1]}: {name} "
                                f"{first!r} != {value!r}")
    return problems


def host_count_moves(a: List[dict], b: List[dict], spec: dict) -> List[str]:
    """Traced host-work counts whose median moved, with the direction
    ``BENCHMARK.json`` calls better."""
    better = {entry["name"]: entry["better"] for entry in spec["per_layer"]}
    groups_a, groups_b = _by_workload(a, True), _by_workload(b, True)
    moves = []
    for workload in sorted(set(groups_a) & set(groups_b)):
        for name, metric in groups_a[workload][0]["layers"].items():
            if metric["unit"] != "count" or name.startswith(EXACT_LAYERS) \
                    or name not in better:
                continue
            ma = summary([r["layers"][name]["value"]
                          for r in groups_a[workload]])[0]
            mb = summary([r["layers"][name]["value"]
                          for r in groups_b[workload]])[0]
            if ma != mb:
                good = (mb < ma) == (better[name] == "lower")
                moves.append(f"{workload} {name}: {ma:g} -> {mb:g} "
                             f"({'better' if good else 'worse'})")
    return moves


def side_notes(label: str, results: List[dict]) -> List[str]:
    """Tracing overhead per workload and the memory system's share."""
    notes = []
    plain, traced = _by_workload(results, False), _by_workload(results, True)
    for workload in sorted(set(plain) & set(traced)):
        untraced = summary([r["metrics"]["sweep_s"]["value"]
                            for r in plain[workload]])[0]
        with_trace = summary([r["metrics"]["sweep_s"]["value"]
                              for r in traced[workload]])[0]
        notes.append(f"{label} tracing overhead {workload}: "
                     f"{100 * (with_trace / untraced - 1):+.1f}% sweep_s")
    run_s = {w: summary([r["layers"]["uarch.run_s"]["value"]
                         for r in rs])[0] for w, rs in traced.items()}
    if "table3-l2perfect" in run_s and "table3-nuca" in run_s:
        share = 1 - run_s["table3-l2perfect"] / run_s["table3-nuca"]
        notes.append(f"{label} mem.run_share: {100 * share:.1f}% of "
                     f"table3-nuca uarch.run_s")
    return notes


def _fmt(values: List[float]) -> str:
    median, q1, q3 = summary(values)
    return f"{median:11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(a: List[dict], b: List[dict], spec: dict) -> int:
    table = bounds(spec)
    bad = 0
    groups_a, groups_b = _by_workload(a, False), _by_workload(b, False)
    print(f"{'workload':17s} {'metric':22s} {'A median [q1, q3]':>36s} "
          f"{'B median [q1, q3]':>36s} {'worse':>8s}  verdict")
    for workload in sorted(set(groups_a) | set(groups_b)):
        ra, rb = groups_a.get(workload, []), groups_b.get(workload, [])
        if not ra or not rb:
            print(f"{workload:17s} (only in {'A' if ra else 'B'})")
            continue
        names = [n for n in table if n in ra[0]["metrics"]
                 and n in rb[0]["metrics"]]
        for name in names:
            va = [r["metrics"][name]["value"] for r in ra]
            vb = [r["metrics"][name]["value"] for r in rb]
            better, bound, relative = table[name]
            worse, word = verdict(va, vb, better, bound, relative)
            if name == "error_rate" and max(vb) > max(va):
                word = "REGRESSION"
            bad += word == "REGRESSION"
            shown = f"{100 * worse:+7.1f}%" if relative else f"{worse:+8.3g}"
            print(f"{workload:17s} {name:22s} {_fmt(va):>36s} "
                  f"{_fmt(vb):>36s} {shown}  {word}")
    changes = count_changes(a + b)
    for problem in changes:
        print(f"COUNT CHANGED {problem}")
    for move in host_count_moves(a, b, spec):
        print(f"host count moved {move}")
    for note in side_notes("A", a) + side_notes("B", b):
        print(note)
    return 1 if bad or changes else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python perfbench/compare.py",
        description="Medians, quartiles and bound checks for two sets of "
        "perfbench results (A = reference, B = change).")
    parser.add_argument("sets", nargs=2, type=Path, metavar="SET",
                        help="A B: each a directory of result files, or "
                        "one result file")
    args = parser.parse_args(argv)
    loaded = [load(path) for path in args.sets]
    if not all(loaded):
        parser.error("a set holds no result files")
    return compare(loaded[0], loaded[1], _spec())


if __name__ == "__main__":
    sys.exit(main())

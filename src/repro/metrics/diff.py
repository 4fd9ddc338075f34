"""Cross-run telemetry diff: *where* a config change spent its cycles.

``python -m repro.harness diff <specA> <specB>`` pulls two telemetry
runs through simlab (served from the content-addressed cache, simulated
on a miss) and attributes the cycle delta to the PR-4 stall taxonomy,
per-tile busy/idle shifts, and per-link OPN/OCN traffic movers.

Spec grammar (everything but the workload is optional)::

    workload[@level][/mem][(+|-)flag ...]

    qr@hand/nuca              qr, hand-optimized code, NUCA memory
    sha@tcc                   sha, tcc code, perfect L2 (the default)
    vadd@hand-fast_path       vadd on the full-scan engine (the control
                              pair with ``vadd@hand``: it attributes 0)

``level`` is ``hand``/``tcc``; ``mem`` is ``l2perfect``/``nuca``
(mapping to ``TripsConfig.perfect_l2``); ``+flag``/``-flag`` toggles
any boolean :class:`~repro.uarch.config.TripsConfig` field.

**The attribution invariant.**  Telemetry charges every cycle of every
tile to exactly one of eight states (busy, six stall categories, idle),
so for each run::

    sum over states of tile-cycles == n_tiles * ProcStats.cycles

Subtracting the two runs' per-state tile-cycle totals therefore yields
category deltas that sum *exactly* — in integer tile-cycles — to
``n_tiles * (cycles_B - cycles_A)``.  :func:`diff_runs` checks this and
refuses to produce a table that does not add up.  The rendered
``Δ cycles`` column divides by ``n_tiles`` and rounds for readability;
the *residual* row is that rounding, and only that rounding (bounded by
half a unit-in-last-place per category — see EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, Dict, List, Optional, Tuple

from ..simlab import ResultCache, RunSpec, run_specs
from ..telemetry.recorder import (
    BUSY,
    IDLE,
    STALL_STATES,
    TelemetrySummary,
)
from ..uarch.config import TripsConfig

#: attribution categories, in report order
CATEGORIES = (BUSY,) + STALL_STATES + (IDLE,)

_SPEC_RE = re.compile(
    r"^(?P<workload>[A-Za-z0-9_]+)"
    r"(?:@(?P<level>hand|tcc))?"
    r"(?:/(?P<mem>l2perfect|nuca))?"
    r"(?P<flags>(?:[+-][A-Za-z_][A-Za-z0-9_]*)*)$")

_BOOL_FIELDS = {f.name for f in dataclasses.fields(TripsConfig)
                if f.type == "bool" or isinstance(f.default, bool)}


class DiffError(ValueError):
    """A diff spec is malformed or the two runs are not comparable."""


@dataclasses.dataclass(frozen=True)
class DiffSpec:
    """One side of a diff: workload, code level, memory model, toggles."""

    workload: str
    level: str = "hand"
    mem: str = "l2perfect"
    toggles: Tuple[Tuple[str, bool], ...] = ()

    @property
    def label(self) -> str:
        flags = "".join(("+" if on else "-") + name
                        for name, on in self.toggles)
        return f"{self.workload}@{self.level}/{self.mem}{flags}"

    def config(self) -> TripsConfig:
        overrides: Dict[str, bool] = dict(self.toggles)
        return TripsConfig(perfect_l2=(self.mem != "nuca"), **overrides)


def parse_spec(text: str) -> DiffSpec:
    """Parse the ``workload[@level][/mem][±flag...]`` grammar."""
    match = _SPEC_RE.match(text.strip())
    if not match:
        raise DiffError(
            f"bad diff spec {text!r} "
            f"(expected workload[@level][/mem][+flag|-flag ...])")
    from ..workloads import workload_names
    workload = match.group("workload")
    if workload not in workload_names():
        raise DiffError(f"unknown workload {workload!r} "
                        f"(see 'python -m repro.harness list')")
    toggles: List[Tuple[str, bool]] = []
    flags = match.group("flags") or ""
    for sign, name in re.findall(r"([+-])([A-Za-z_][A-Za-z0-9_]*)", flags):
        if name not in _BOOL_FIELDS:
            raise DiffError(
                f"{text!r}: {name!r} is not a boolean TripsConfig field "
                f"(have: {', '.join(sorted(_BOOL_FIELDS))})")
        toggles.append((name, sign == "+"))
    return DiffSpec(workload=workload,
                    level=match.group("level") or "hand",
                    mem=match.group("mem") or "l2perfect",
                    toggles=tuple(toggles))


def fetch_runs(spec_a: DiffSpec, spec_b: DiffSpec,
               cache: Optional[ResultCache] = None, workers: int = 0,
               log: Optional[Callable[[str], None]] = None
               ) -> Tuple[Dict, Dict]:
    """Both telemetry runs, via simlab: cached if seen, simulated if not."""
    specs = [RunSpec.trips(s.workload, level=s.level, config=s.config(),
                           telemetry=True) for s in (spec_a, spec_b)]
    results = run_specs(specs, workers=workers, cache=cache, log=log)
    return results[0], results[1]


def _state_tile_cycles(summary: TelemetrySummary) -> Dict[str, int]:
    """Aggregate tile-cycles per state (exact integers)."""
    totals = {state: 0 for state in CATEGORIES}
    for per_tile in summary.tiles.values():
        for state, n in per_tile.items():
            if state not in totals:
                raise DiffError(f"unknown tile state {state!r} "
                                f"in telemetry summary")
            totals[state] += n
    return totals


def diff_runs(result_a: Dict, result_b: Dict,
              label_a: str, label_b: str) -> Dict:
    """The attribution report for two simlab trips+telemetry results."""
    for label, result in ((label_a, result_a), (label_b, result_b)):
        if "telemetry" not in result:
            raise DiffError(f"{label}: result carries no telemetry "
                            f"summary (was the spec telemetry=True?)")
    sum_a = TelemetrySummary.from_dict(result_a["telemetry"])
    sum_b = TelemetrySummary.from_dict(result_b["telemetry"])
    n_tiles = len(sum_a.tiles)
    if not n_tiles or len(sum_b.tiles) != n_tiles:
        raise DiffError(
            f"tile sets differ ({n_tiles} vs {len(sum_b.tiles)}): "
            f"runs are not attributable against each other")
    cycles_a, cycles_b = sum_a.cycles, sum_b.cycles
    delta_cycles = cycles_b - cycles_a

    states_a = _state_tile_cycles(sum_a)
    states_b = _state_tile_cycles(sum_b)
    for label, states, cycles in ((label_a, states_a, cycles_a),
                                  (label_b, states_b, cycles_b)):
        if sum(states.values()) != n_tiles * cycles:
            raise DiffError(
                f"{label}: tile-cycle accounting does not sum to "
                f"{n_tiles} tiles x {cycles} cycles — telemetry "
                f"summary is incomplete (tiles probe disabled?)")

    rows = []
    rounded_sum = 0.0
    for state in CATEGORIES:
        delta_tc = states_b[state] - states_a[state]
        delta_cyc = round(delta_tc / n_tiles, 1)
        rounded_sum += delta_cyc
        rows.append({"category": state,
                     "a_tile_cycles": states_a[state],
                     "b_tile_cycles": states_b[state],
                     "delta_tile_cycles": delta_tc,
                     "delta_cycles": delta_cyc})
    # exact in integer tile-cycles, always (checked above per run):
    assert sum(r["delta_tile_cycles"] for r in rows) \
        == n_tiles * delta_cycles
    residual = round(delta_cycles - rounded_sum, 1)

    per_tile = []
    for name in sum_a.tiles:
        tile_a, tile_b = sum_a.tiles[name], sum_b.tiles.get(name, {})
        per_tile.append({
            "tile": name,
            "delta_busy": tile_b.get(BUSY, 0) - tile_a.get(BUSY, 0),
            "delta_idle": tile_b.get(IDLE, 0) - tile_a.get(IDLE, 0),
            "delta_stall": sum(tile_b.get(s, 0) - tile_a.get(s, 0)
                               for s in STALL_STATES)})
    per_tile.sort(key=lambda row: -abs(row["delta_stall"]))

    links = {}
    for net in ("opn", "ocn"):
        net_a = (getattr(sum_a, net) or {}).get("links", {})
        net_b = (getattr(sum_b, net) or {}).get("links", {})
        movers = [{"link": link,
                   "a_flits": net_a.get(link, 0),
                   "b_flits": net_b.get(link, 0),
                   "delta_flits": net_b.get(link, 0) - net_a.get(link, 0)}
                  for link in sorted(set(net_a) | set(net_b))]
        movers.sort(key=lambda row: -abs(row["delta_flits"]))
        links[net] = movers

    def _side(label: str, result: Dict, summary: TelemetrySummary) -> Dict:
        stats = result["stats"]
        cycles = stats["cycles"]
        return {"label": label, "cycles": cycles,
                "ipc": round(stats["insts_committed"] / cycles, 3)
                if cycles else 0.0,
                "blocks_committed": stats["blocks_committed"],
                "blocks_flushed": stats["blocks_flushed"],
                "fast_forward_cycles":
                    summary.fast_forward.get("cycles", 0)}

    return {
        "a": _side(label_a, result_a, sum_a),
        "b": _side(label_b, result_b, sum_b),
        "delta_cycles": delta_cycles,
        "n_tiles": n_tiles,
        "attribution": rows,
        "residual": residual,
        "per_tile": per_tile,
        "links": links,
    }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_diff(report: Dict, top: int = 8) -> str:
    """The human-readable attribution tables."""
    from ..harness.tables import render_table
    a, b = report["a"], report["b"]
    delta = report["delta_cycles"]
    pct = f" ({100.0 * delta / a['cycles']:+.1f}%)" if a["cycles"] else ""
    lines = [
        f"harness diff: {a['label']}  →  {b['label']}",
        f"  A: {a['cycles']} cycles, IPC {a['ipc']:.2f}    "
        f"B: {b['cycles']} cycles, IPC {b['ipc']:.2f}    "
        f"Δ {delta:+d} cycles{pct}",
        "",
    ]
    rows = [{"Category": row["category"],
             "A tile-cyc": row["a_tile_cycles"],
             "B tile-cyc": row["b_tile_cycles"],
             "Δ tile-cyc": f"{row['delta_tile_cycles']:+d}",
             "Δ cycles": f"{row['delta_cycles']:+.1f}"}
            for row in report["attribution"]]
    rows.append({"Category": "residual (rounding)", "A tile-cyc": "",
                 "B tile-cyc": "", "Δ tile-cyc": "",
                 "Δ cycles": f"{report['residual']:+.1f}"})
    rows.append({"Category": "total", "A tile-cyc": "",
                 "B tile-cyc": "", "Δ tile-cyc":
                 f"{report['n_tiles'] * delta:+d}",
                 "Δ cycles": f"{delta:+.1f}"})
    lines.append(render_table(
        rows, f"where the cycles went "
        f"(per-tile average over {report['n_tiles']} tiles)"))

    movers = [row for row in report["per_tile"]
              if row["delta_busy"] or row["delta_stall"]
              or row["delta_idle"]][:top]
    if movers:
        lines.append("")
        lines.append(render_table(
            [{"Tile": row["tile"],
              "Δ busy": f"{row['delta_busy']:+d}",
              "Δ stalled": f"{row['delta_stall']:+d}",
              "Δ idle": f"{row['delta_idle']:+d}"} for row in movers],
            f"per-tile movers (top {len(movers)} by |Δ stalled|)"))
    for net in ("opn", "ocn"):
        net_movers = [row for row in report["links"][net]
                      if row["delta_flits"]][:top]
        if net_movers:
            lines.append("")
            lines.append(render_table(
                [{"Link": row["link"],
                  "A flits": row["a_flits"], "B flits": row["b_flits"],
                  "Δ flits": f"{row['delta_flits']:+d}"}
                 for row in net_movers],
                f"{net.upper()} link movers (top {len(net_movers)})"))
    return "\n".join(lines)


def diff_specs(text_a: str, text_b: str,
               cache: Optional[ResultCache] = None, workers: int = 0,
               log: Optional[Callable[[str], None]] = None) -> Dict:
    """Parse, fetch (cached), and attribute — the CLI's whole pipeline."""
    spec_a, spec_b = parse_spec(text_a), parse_spec(text_b)
    result_a, result_b = fetch_runs(spec_a, spec_b, cache=cache,
                                    workers=workers, log=log)
    return diff_runs(result_a, result_b, spec_a.label, spec_b.label)

"""repro.telemetry: the zero-overhead-when-off observability layer.

The simulator's end-of-run aggregates (``ProcStats``) answer *how many*
cycles a run took; this package answers *where they went* — the question
Sections 4-5 of the paper are about.  When
:class:`~repro.uarch.proc.TripsProcessor` is constructed with
``telemetry=True`` (or through ``run_trips_workload(...,
telemetry=True)``), a :class:`~repro.telemetry.recorder.TelemetryRecorder`
rides along and records:

* **block lifecycle spans** — fetch → dispatch → execute → commit → ack
  per block, with the flush cause for squashed blocks.  These are the
  processor's :class:`~repro.uarch.trace.BlockEvent` records, the same
  ones the critical-path trace reads,
* **per-tile cycle accounting** — every cycle of every tile classified
  as busy, one of six stall categories (waiting-operand,
  OPN-backpressure, GDN-backlog, LSQ-full, cache-miss,
  dependence-deferral), or idle; the categories sum exactly to
  ``ProcStats.cycles``, including cycles the fast-path engine
  fast-forwarded over (accounted as idle/waiting spans, never lost),
* **micronet utilization** — per-router, per-link flit counts and
  queue-depth histograms for the OPN (and the OCN when the NUCA memory
  system is modelled),
* **NUCA/DRAM occupancy** — in-flight request counts over time and
  per-MT access totals.

With tracing and telemetry off every probe site is one pointer
compare: the five block lifecycle sites test for the block's record,
which exists only when either is on, and every other site tests
``self.tel`` (or the tile-side ``proc.tel``).  Probes record into side
state only, so ``ProcStats`` are identical with telemetry on or off.

Sinks: :mod:`repro.telemetry.perfetto` exports Chrome/Perfetto
trace-event JSON (``chrome://tracing`` or https://ui.perfetto.dev),
:mod:`repro.telemetry.report` renders the terminal utilization heatmap
and stall-attribution table behind ``python -m repro.harness inspect``,
and :class:`~repro.telemetry.recorder.TelemetrySummary` is the compact,
JSON-round-trippable record that simlab caches alongside ``ProcStats``.
"""

from .recorder import TelemetryRecorder, TelemetrySummary

__all__ = ["TelemetryRecorder", "TelemetrySummary"]

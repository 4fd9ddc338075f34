"""The sampling driver: geometry validation, accuracy, degeneration.

The accuracy assertions here are deliberate under-claims of what
BENCH_sampling.json demonstrates at full scale (<=2% at ~2% coverage) —
at test-suite sizes the window counts are small, so the tolerance is 5%.
What must hold *exactly* even here: block/instruction totals (the
fast-forwarder is the master timeline) and architectural outputs.
"""

import pytest

from repro.compiler import compile_tir
from repro.harness.runner import run_trips_workload
from repro.sampling import SamplingConfig, run_sampled_workload
from repro.sampling.sampler import run_sampled_program
from repro.uarch.config import PROTOTYPE, TripsConfig


class TestSamplingConfig:
    def test_roundtrip(self):
        cfg = SamplingConfig(interval_blocks=1234, warmup_blocks=56,
                             measure_blocks=78, offset_blocks=9,
                             warm_horizon=1000, jitter=0.1)
        assert SamplingConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_overlapping_windows(self):
        with pytest.raises(ValueError, match="overlap"):
            SamplingConfig(interval_blocks=600, warmup_blocks=200,
                           measure_blocks=300).validate()

    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            SamplingConfig(interval_blocks=0).validate()
        with pytest.raises(ValueError):
            SamplingConfig(measure_blocks=-1).validate()

    def test_jitter_is_deterministic_and_bounded(self):
        cfg = SamplingConfig(interval_blocks=1000, jitter=0.25)
        starts = [cfg.window_start(k) for k in range(50)]
        assert starts == [cfg.window_start(k) for k in range(50)]
        for k, start in enumerate(starts):
            assert abs(start - k * 1000) <= 250
        # the stagger actually staggers: not all offsets identical
        assert len({start - k * 1000 for k, start in enumerate(starts)}) > 5

    def test_zero_jitter_is_strictly_periodic(self):
        cfg = SamplingConfig(interval_blocks=1000, offset_blocks=7,
                             jitter=0.0)
        assert [cfg.window_start(k) for k in range(3)] == [7, 1007, 2007]


class TestSampledRuns:
    def test_totals_are_exact_and_outputs_validate(self):
        sampling = SamplingConfig(interval_blocks=800, warmup_blocks=80,
                                  measure_blocks=120)
        run = run_sampled_workload("mcf", level="tcc", size=8,
                                   sampling=sampling)
        full = run_trips_workload("mcf", level="tcc", size=8)
        s = run.sampled
        assert s.blocks_total == full.stats.blocks_committed
        assert s.insts_total == full.stats.insts_committed
        assert s.reads_total == full.stats.reads_committed
        assert run.fallback_blocks == 0

    @pytest.mark.parametrize("name,size", [("mcf", 32), ("a2time01", 128)])
    def test_estimate_tracks_ground_truth(self, name, size):
        # test-suite sizes give only ~15-30 windows, so the bound here is
        # looser than the ~2% BENCH_sampling.json shows at full scale
        sampling = SamplingConfig(interval_blocks=800, warmup_blocks=80,
                                  measure_blocks=120)
        run = run_sampled_workload(name, level="tcc", size=size,
                                   sampling=sampling)
        full = run_trips_workload(name, level="tcc", size=size)
        err = run.sampled.cycles_est / full.stats.cycles - 1.0
        assert abs(err) < 0.06, f"{name}x{size}: {100 * err:+.2f}% error"
        assert run.sampled.windows >= 10

    def test_short_program_degenerates_to_full_simulation(self):
        # vadd (size 1) ends before the first default-geometry window:
        # the fallback is one full-length window == exact full simulation
        run = run_sampled_workload("vadd", level="tcc")
        full = run_trips_workload("vadd", level="tcc")
        s = run.sampled
        assert s.windows == 1
        assert s.coverage == 1.0
        assert s.cycles_est == full.stats.cycles
        assert s.ipc_est == pytest.approx(full.stats.ipc)

    def test_telemetry_one_summary_per_window(self):
        from repro.workloads import get_workload
        sampling = SamplingConfig(interval_blocks=800, warmup_blocks=60,
                                  measure_blocks=100)
        program = compile_tir(get_workload("mcf", size=8),
                              level="tcc").program
        sampled, _, summaries = run_sampled_program(
            program, config=TripsConfig(), sampling=sampling,
            telemetry=True)
        assert len(summaries) == sampled.windows
        assert all(isinstance(s, dict) and s for s in summaries)

    def test_serialization_roundtrip(self):
        from repro.sampling import SampledProcStats
        sampling = SamplingConfig(interval_blocks=800, warmup_blocks=60,
                                  measure_blocks=100)
        run = run_sampled_workload("mcf", level="tcc", size=8,
                                   sampling=sampling)
        data = run.sampled.to_dict()
        back = SampledProcStats.from_dict(data)
        assert back.to_dict() == data


class TestDefaultsOffByteIdentity:
    """Adding phase clustering must not move a single byte of the
    defaults-off record: these hashes were captured from the sampler
    *before* phases.py existed, and pin both the numbers and the
    serialization format (key set, float repr, window detail)."""

    GOLDEN = {
        ("mcf", 8, None):
            "958a61f7d6cf1d7c23f82bc9b2496c8bb02199f85c95c290951c31327be1d4ec",
        ("a2time01", 64, None):
            "20da2e63c287eed332700e13d0142c246e4c8e07e9a2211c9d70fd97d1a8c274",
        ("mcf", 8, 400):
            "26461f3b85973003bdfdac42dcb15f12334cfbe66f0562956a0702b023288af6",
    }

    @pytest.mark.parametrize("name,size,horizon", sorted(
        GOLDEN, key=str))
    def test_matches_pre_clustering_golden(self, name, size, horizon):
        import hashlib
        import json
        sampling = SamplingConfig(interval_blocks=800, warmup_blocks=80,
                                  measure_blocks=120, warm_horizon=horizon)
        run = run_sampled_workload(name, level="tcc", size=size,
                                   sampling=sampling)
        blob = json.dumps(run.sampled.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        got = hashlib.sha256(blob.encode()).hexdigest()
        assert got == self.GOLDEN[(name, size, horizon)]


class TestClusteredSampling:
    CFG = SamplingConfig(interval_blocks=800, warmup_blocks=80,
                         measure_blocks=120, clustering=True,
                         phase_windows=10, warm_horizon=400)

    def test_clustered_totals_exact_and_outputs_validate(self):
        run = run_sampled_workload("mcf", level="tcc", size=8,
                                   sampling=self.CFG)
        full = run_trips_workload("mcf", level="tcc", size=8)
        s = run.sampled
        assert s.blocks_total == full.stats.blocks_committed
        assert s.insts_total == full.stats.insts_committed
        assert s.reads_total == full.stats.reads_committed
        assert run.fallback_blocks == 0

    def test_clustered_estimate_tracks_ground_truth(self):
        run = run_sampled_workload("mcf", level="tcc", size=32,
                                   sampling=self.CFG)
        full = run_trips_workload("mcf", level="tcc", size=32)
        err = run.sampled.cycles_est / full.stats.cycles - 1.0
        assert abs(err) < 0.06, f"mcf x32: {100 * err:+.2f}% error"
        assert run.sampled.phases >= 2
        # clustering spends far fewer windows than the stride schedule
        # would at this interval (~30) for the same tolerance
        assert run.sampled.windows <= 2 * self.CFG.phase_windows

    def test_clustering_requires_window_inside_interval(self):
        with pytest.raises(ValueError, match="clustering interval"):
            SamplingConfig(interval_blocks=150, warmup_blocks=80,
                           measure_blocks=120, clustering=True).validate()

    def test_clustered_config_roundtrip(self):
        cfg = SamplingConfig(interval_blocks=1000, clustering=True,
                             phase_windows=9, max_phases=5, phase_seed=42,
                             warm_horizon=300)
        assert SamplingConfig.from_dict(cfg.to_dict()) == cfg

    def test_pre_clustering_dicts_still_load(self):
        # a sampling dict recorded before clustering existed has none of
        # the new keys; from_dict must fill defaults (= defaults-off)
        cfg = SamplingConfig.from_dict({"interval_blocks": 800,
                                        "warmup_blocks": 80,
                                        "measure_blocks": 120})
        assert cfg.clustering is False
        assert cfg.phase_windows == 12
        assert cfg.phase_seed == 1

    def test_short_program_degenerates_to_full_simulation(self):
        run = run_sampled_workload("vadd", level="tcc", sampling=self.CFG)
        full = run_trips_workload("vadd", level="tcc")
        s = run.sampled
        assert s.windows == 1
        assert s.coverage == 1.0
        assert s.cycles_est == full.stats.cycles
        assert s.phases == 1 and s.phase_weights == [1.0]

    def test_clustered_telemetry_one_summary_per_window(self):
        from repro.workloads import get_workload
        program = compile_tir(get_workload("mcf", size=8),
                              level="tcc").program
        sampled, _, summaries = run_sampled_program(
            program, config=TripsConfig(), sampling=self.CFG,
            telemetry=True)
        assert len(summaries) == sampled.windows

    def test_clustered_serialization_roundtrip(self):
        from repro.sampling import SampledProcStats
        run = run_sampled_workload("mcf", level="tcc", size=8,
                                   sampling=self.CFG)
        data = run.sampled.to_dict()
        assert data["phases"] == run.sampled.phases
        back = SampledProcStats.from_dict(data)
        assert back.to_dict() == data


def _mcf8():
    from repro.workloads import get_workload
    return compile_tir(get_workload("mcf", size=8), level="tcc").program


GEOMETRY = dict(interval_blocks=800, warmup_blocks=80, measure_blocks=120)


class TestOneDriver:
    """Both schedulers feed the same measurement loop."""

    @pytest.mark.parametrize("clustering", [False, True])
    def test_config_none_means_prototype(self, clustering):
        program = _mcf8()
        sampling = SamplingConfig(**GEOMETRY, clustering=clustering,
                                  phase_windows=10)
        none, _, _ = run_sampled_program(program, config=None,
                                         sampling=sampling)
        proto, _, _ = run_sampled_program(program, config=PROTOTYPE,
                                          sampling=sampling)
        assert none.to_dict() == proto.to_dict()

    @pytest.mark.parametrize("clustering", [False, True])
    def test_hooks_are_looked_up_at_call_time(self, clustering,
                                              monkeypatch):
        # layer tracing wraps ``sampler.take_checkpoint`` and
        # ``phases.plan_phases`` by attribute; a driver that bound
        # either name at import time would silently bypass the wrapper
        import repro.sampling.phases as phases
        import repro.sampling.sampler as sampler
        calls = {"take": 0, "plan": 0}
        take, plan = sampler.take_checkpoint, phases.plan_phases

        def counted_take(ff):
            calls["take"] += 1
            return take(ff)

        def counted_plan(*args, **kwargs):
            calls["plan"] += 1
            return plan(*args, **kwargs)

        monkeypatch.setattr(sampler, "take_checkpoint", counted_take)
        monkeypatch.setattr(phases, "plan_phases", counted_plan)
        sampling = SamplingConfig(**GEOMETRY, clustering=clustering,
                                  phase_windows=10, warm_horizon=400)
        sampled, _, _ = run_sampled_program(_mcf8(), sampling=sampling)
        assert sampled.windows > 1
        if clustering:
            # one plan; a checkpoint per window and per interval boundary
            boundaries = (sampled.blocks_total - 1) \
                // sampling.interval_blocks
            assert calls["plan"] == 1
            assert calls["take"] >= sampled.windows + boundaries
        else:
            assert calls["plan"] == 0
            assert calls["take"] >= sampled.windows

"""Aggregation math: means, Student-t intervals, extrapolation."""

import json
import math

import pytest

from repro.sampling import SampledProcStats, WindowSample, aggregate, t95


def _window(start, blocks, cycles, insts=None, **counters):
    return WindowSample(start_block=start, blocks=blocks, cycles=cycles,
                        insts=insts if insts is not None else blocks * 4,
                        reads=blocks, counters=counters)


class TestT95:
    def test_known_quantiles(self):
        assert t95(1) == pytest.approx(12.706)
        assert t95(10) == pytest.approx(2.228)
        assert t95(1000) == pytest.approx(1.960)

    def test_degenerate(self):
        assert t95(0) == float("inf")


class TestAggregate:
    def test_uniform_windows_are_exact_with_zero_ci(self):
        windows = [_window(k * 100, 10, 250) for k in range(5)]
        s = aggregate(windows, blocks_total=1000, insts_total=4000,
                      reads_total=1000)
        assert s.cycles_est == pytest.approx(25.0 * 1000)
        assert s.cycles_ci == pytest.approx(0.0)
        assert s.ipc_est == pytest.approx(4000 / 25000)
        assert s.windows == 5
        assert s.coverage == pytest.approx(50 / 1000)

    def test_ci_shrinks_with_more_windows(self):
        # alternating CPB 20/30: same mean, CI must tighten as n grows
        def ci(n):
            windows = [_window(k, 10, 200 if k % 2 else 300)
                       for k in range(n)]
            return aggregate(windows, 1000, 4000, 1000).cycles_ci
        assert ci(16) < ci(4)

    def test_single_window_has_infinite_ci(self):
        s = aggregate([_window(0, 10, 250)], 10, 40, 10)
        assert math.isinf(s.cycles_ci)
        assert math.isinf(s.ipc_ci)
        assert s.cycles_est == pytest.approx(250.0)

    def test_rates_extrapolate(self):
        windows = [_window(k, 10, 250, blocks_flushed=2) for k in range(4)]
        s = aggregate(windows, 1000, 4000, 1000)
        assert s.rates["blocks_flushed"] == pytest.approx(200.0)
        assert s.rates_ci["blocks_flushed"] == pytest.approx(0.0)

    def test_empty_windows_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], 10, 10, 10)
        with pytest.raises(ValueError):
            aggregate([_window(0, 0, 0)], 10, 10, 10)

    def test_json_roundtrip_is_lossless(self):
        windows = [_window(k * 97, 9 + k, 251 + 7 * k, gdn_messages=k)
                   for k in range(7)]
        s = aggregate(windows, 12345, 67890, 11111)
        wire = json.dumps(s.to_dict(), sort_keys=True)
        back = SampledProcStats.from_dict(json.loads(wire))
        assert json.dumps(back.to_dict(), sort_keys=True) == wire
        assert back.cycles_est == s.cycles_est
        assert [WindowSample.from_dict(w).to_dict()
                for w in back.window_detail] == s.window_detail


def _phased(start, blocks, cycles, phase, weight, **counters):
    return WindowSample(start_block=start, blocks=blocks, cycles=cycles,
                        insts=blocks * 4, reads=blocks, counters=counters,
                        phase=phase, weight=weight)


class TestStratifiedAggregate:
    """The one estimator on phase-scheduled windows: strata are phases,
    weighted by the population share their windows carry."""

    B = 1000        # blocks_total: every window below measures 10 blocks

    def test_singleton_stratum_borrows_pooled_within_phase_variance(self):
        # phase 0: CPB 20, 24; phase 1: CPB 28, 32 (both SS = 8, so the
        # pooled within-phase variance is 16 / 2 df = 8); phase 2 is a
        # singleton at CPB 40 and must borrow that 8
        windows = [_phased(0, 10, 200, 0, 0.25), _phased(1, 10, 240, 0, 0.25),
                   _phased(2, 10, 280, 1, 0.125),
                   _phased(3, 10, 320, 1, 0.125),
                   _phased(4, 10, 400, 2, 0.25)]
        s = aggregate(windows, self.B, 4 * self.B, self.B, k=3,
                      phase_weights=[0.5, 0.25, 0.25])
        assert s.cycles_est == pytest.approx(
            (0.5 * 22 + 0.25 * 30 + 0.25 * 40) * self.B)
        var = 0.5 ** 2 * 8 / 2 + 0.25 ** 2 * 8 / 2 + 0.25 ** 2 * 8 / 1
        assert s.cycles_ci == pytest.approx(t95(2) * math.sqrt(var) * self.B)
        assert s.phases == 3 and s.phase_weights == [0.5, 0.25, 0.25]

    def test_all_singletons_use_between_window_variance(self):
        # no stratum can estimate its own variance: the spread over all
        # windows (CPB 20/30/40 -> s^2 = 100) stands in, with n - 1 df
        windows = [_phased(0, 10, 200, 0, 0.5), _phased(1, 10, 300, 1, 0.25),
                   _phased(2, 10, 400, 2, 0.25)]
        s = aggregate(windows, self.B, 4 * self.B, self.B, k=3,
                      phase_weights=[0.5, 0.25, 0.25])
        assert s.cycles_est == pytest.approx(27.5 * self.B)
        var = (0.5 ** 2 + 0.25 ** 2 + 0.25 ** 2) * 100
        assert s.cycles_ci == pytest.approx(t95(2) * math.sqrt(var) * self.B)

    def test_unrealized_phase_is_dropped_and_weights_renormalize(self):
        # phase 1's only window measured nothing (it fell past program
        # end): phases 0 and 2 keep their 0.5 : 0.2 ratio, rescaled to 1
        windows = [_phased(0, 10, 200, 0, 0.25), _phased(1, 10, 220, 0, 0.25),
                   _phased(2, 0, 0, 1, 0.3), _phased(3, 10, 400, 2, 0.2)]
        s = aggregate(windows, self.B, 4 * self.B, self.B, k=3,
                      phase_weights=[0.5, 0.3, 0.2])
        assert s.windows == 3
        assert {w["phase"] for w in s.window_detail} == {0, 2}
        assert s.cycles_est == pytest.approx((5 * 21 + 2 * 40) / 7 * self.B)
        # the plan's weights are recorded as planned
        assert s.phase_weights == [0.5, 0.3, 0.2]
        # a constant CPB comes back exactly: the weights sum to 1
        flat = [_phased(0, 10, 300, 0, 0.5), _phased(1, 10, 300, 2, 0.2)]
        assert aggregate(flat, self.B, 1, 1, k=3).cycles_est \
            == pytest.approx(30.0 * self.B)

    def test_one_stratum_is_the_student_t_interval(self):
        # a stride run: one stratum of weight 1 reduces bit-exactly to the
        # plain mean and Student-t interval over the windows
        windows = [_window(k * 50, 9 + k, 200 + 13 * k * k, gdn_messages=k)
                   for k in range(5)]
        s = aggregate(windows, 12345, 67890, 11111)
        cpb = [w.cycles / w.blocks for w in windows]
        mean = sum(cpb) / 5
        s2 = sum((v - mean) ** 2 for v in cpb) / 4
        assert s.cycles_est == mean * 12345
        assert s.cycles_ci == t95(4) * math.sqrt(s2 / 5) * 12345
        assert s.ipc_ci == (67890 / s.cycles_est ** 2) * s.cycles_ci
        rate = [w.counters["gdn_messages"] / w.blocks for w in windows]
        rmean = sum(rate) / 5
        r2 = sum((v - rmean) ** 2 for v in rate) / 4
        assert s.rates["gdn_messages"] == rmean * 12345
        assert s.rates_ci["gdn_messages"] \
            == t95(4) * math.sqrt(r2 / 5) * 12345
        assert s.phases == 0 and "phases" not in s.to_dict()

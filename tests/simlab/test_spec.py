"""RunSpec identity: stable content hashes, round trips, fingerprints."""

import json

from repro.simlab import RunSpec, code_fingerprint
from repro.simlab.spec import trips_config_from_dict, trips_config_to_dict
from repro.uarch.config import PredictorConfig, TripsConfig


class TestKeyStability:
    def test_identical_specs_share_a_key(self):
        a = RunSpec.trips("vadd", level="hand")
        b = RunSpec.trips("vadd", level="hand")
        assert a.key == b.key

    def test_key_is_deterministic_json(self):
        spec = RunSpec.trips("vadd", level="hand", trace=True)
        blob = json.dumps(spec.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        assert spec.key == RunSpec.from_dict(json.loads(blob)).key

    def test_every_field_feeds_the_key(self):
        base = RunSpec.trips("vadd", level="hand")
        assert base.key != RunSpec.trips("sha", level="hand").key
        assert base.key != RunSpec.trips("vadd", level="tcc").key
        assert base.key != RunSpec.trips("vadd", level="hand",
                                         trace=True).key
        assert base.key != RunSpec.trips(
            "vadd", level="hand",
            config=TripsConfig(speculative_blocks=0)).key
        assert base.key != RunSpec.baseline("vadd").key

    def test_code_fingerprint_feeds_the_key(self):
        a = RunSpec.trips("vadd", fingerprint="aaaa")
        b = RunSpec.trips("vadd", fingerprint="bbbb")
        assert a.key != b.key

    def test_nested_predictor_config_feeds_the_key(self):
        a = RunSpec.trips("vadd", config=TripsConfig())
        b = RunSpec.trips("vadd", config=TripsConfig(
            predictor=PredictorConfig(kind="static")))
        assert a.key != b.key

    def test_size_and_sampling_feed_the_key(self):
        base = RunSpec.trips("mcf", level="tcc")
        assert base.key != RunSpec.trips("mcf", level="tcc", size=8).key
        sampled = RunSpec.trips(
            "mcf", level="tcc",
            sampling={"interval_blocks": 500, "warmup_blocks": 50,
                      "measure_blocks": 100})
        assert base.key != sampled.key
        assert sampled.key != RunSpec.trips(
            "mcf", level="tcc",
            sampling={"interval_blocks": 800, "warmup_blocks": 50,
                      "measure_blocks": 100}).key

    def test_sampling_dict_order_does_not_change_the_key(self):
        a = RunSpec.trips("mcf", sampling={"interval_blocks": 500,
                                           "warmup_blocks": 50})
        b = RunSpec.trips("mcf", sampling={"warmup_blocks": 50,
                                           "interval_blocks": 500})
        assert a.key == b.key

    def test_phase_clustering_fields_feed_the_key(self):
        # a cached stratified run must never satisfy a clustered request
        # (or one with a different phase geometry / warming horizon)
        from repro.sampling import SamplingConfig
        base = RunSpec.trips("mcf", level="tcc", sampling=SamplingConfig(
            interval_blocks=800, warmup_blocks=80, measure_blocks=120))
        seen = {base.key}
        for variant in (
                SamplingConfig(interval_blocks=800, warmup_blocks=80,
                               measure_blocks=120, clustering=True),
                SamplingConfig(interval_blocks=800, warmup_blocks=80,
                               measure_blocks=120, clustering=True,
                               phase_windows=20),
                SamplingConfig(interval_blocks=800, warmup_blocks=80,
                               measure_blocks=120, clustering=True,
                               max_phases=4),
                SamplingConfig(interval_blocks=800, warmup_blocks=80,
                               measure_blocks=120, clustering=True,
                               phase_seed=2),
                SamplingConfig(interval_blocks=800, warmup_blocks=80,
                               measure_blocks=120, warm_horizon=400)):
            key = RunSpec.trips("mcf", level="tcc",
                                sampling=variant).key
            assert key not in seen
            seen.add(key)


class TestRoundTrip:
    def test_sampled_spec_round_trips(self):
        spec = RunSpec.trips("mcf", level="tcc", size=32,
                             sampling={"interval_blocks": 800,
                                       "warmup_blocks": 80,
                                       "measure_blocks": 120})
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.key == spec.key
        assert clone.sampling_config() == spec.sampling_config()

    def test_clustered_spec_round_trips(self):
        from repro.sampling import SamplingConfig
        spec = RunSpec.trips("mcf", level="tcc", size=32,
                             sampling=SamplingConfig(
                                 interval_blocks=1000, warmup_blocks=80,
                                 measure_blocks=120, clustering=True,
                                 phase_windows=9, warm_horizon=300))
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.key == spec.key
        cfg = clone.sampling_config()
        assert cfg.clustering is True
        assert cfg.phase_windows == 9
        assert cfg.warm_horizon == 300

    def test_pre_clustering_sampling_dict_still_loads(self):
        # specs serialized before the clustering fields existed carry a
        # sampling dict without them; sampling_config() must default off
        spec = RunSpec.trips("mcf", sampling={"interval_blocks": 800,
                                              "warmup_blocks": 80,
                                              "measure_blocks": 120})
        cfg = spec.sampling_config()
        assert cfg.clustering is False
        assert cfg.warm_horizon is None

    def test_dict_round_trip_preserves_identity(self):
        spec = RunSpec.trips("conv", level="hand",
                             config=TripsConfig(opn_links_per_hop=2))
        clone = RunSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.key == spec.key

    def test_config_round_trip(self):
        config = TripsConfig(speculative_blocks=3,
                             predictor=PredictorConfig(kind="gshare"))
        rebuilt = trips_config_from_dict(trips_config_to_dict(config))
        assert rebuilt == config

    def test_default_config_is_fully_resolved(self):
        spec = RunSpec.trips("vadd")
        # every TripsConfig field is captured, defaults included, so a
        # changed default can never alias an old cache record
        assert spec.config["speculative_blocks"] == 7
        assert spec.config["predictor"]["kind"] == "tournament"


class TestFingerprint:
    def test_fingerprint_is_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_specs_pick_up_the_fingerprint(self):
        assert RunSpec.trips("vadd").fingerprint == code_fingerprint()
        assert RunSpec.baseline("vadd").fingerprint == code_fingerprint()


class TestLabels:
    def test_labels_are_human_readable(self):
        assert RunSpec.trips("qr", level="hand",
                             trace=True).label == "trips:qr@hand +trace"
        assert RunSpec.baseline("qr").label == "baseline:qr"

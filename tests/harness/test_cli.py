"""``python -m repro.harness`` CLI, including the ``--json`` mode."""

import json

from repro.harness.__main__ import main


class TestRunCommand:
    def test_text_mode(self, capsys):
        assert main(["run", "vadd", "--level", "hand"]) == 0
        out = capsys.readouterr().out
        assert "vadd @ hand" in out and "blocks committed" in out

    def test_json_mode(self, capsys):
        assert main(["run", "vadd", "--level", "hand", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["name"] == "vadd"
        assert record["level"] == "hand"
        assert record["cycles"] == record["stats"]["cycles"] > 0
        assert record["stats"]["blocks_committed"] > 0


class TestTable3Command:
    def test_text_mode(self, capsys):
        assert main(["table3", "vadd"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "vadd" in out

    def test_json_mode_round_trips(self, capsys):
        assert main(["table3", "vadd", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["Benchmark"] == "vadd"
        assert rows[0]["Speedup Hand"] is not None

    def test_workers_and_cache_flags(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["table3", "vadd", "--json", "--workers", "2",
                     "--cache", cache_dir]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["table3", "vadd", "--json", "--workers", "0",
                     "--cache", cache_dir]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second


class TestOtherCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        assert "vadd" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "GT" in capsys.readouterr().out


class TestRunSampleCommand:
    """``run --sample`` prints exactly what the sampling API returns."""

    GEOMETRY = ["--size", "8", "--level", "tcc", "--interval", "800",
                "--warmup", "80", "--measure", "120"]
    PHASED = ["--phases", "--phase-windows", "10", "--warm-horizon", "400"]

    @staticmethod
    def _expected(**phased):
        from repro.sampling import SamplingConfig, run_sampled_workload
        sampling = SamplingConfig(interval_blocks=800, warmup_blocks=80,
                                  measure_blocks=120, **phased)
        run = run_sampled_workload("mcf", level="tcc", size=8,
                                   sampling=sampling)
        return json.loads(json.dumps(run.sampled.to_dict())), sampling

    def test_sample_json_mode(self, capsys):
        assert main(["run", "mcf", "--sample", "--json"]
                    + self.GEOMETRY) == 0
        record = json.loads(capsys.readouterr().out)
        sampled, sampling = self._expected()
        assert record["sampled"] == sampled
        assert record["sampling"] == sampling.to_dict()
        assert "phases" not in record["sampled"]

    def test_sample_json_mode_with_phases(self, capsys):
        assert main(["run", "mcf", "--sample", "--json"]
                    + self.GEOMETRY + self.PHASED) == 0
        record = json.loads(capsys.readouterr().out)
        sampled, sampling = self._expected(clustering=True, phase_windows=10,
                                           warm_horizon=400)
        assert record["sampled"] == sampled
        assert record["sampling"] == sampling.to_dict()
        assert record["sampled"]["phases"] >= 2

    def test_sample_text_mode(self, capsys):
        assert main(["run", "mcf", "--sample"] + self.GEOMETRY) == 0
        out = capsys.readouterr().out
        sampled, _ = self._expected()
        assert "mcfx8 @ tcc (sampled): " \
            f"{sampled['cycles_est']:.0f} ± {sampled['cycles_ci']:.0f}" in out
        assert f"{sampled['windows']} realized windows" in out
        assert "warm horizon" not in out and "phases" not in out

    def test_sample_text_mode_with_phases(self, capsys):
        assert main(["run", "mcf", "--sample"]
                    + self.GEOMETRY + self.PHASED) == 0
        out = capsys.readouterr().out
        sampled, _ = self._expected(clustering=True, phase_windows=10,
                                    warm_horizon=400)
        assert f"{sampled['windows']} realized windows" in out
        assert "warm horizon 400 blocks" in out
        line = next(l for l in out.splitlines()
                    if "phases (weight×windows)" in l)
        # one "pN share%×count" entry per phase, counts summing to the
        # realized windows
        parts = line.split(": ", 1)[1].split(", ")
        assert len(parts) == sampled["phases"]
        assert sum(int(p.rsplit("×", 1)[1]) for p in parts) \
            == sampled["windows"]

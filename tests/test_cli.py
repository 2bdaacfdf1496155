"""Command-line surface: estimate, run, exit codes, and file round-trips."""

import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from prevbias.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "prevbias", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc


def small_config(tmp_path, label="mar", **overrides):
    doc = json.loads((CONFIG_DIR / f"{label}.json").read_text())
    doc.update({"n_grid": [1000, 10_000], "replicates": 50})
    doc.update(overrides)
    path = tmp_path / f"{label}_small.json"
    path.write_text(json.dumps(doc))
    return path


MAR_INPUT = {
    "N": 10_000,
    "counts": [[380, 20], [40, 60]],
    "mechanism": {"type": "mar", "rho_s": ["0.8", "0.2"]},
    "alpha": 0.05,
}


class TestEstimate:
    def test_known_share_reference_input(self):
        proc = run_cli(["estimate"], stdin=json.dumps(MAR_INPUT))
        assert proc.returncode == 0
        result = json.loads(proc.stdout)
        assert result["p_hat"] == pytest.approx(0.16, abs=1e-15)
        assert result["p0_hat"] == pytest.approx(0.16, abs=1e-15)
        assert result["sigma_p0"] > 0.0
        lo, hi = result["ci_p0"]
        assert lo < 0.16 < hi

    def test_uniform_testing_input_reports_zero_information(self):
        doc = dict(MAR_INPUT, mechanism={"type": "mcar"})
        proc = run_cli(["estimate"], stdin=json.dumps(doc))
        result = json.loads(proc.stdout)
        assert result["p0_hat"] == result["p_hat"]
        assert result["i_t_hat"] == 0.0

    def test_bounded_share_input(self):
        doc = dict(MAR_INPUT, mechanism={"type": "maxent"}, N=1000)
        doc["counts"] = [[380, 20], [40, 60]]
        proc = run_cli(["estimate"], stdin=json.dumps(doc))
        result = json.loads(proc.stdout)
        assert result["rho_hat"][1] == pytest.approx(0.15, abs=1e-12)
        assert result["p0_hat"] == pytest.approx(0.1325, abs=1e-12)

    def test_bounded_share_input_with_explicit_bounds(self):
        doc = dict(
            MAR_INPUT,
            mechanism={"type": "maxent", "lower": [0.7, 0.1], "upper": [0.9, 0.3]},
        )
        proc = run_cli(["estimate"], stdin=json.dumps(doc))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert abs(result["rho_hat"][1] - 0.2) < 0.02

    def test_bounded_share_output_ignores_seed_and_sample_count(self, tmp_path, capsys):
        mechanism = {"type": "maxent", "lower": [0.7, 0.1], "upper": [0.9, 0.3]}
        outputs = []
        for seed, n_samples in ((1, 1000), (2, 99_999)):
            path = tmp_path / f"table_{seed}.json"
            path.write_text(json.dumps(dict(MAR_INPUT, mechanism=mechanism, seed=seed, n_samples=n_samples)))
            assert main(["estimate", "--input", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_counts_exceeding_population_exit_2(self):
        doc = dict(MAR_INPUT, N=400)
        proc = run_cli(["estimate"], stdin=json.dumps(doc))
        assert proc.returncode == 2
        assert "exceeds the population" in proc.stderr

    def test_invalid_json_exit_2(self):
        proc = run_cli(["estimate"], stdin="{not json")
        assert proc.returncode == 2

    def test_file_input(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(MAR_INPUT))
        assert main(["estimate", "--input", str(path)]) == 0


def test_import_loads_no_scipy():
    code = "import sys, prevbias; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestRun:
    def test_writes_all_tables_and_manifest(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        proc = run_cli(["run", "--config", str(config), "--out-dir", str(out)])
        assert proc.returncode == 0, proc.stderr
        for suffix in ("activeinfo", "rmse", "coverage", "cifan"):
            assert (out / f"mar_{suffix}.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 20240101
        assert manifest["config_sha256"] == hashlib.sha256(config.read_bytes()).hexdigest()

    def test_row_counts_match_grid_and_replicates(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        with open(out / "mar_activeinfo.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["n"]) for r in rows] == [1000, 10_000]
        with open(out / "mar_cifan.csv") as handle:
            fan = list(csv.DictReader(handle))
        assert len(fan) == 2 * 50

    def test_reruns_are_byte_identical(self, tmp_path):
        config = small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out-dir", str(out1), "--threads", "1"]) == 0
        assert main(["run", "--config", str(config), "--out-dir", str(out2), "--threads", "4"]) == 0
        for name in ("mar_activeinfo.csv", "mar_rmse.csv", "mar_coverage.csv", "mar_cifan.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_recorded(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out), "--seed", "77"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 77

    def test_non_integer_stratum_size_exit_2(self, tmp_path):
        config = small_config(tmp_path, n_grid=[1000, 1010])
        proc = run_cli(["run", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert proc.returncode == 2
        assert "not an integer" in proc.stderr

    def test_internal_error_prints_type_and_traceback(self, tmp_path, monkeypatch, capsys):
        def broken_engine(cfg, threads=None):
            raise RuntimeError("engine failed")

        monkeypatch.setattr("prevbias.cli.run_experiment", broken_engine)
        config = small_config(tmp_path)
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "in broken_engine" in err
        assert err.rstrip().splitlines()[-1] == "internal error: RuntimeError: engine failed"

    def test_missing_config_exit_2(self, tmp_path):
        proc = run_cli(["run", "--config", str(tmp_path / "nope.json")])
        assert proc.returncode == 2

    def test_csv_round_trip_parses_as_floats(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        with open(out / "mar_rmse.csv") as handle:
            for row in csv.DictReader(handle):
                assert float(row["rmse_p0"]) >= 0.0
                assert int(row["n"]) in (1000, 10_000)

    def test_json_format(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out), "--format", "json"]) == 0
        rows = json.loads((out / "mar_activeinfo.json").read_text())
        assert len(rows) == 2
        assert set(rows[0]) >= {"n", "i_plus_t", "i_plus_c", "i_plus"}


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["mcar", "mar", "mnar", "coverage1", "coverage2"])
    def test_configs_parse_and_match_presets(self, name):
        from prevbias.config import load_scenario
        from prevbias import scenarios

        cfg, _ = load_scenario(CONFIG_DIR / f"{name}.json")
        preset = {
            "mcar": scenarios.mcar_scenario,
            "mar": scenarios.mar_scenario,
            "mnar": scenarios.mnar_scenario,
            "coverage1": lambda: scenarios.coverage_scenario(1),
            "coverage2": lambda: scenarios.coverage_scenario(2),
        }[name]()
        assert cfg.label == preset.label
        assert cfg.rho == preset.rho
        assert cfg.n_grid == preset.n_grid
        assert (cfg.pi == preset.pi).all()
        assert cfg.mechanism.kind == preset.mechanism.kind

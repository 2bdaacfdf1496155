"""Command-line surface: estimate, run, exit codes, and file round-trips."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prevbias.cli import _write_table, main

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

    def test_uniform_testing_intervals_are_those_of_the_biased_estimate(self):
        # p0_hat is p_hat, so ci_p0 is ci_p (sqrt(V3 / N) gave 0.007458 here
        # and covered p0 about 84% of the time), and I_T has no noise
        doc = {"N": 1000, "counts": [[451, 30], [29, 90]], "mechanism": {"type": "mcar"}}
        result = json.loads(run_cli(["estimate"], stdin=json.dumps(doc)).stdout)
        assert result["sigma_p0"] == result["sigma_p"] == pytest.approx(0.010328, abs=1e-6)
        assert result["ci_p0"] == result["ci_p"]
        assert (result["sigma_i_t"], result["ci_i_t"]) == (0.0, [0.0, 0.0])
        assert result["warnings"] == []

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

    @pytest.mark.parametrize(
        "doc",
        [
            {"N": 102, "counts": [[9, 5], [35, 15], [34, 4]],
             "mechanism": {"type": "mar", "rho_s": ["0.5", "0.3", "0.2"]}},
            {"N": 136, "counts": [[11, 2], [46, 9]],
             "mechanism": {"type": "maxent", "lower": [0.6, 0.15], "upper": [0.85, 0.4]}},
            # the benchmark's estimate workload, seed 49: class 1 is tested 23
            # times, more than N * 0.2 = 22.4
            {"N": 112, "counts": [[8, 0], [6, 17]], "mechanism": {"type": "mar", "rho_s": ["0.8", "0.2"]}},
        ],
    )
    def test_class_tested_beyond_its_share_has_no_standard_errors(self, capsys, tmp_path, doc):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(doc))
        assert main(["estimate", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        result = json.loads(captured.out)
        assert 0.0 < result["p_hat"] < 1.0 and 0.0 < result["p0_hat"] < 1.0
        assert not [key for key in result if key.startswith(("sigma", "ci_"))]
        [warning] = [w for w in result["warnings"] if w.startswith("standard errors unavailable: ")]
        assert warning.endswith("is negative; a symptom class was tested beyond N times its share")

    def test_zero_standard_error_gives_a_point_interval_on_the_estimate(self, capsys, tmp_path):
        # a table of the benchmark's estimate workload (seed 21): class 0 has
        # no positives and class 1 is tested 29 = N * 0.2 times, so V3 = 0
        doc = {"N": 145, "counts": [[8, 0], [7, 22]], "mechanism": {"type": "mar", "rho_s": ["0.8", "0.2"]}}
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(doc))
        assert main(["estimate", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        result = json.loads(captured.out)
        assert result["p0_hat"] == float(Fraction(1, 5) * Fraction(22, 29))
        assert result["sigma_p0"] == 0.0
        assert result["ci_p0"] == [result["p0_hat"], result["p0_hat"]]
        assert result["ci_p"][0] < result["p_hat"] < result["ci_p"][1]

    def test_counts_exceeding_population_exit_2(self):
        doc = dict(MAR_INPUT, N=400)
        proc = run_cli(["estimate"], stdin=json.dumps(doc))
        assert proc.returncode == 2
        assert "exceeds the population" in proc.stderr

    def test_invalid_json_exit_2(self, tmp_path):
        proc = run_cli(["estimate"], stdin="{not json")
        assert proc.returncode == 2
        # a directory cannot be read at all
        proc = run_cli(["estimate", "--input", str(tmp_path)])
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot read {tmp_path}: Is a directory\n"
        # nor can a stdin closed before Python starts, which leaves sys.stdin None
        proc = subprocess.run(
            [sys.executable, "-m", "prevbias", "estimate"], capture_output=True, text=True,
            preexec_fn=lambda: os.close(0),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: cannot read stdin: it is closed\n")
        # a document nested beyond the recursion limit does not decode either
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        for args, stdin, what in (
            (["estimate"], nested.read_text(), "input"),
            (["estimate", "--input", str(nested)], None, "input"),
            (["run", "--config", str(nested), "--out-dir", str(tmp_path / "out")], None, "config"),
        ):
            proc = run_cli(args, stdin=stdin)
            assert (proc.returncode, proc.stdout) == (2, ""), args
            assert proc.stderr.startswith(f"error: {what} is not valid JSON: maximum recursion depth exceeded")
            assert len(proc.stderr.splitlines()) == 1

    def test_file_input(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(MAR_INPUT))
        assert main(["estimate", "--input", str(path)]) == 0

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # an ignored string field holds the byte; in UTF-8 the same table reads
        path = tmp_path / "counts.json"
        path.write_bytes(json.dumps(dict(MAR_INPUT, note="é"), ensure_ascii=False).encode())
        assert main(["estimate", "--input", str(path)]) == 0
        path.write_bytes(path.read_bytes().replace("é".encode(), b"\xff"))
        capsys.readouterr()
        assert main(["estimate", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input is not valid JSON: ") and len(err.splitlines()) == 1
        # stdin is read as bytes too, so the stream's encoding does not matter
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        for stream_env in (dict(env, PYTHONIOENCODING="utf-8"), env):
            proc = subprocess.run(
                [sys.executable, "-m", "prevbias", "estimate"],
                input=path.read_bytes(),
                capture_output=True,
                env=stream_env,
            )
            assert (proc.returncode, proc.stderr.decode()) == (2, err)

    # unbuffered, the write fails in print; buffered, in the flush after it
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_1_quietly(self, tmp_path, unbuffered):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(MAR_INPUT))
        proc = subprocess.Popen(
            [sys.executable, "-m", "prevbias", "estimate", "--input", str(path)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
            text=True,
        )
        proc.stdout.close()  # the reader is gone before the child writes
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == ""  # no traceback, no "internal error"


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

    def test_seed_override_writes_what_the_file_seed_writes(self, tmp_path):
        outs = tmp_path / "override", tmp_path / "file", tmp_path / "default"
        assert main(["run", "--config", str(small_config(tmp_path)), "--out-dir", str(outs[0]), "--seed", "7"]) == 0
        assert main(["run", "--config", str(small_config(tmp_path, seed=7)), "--out-dir", str(outs[1])]) == 0
        assert main(["run", "--config", str(small_config(tmp_path)), "--out-dir", str(outs[2])]) == 0
        for suffix in ("activeinfo", "rmse", "coverage", "cifan"):
            name = f"mar_{suffix}.csv"
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert (outs[0] / "mar_cifan.csv").read_bytes() != (outs[2] / "mar_cifan.csv").read_bytes()

    @pytest.mark.parametrize("seed", [None, -1, 1.5, True, "x", 2**64])
    def test_seed_override_still_needs_a_valid_file_seed(self, capsys, tmp_path, seed):
        doc = json.loads(small_config(tmp_path).read_text())
        if seed is None:
            del doc["seed"]
        else:
            doc["seed"] = seed
        config = tmp_path / "bad_seed.json"
        config.write_text(json.dumps(doc))
        args = ["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]
        assert main(args) == 2
        plain = capsys.readouterr().err
        assert main([*args, "--seed", "7"]) == 2
        assert capsys.readouterr().err == plain
        assert plain.startswith("error: seed") or "'seed'" in plain
        assert not (tmp_path / "out").exists()

    def test_invalid_seed_override_exits_2(self, capsys, tmp_path):
        config = small_config(tmp_path)
        for seed in ("-1", str(2**64)):
            assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out"), "--seed", seed]) == 2
            assert capsys.readouterr().err.startswith("error: seed must be a whole number")
        assert not (tmp_path / "out").exists()

    def test_non_integer_stratum_size_exit_2(self, tmp_path):
        config = small_config(tmp_path, n_grid=[1000, 1010])
        proc = run_cli(["run", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert proc.returncode == 2
        assert "not an integer" in proc.stderr

    def test_internal_error_prints_type_and_traceback(self, tmp_path, monkeypatch, capsys):
        def broken_engine(cfg):
            raise RuntimeError("engine failed")

        monkeypatch.setattr("prevbias.experiments.run_experiment", broken_engine)
        config = small_config(tmp_path)
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "in broken_engine" in err
        assert err.rstrip().splitlines()[-1] == "internal error: RuntimeError: engine failed"
        assert not (tmp_path / "out").exists()

    def test_negative_plugin_variance_exits_3_in_one_line_and_writes_nothing(self, capsys, tmp_path):
        # three classes with bounded shares at N = 40: some replicates test a
        # class beyond N times its maxent mean share, so their V3 is negative
        doc = {
            "label": "s3", "seed": 1, "replicates": 200, "alpha": 0.05, "n_grid": [40],
            "population": {
                "rho": [["0.45", "0.05"], ["0.2", "0.1"], ["0.1", "0.1"]],
                "pi": [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]],
            },
            "mechanism": {"type": "maxent", "lower": [0.45, 0.15, 0.05], "upper": [0.65, 0.35, 0.25]},
        }
        config = tmp_path / "s3.json"
        config.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: V3 / N is negative in ")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [config]

    def test_missing_config_exit_2(self, tmp_path):
        for config, reason in (
            (tmp_path / "nope.json", "No such file or directory"),
            (tmp_path, "Is a directory"),
        ):
            proc = run_cli(["run", "--config", str(config)])
            assert proc.returncode == 2
            assert proc.stderr == f"error: cannot read {config}: {reason}\n"

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

    @pytest.mark.parametrize("label", ["../escaped", "a/b", "a\\b", "/x", ".", "..", ""])
    def test_label_that_is_not_a_file_name_writes_nothing(self, capsys, tmp_path, label):
        doc = json.loads((CONFIG_DIR / "mar.json").read_text())
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(doc, label=label, n_grid=[1000], replicates=5)))
        out = tmp_path / "nest" / "out"
        code = main(["run", "--config", str(config), "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: label must be a plain file-name stem")
        assert list(tmp_path.rglob("*")) == [config]

    def test_maxent_without_bounds_exits_2_and_writes_nothing(self, capsys, tmp_path):
        config = small_config(tmp_path, mechanism={"type": "maxent"})
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "need explicit share bounds" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_empty_maxent_region_exits_2_and_writes_nothing(self, capsys, tmp_path):
        mechanism = {"type": "maxent", "lower": [0.7, 0.6], "upper": [0.8, 0.7]}
        config = small_config(tmp_path, mechanism=mechanism)
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: no share vector satisfies the bounds")
        assert list(tmp_path.iterdir()) == [config]

    def test_maxent_bounds_beyond_the_exact_sum_exit_2_and_write_nothing(self, capsys, tmp_path):
        # 14 classes whose bounds differ, one more than the exact mean shares take
        mechanism = {"type": "maxent", "lower": [0] * 14, "upper": [0.2] * 14}
        table = tmp_path / "counts.json"
        table.write_text(json.dumps({"N": 1000, "counts": [[5, 5]] * 14, "mechanism": mechanism}))
        config = small_config(tmp_path, mechanism=mechanism)
        for args in (
            ["estimate", "--input", str(table)],
            ["run", "--config", str(config), "--out-dir", str(tmp_path / "out")],
        ):
            assert main(args) == 2
            assert capsys.readouterr() == ("", "error: exact mean shares support at most 13 free classes, got 14\n")
        assert sorted(tmp_path.iterdir()) == sorted([table, config])

    def test_out_dir_that_cannot_be_written_exits_3_in_one_line(self, capsys, tmp_path):
        config = small_config(tmp_path)
        blocked = tmp_path / "blocked"
        (blocked / "mar_activeinfo.csv").mkdir(parents=True)  # a directory where a table goes
        for out_dir, path, reason in (
            (config, config, "File exists"),
            (config / "sub", config / "sub", "Not a directory"),
            (blocked, blocked / "mar_activeinfo.csv", "Is a directory"),
        ):
            assert main(["run", "--config", str(config), "--out-dir", str(out_dir)]) == 3
            assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"


class TestTableWriter:
    """`_write_table` against the encoders it replaced: `json.dumps` with
    non-finite floats as null, and the per-cell csv rule kept here."""

    FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e16, 1.7976931348623157e308]
    # not in sorted order, so json must sort the keys and csv must keep them
    TABLE = {
        "x": FLOATS,
        "hit": [True, False] * 4,
        "n": [0, 2**62, 1, -7, 10**16, 3, 2**53 + 1, 42],
    }

    @staticmethod
    def _csv_cell(value) -> str:
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            return format(value, ".17g")
        return str(value)

    def test_json_bytes_are_those_of_json_dumps(self, tmp_path):
        path = tmp_path / "t.json"
        _write_table(path, self.TABLE, "json")
        rows = [
            {name: (None if isinstance(v, float) and not math.isfinite(v) else v) for name, v in zip(self.TABLE, row)}
            for row in zip(*self.TABLE.values())
        ]
        assert path.read_bytes() == (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode()

    def test_csv_bytes_follow_the_per_cell_rule(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_table(path, self.TABLE, "csv")
        lines = [",".join(self.TABLE)]
        lines += [",".join(map(self._csv_cell, row)) for row in zip(*self.TABLE.values())]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column", [[1, 2.5], [True, 1], [0.5, False], [1, "1"]])
    def test_a_column_that_mixes_types_raises(self, tmp_path, fmt, column):
        with pytest.raises(TypeError, match="column 'a'"):
            _write_table(tmp_path / f"t.{fmt}", {"a": column, "b": [0, 1]}, fmt)


class TestFractionShares:
    """Every number in a config or count table parses by one rule: fraction
    strings work wherever a share or probability goes, whole-number fields
    refuse fractions, and text that is not a number exits 2, naming the field."""

    def _estimate(self, capsys, doc, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(doc))
        code = main(["estimate", "--input", str(path)])
        return code, capsys.readouterr()

    @pytest.mark.parametrize(
        "fraction, decimal",
        [
            ({"type": "mar", "rho_s": ["4/5", "1/5"]}, {"type": "mar", "rho_s": ["0.8", "0.2"]}),
            (
                {"type": "maxent", "lower": ["7/10", "1/10"], "upper": ["9/10", "3/10"]},
                {"type": "maxent", "lower": [0.7, 0.1], "upper": [0.9, 0.3]},
            ),
        ],
    )
    def test_estimate_takes_fraction_strings(self, capsys, tmp_path, fraction, decimal):
        code, fraction_out = self._estimate(capsys, dict(MAR_INPUT, mechanism=fraction), tmp_path)
        assert code == 0, fraction_out.err
        code, decimal_out = self._estimate(capsys, dict(MAR_INPUT, mechanism=decimal), tmp_path)
        assert code == 0, decimal_out.err
        assert fraction_out.out == decimal_out.out

    @pytest.mark.parametrize(
        "mechanism",
        [
            {"type": "mar", "rho_s": ["4/5", "one fifth"]},
            {"type": "mar", "rho_s": ["1/0", "1"]},
            {"type": "mar", "rho_s": "0.8,0.2"},
            {"type": "mar", "rho_s": [float("nan"), 0.2]},
            {"type": "maxent", "lower": [float("nan"), 0.1], "upper": [0.9, 0.3]},
            {"type": "maxent", "lower": ["7/10", "1/10"], "upper": ["9/10", "3/ten"]},
        ],
    )
    def test_estimate_rejects_shares_that_are_not_numbers(self, capsys, tmp_path, mechanism):
        code, out = self._estimate(capsys, dict(MAR_INPUT, mechanism=mechanism), tmp_path)
        assert code == 2
        assert out.err.startswith("error: ")

    def test_run_takes_fraction_strings(self, tmp_path):
        fraction = small_config(tmp_path, mechanism={"type": "mar", "rho_s": ["4/5", "1/5"]})
        outs = tmp_path / "fraction", tmp_path / "decimal"
        assert main(["run", "--config", str(fraction), "--out-dir", str(outs[0])]) == 0
        assert main(["run", "--config", str(small_config(tmp_path)), "--out-dir", str(outs[1])]) == 0
        for suffix in ("activeinfo", "rmse", "coverage", "cifan"):
            name = f"mar_{suffix}.csv"
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize(
        "mechanism",
        [
            {"type": "mar", "rho_s": ["4/5", "x"]},
            {"type": "maxent", "lower": ["0.7", "1/10"], "upper": ["0.9", "0.3.1"]},
        ],
    )
    def test_run_rejects_shares_that_are_not_numbers(self, tmp_path, mechanism):
        config = small_config(tmp_path, mechanism=mechanism)
        proc = run_cli(["run", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert proc.returncode == 2, proc.stderr
        assert "is not a number" in proc.stderr
        assert "internal error" not in proc.stderr

    @pytest.mark.parametrize(
        "field, value",
        [
            ("N", 10_000.7),
            ("N", "lots"),
            ("N", True),
            ("N", "1e10000000"),
            ("counts", [[380.9, 20], [40, 60]]),
            ("counts", [["a", 20], [40, 60]]),
            ("counts", [[380, 20], [40]]),
            ("counts", [[1e30, 20], [40, 60]]),
            ("alpha", "x"),
        ],
    )
    def test_estimate_rejects_malformed_numbers(self, capsys, tmp_path, field, value):
        code, out = self._estimate(capsys, dict(MAR_INPUT, **{field: value}), tmp_path)
        assert code == 2, out.err
        assert out.err.startswith(f"error: {field}")
        assert out.out == ""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", "1e999"),
            ("alpha", int("9" * 400)),  # a 400-digit JSON integer
            ("mechanism", {"type": "mar", "rho_s": ["1e999", "0.2"]}),
            ("mechanism", {"type": "maxent", "lower": ["1e999", 0.1], "upper": [0.9, 0.3]}),
        ],
    )
    def test_estimate_rejects_numbers_beyond_the_float_range(self, capsys, tmp_path, field, value):
        code, out = self._estimate(capsys, dict(MAR_INPUT, **{field: value}), tmp_path)
        assert code == 2, out.err
        assert "out of range" in out.err
        assert "internal error" not in out.err

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", "1e999"), ("pi", [["1e999", "1/10"], ["9/10", "9/10"]])],
    )
    def test_run_rejects_numbers_beyond_the_float_range(self, capsys, tmp_path, field, value):
        doc = json.loads((CONFIG_DIR / "mar.json").read_text())
        if field == "pi":
            config = small_config(tmp_path, population=dict(doc["population"], pi=value))
        else:
            config = small_config(tmp_path, **{field: value})
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "out of range" in err
        assert "internal error" not in err
        assert list(tmp_path.iterdir()) == [config]

    def test_integer_too_long_to_read_exits_2(self, capsys, tmp_path):
        # json.loads refuses an integer literal beyond 4300 digits with a
        # ValueError that is not a JSONDecodeError
        alpha = '"alpha": ' + "9" * 5000
        table = tmp_path / "counts.json"
        table.write_text(json.dumps(dict(MAR_INPUT, alpha=0)).replace('"alpha": 0', alpha))
        config = small_config(tmp_path, alpha=0)
        config.write_text(config.read_text().replace('"alpha": 0', alpha))
        out = tmp_path / "out"
        for argv in (["estimate", "--input", str(table)], ["run", "--config", str(config), "--out-dir", str(out)]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, err
            assert err.startswith("error: ") and "4300" in err
            assert not out.exists()

    def test_run_takes_fraction_string_pi(self, tmp_path):
        doc = json.loads((CONFIG_DIR / "mar.json").read_text())
        population = dict(doc["population"], pi=[["1/10", "1/10"], ["9/10", "9/10"]])
        fraction = small_config(tmp_path, population=population)
        outs = tmp_path / "fraction", tmp_path / "decimal"
        assert main(["run", "--config", str(fraction), "--out-dir", str(outs[0])]) == 0
        assert main(["run", "--config", str(small_config(tmp_path)), "--out-dir", str(outs[1])]) == 0
        for suffix in ("activeinfo", "rmse", "coverage", "cifan"):
            name = f"mar_{suffix}.csv"
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_grid", [1000.5]),
            ("n_grid", [1e20]),
            ("n_grid", "1000"),
            ("replicates", 5.9),
            ("replicates", "many"),
            ("seed", 1.5),
            ("seed", True),
            ("alpha", "x"),
            ("alpha", "1e-10000000"),
            ("pi", [["x", "1/10"], ["9/10", "9/10"]]),
            ("pi", [["1/10", "1/10"], ["9/10"]]),
        ],
    )
    def test_run_rejects_malformed_numbers(self, capsys, tmp_path, field, value):
        doc = json.loads((CONFIG_DIR / "mar.json").read_text())
        if field == "pi":
            config = small_config(tmp_path, population=dict(doc["population"], pi=value))
        else:
            config = small_config(tmp_path, **{field: value})
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {field}")
        assert list(tmp_path.iterdir()) == [config]


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
        # the file is the preset's whole document: seed, replicates, alpha and
        # the mechanism's shares included
        assert json.loads((CONFIG_DIR / f"{name}.json").read_text()) == scenarios.scenario_document(name)
        assert cfg.label == preset.label
        assert cfg.rho == preset.rho
        assert cfg.n_grid == preset.n_grid
        assert (cfg.pi == preset.pi).all()
        assert cfg.mechanism.kind == preset.mechanism.kind

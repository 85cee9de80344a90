import contextlib
import csv
import errno
import gc
import hashlib
import io
import os
import re
import stat
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aquagauge
from aquagauge import cli, wqi
from aquagauge.cli import main
from aquagauge.forecast import FEATURE_NAMES, build_supervised, mse, r_squared, split_by_station
from aquagauge.gbm import deserialize_model
from aquagauge.ingest import impute_missing, parse_dataset
from aquagauge.rules import DEFAULT_RULES_RESOURCE
from conftest import STATION_HEADER, FIXTURE_ROWS, rows_to_csv, synthetic_station_rows
from test_gbm import node_view


@pytest.fixture
def fixture_csv_path(tmp_path, station_fixture_csv):
    path = tmp_path / "stations.csv"
    path.write_text(station_fixture_csv, encoding="utf-8")
    return str(path)


@pytest.fixture
def synthetic_csv_path(tmp_path, synthetic_station_csv):
    path = tmp_path / "synthetic.csv"
    path.write_text(synthetic_station_csv, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRAIN_ARGS = ["--n-trees", "30", "--max-depth", "3", "--min-samples-split", "8",
              "--min-samples-leaf", "3"]


class TestWqiCommand:
    def test_fixture_rows_legacy_mode(self, capsys, fixture_csv_path):
        code, out, _ = run(capsys, "wqi", "--input", fixture_csv_path, "--mode", "legacy-nco")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 5
        mirpur = next(r for r in rows if r["station_code"] == "1208")
        assert mirpur["wqi"] == "79.28"
        assert mirpur["nco"] == "40"
        assert mirpur["month_year"] == "8-2019"

    def test_layout_columns(self, capsys, fixture_csv_path):
        _, out, _ = run(capsys, "wqi", "--input", fixture_csv_path)
        header = out.splitlines()[0].split(",")
        assert header == ["station_code", "month_year", "nph", "ndo", "nbdo", "nec",
                          "nna", "nco", "wph", "wdo", "wbdo", "wec", "wna", "wco", "wqi"]

    def test_empty_csv_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(rows_to_csv(STATION_HEADER, []), encoding="utf-8")
        code, _, err = run(capsys, "wqi", "--input", str(path))
        assert code == 2
        assert "no samples" in err

    def test_strict_mode_names_bad_row(self, capsys, tmp_path):
        rows = [FIXTURE_ROWS[0], list(FIXTURE_ROWS[1])]
        rows[1][6] = "junk-ph"
        path = tmp_path / "bad.csv"
        path.write_text(rows_to_csv(STATION_HEADER, rows), encoding="utf-8")
        code, _, err = run(capsys, "wqi", "--input", str(path), "--strict")
        assert code == 2
        assert "row 2" in err

    def test_reproducible_output(self, capsys, fixture_csv_path, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(capsys, "wqi", "--input", fixture_csv_path, "--out", str(out1))[0] == 0
        assert run(capsys, "wqi", "--input", fixture_csv_path, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_echoed(self, capsys, fixture_csv_path):
        _, _, err = run(capsys, "wqi", "--input", fixture_csv_path)
        assert "log: mode=normative" in err
        assert "log: impute=drop" in err

    def test_provenance_counts_logged(self, capsys, tmp_path):
        rows = [list(r) for r in FIXTURE_ROWS]
        rows[1][12] = "13-2019"  # bad month-year: the row is dropped
        rows[2][4] = "warm"  # junk temperature: the cell is coerced to missing
        path = tmp_path / "defects.csv"
        path.write_text(rows_to_csv(STATION_HEADER, rows), encoding="utf-8")
        for command in ("wqi", "diagnose"):
            code, out, err = run(capsys, command, "--input", str(path))
            assert code == 0
            assert "log: rows_read=5 rows_dropped=1 cells_noted=1" in err.splitlines()
            assert len(out.splitlines()) == 1 + 4

    def test_imputed_cells_logged(self, capsys, tmp_path):
        rows = [list(r) for r in FIXTURE_ROWS]
        rows[1][6] = ""  # blank pH: missing, not noted
        rows[2][7] = "n/a"  # conductivity token: missing and noted
        path = tmp_path / "gaps.csv"
        path.write_text(rows_to_csv(STATION_HEADER, rows), encoding="utf-8")
        for impute, dropped, imputed in (("median", 0, 2), ("drop", 2, 0)):
            code, _, err = run(capsys, "diagnose", "--input", str(path), "--impute", impute)
            assert code == 0
            lines = err.splitlines()
            assert f"log: rows_read=5 rows_dropped={dropped} cells_noted=1" in lines
            assert f"log: cells_imputed={imputed}" in lines


class TestTrainCommand:
    def test_train_writes_model_and_curve(self, capsys, synthetic_csv_path, tmp_path):
        model_path = tmp_path / "model.txt"
        curve_path = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "train", "--input", synthetic_csv_path,
                           "--model", str(model_path), "--out", str(curve_path),
                           *TRAIN_ARGS)
        assert code == 0
        model = deserialize_model(model_path.read_text(encoding="utf-8"))
        assert len(model.trees) == 30
        assert f"final_training_loss={model.training_curve[-1]!r}" in out.splitlines()
        curve = [float(r["loss"]) for r in csv.DictReader(curve_path.read_text().splitlines())]
        assert len(curve) == 31
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_single_station_single_sample_exits_2(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(rows_to_csv(STATION_HEADER, [FIXTURE_ROWS[0]]), encoding="utf-8")
        code, _, err = run(capsys, "train", "--input", str(path))
        assert code == 2
        assert "2 observations" in err

    def test_stump_model_is_mean_of_train_targets(self, capsys, synthetic_csv_path, tmp_path):
        model_path = tmp_path / "stump.txt"
        code, _, _ = run(capsys, "train", "--input", synthetic_csv_path,
                         "--model", str(model_path), "--out", str(tmp_path / "c.csv"),
                         "--split", "all", "--n-trees", "1", "--max-depth", "0",
                         "--min-samples-split", "2", "--min-samples-leaf", "1")
        assert code == 0
        model = deserialize_model(model_path.read_text(encoding="utf-8"))
        assert len(model.trees) == 1
        assert [node[0] for node in node_view(model.trees[0])] == ["L"]

        text = Path(synthetic_csv_path).read_text(encoding="utf-8")
        task = build_supervised(impute_missing(parse_dataset(text), "drop_row"))
        assert model.f0 == pytest.approx(float(np.mean(task.targets)), abs=1e-12)

    @pytest.mark.parametrize("flag,value,message", [
        ("--n-trees", "-1", "n_trees must be >= 0"),
        ("--learning-rate", "0", "learning_rate must be in (0, 1]"),
        ("--min-samples-leaf", "0", "min_samples_leaf must be >= 1"),
        ("--max-depth", "-2", "max_depth must be >= 0"),
        ("--min-samples-split", "1", "min_samples_split must be >= 2"),
    ])
    def test_out_of_range_hyperparameter_exits_2(self, capsys, synthetic_csv_path, tmp_path, flag, value, message):
        model_path = tmp_path / "model.txt"
        code, _, err = run(capsys, "train", "--input", synthetic_csv_path, "--model", str(model_path),
                           "--out", str(tmp_path / "c.csv"), flag, value)
        assert code == 2
        assert f"error: {message}" in err.splitlines()
        assert not model_path.exists()

    def test_deterministic_model_file(self, capsys, synthetic_csv_path, tmp_path):
        paths = [tmp_path / "m1.txt", tmp_path / "m2.txt"]
        for p in paths:
            assert run(capsys, "train", "--input", synthetic_csv_path, "--model", str(p),
                       "--out", str(tmp_path / (p.stem + ".csv")), *TRAIN_ARGS)[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_curve_export(self, capsys, synthetic_csv_path, tmp_path):
        """The loss curve to plot is the CSV that train --out writes."""
        curve_path = tmp_path / "curve_data.csv"
        code, _, _ = run(capsys, "train", "--input", synthetic_csv_path,
                         "--model", str(tmp_path / "model.txt"), "--out", str(curve_path),
                         *TRAIN_ARGS)
        assert code == 0
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 1 + 31


@pytest.fixture
def trained_model_path(capsys, synthetic_csv_path, tmp_path):
    model_path = tmp_path / "trained.txt"
    code = main(["train", "--input", synthetic_csv_path, "--model", str(model_path),
                 "--out", str(tmp_path / "trained_curve.csv"), *TRAIN_ARGS])
    capsys.readouterr()
    assert code == 0
    return str(model_path)


class TestPredictCommand:
    def test_layout(self, capsys, synthetic_csv_path, trained_model_path):
        code, out, _ = run(capsys, "predict", "--input", synthetic_csv_path,
                           "--model", trained_model_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "station_code,month,year,wqi,predicted_wqi"
        assert len(lines) == 1 + 72  # every observation gets a prediction row

    def test_feature_mismatch_exits_2(self, capsys, synthetic_csv_path, tmp_path):
        bad = tmp_path / "bad_model.txt"
        bad.write_text(
            "AQUAGAUGE-GBM\nversion 1\nloss=squared_error\nn_trees=0\n"
            "learning_rate=0.10000000000000001\nmax_depth=8\nmin_samples_split=200\n"
            "min_samples_leaf=30\nseed=0\nf0=1\nfeature_names=a,b\ntraining_curve=0\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "predict", "--input", synthetic_csv_path, "--model", str(bad))
        assert code == 2
        assert "features" in err

    def test_missing_model_file_exits_2(self, capsys, synthetic_csv_path, tmp_path):
        code, _, _ = run(capsys, "predict", "--input", synthetic_csv_path,
                         "--model", str(tmp_path / "nope.txt"))
        assert code == 2


class TestEvaluateCommand:
    def test_summary_and_report(self, capsys, synthetic_csv_path, trained_model_path, tmp_path):
        report_path = tmp_path / "report.csv"
        code, out, _ = run(capsys, "evaluate", "--input", synthetic_csv_path,
                           "--model", trained_model_path, "--out", str(report_path))
        assert code == 0
        summary = re.fullmatch(r"mse=(\S+) r2=(\S+) mean_pct_err=(\S+)", out.strip().splitlines()[-1])
        assert summary and all(repr(float(v)) == v for v in summary.groups())
        rows = list(csv.reader(report_path.read_text().splitlines()))
        assert rows[0] == ["station_code", "month", "year", "actual", "predicted", "percentile_error"]
        assert rows[1:] and all(len(row) == 6 for row in rows[1:])

    def test_split_all_covers_every_pair(self, capsys, synthetic_csv_path, trained_model_path, tmp_path):
        report_path = tmp_path / "full.csv"
        code, _, _ = run(capsys, "evaluate", "--input", synthetic_csv_path,
                         "--model", trained_model_path, "--out", str(report_path),
                         "--split", "all")
        assert code == 0
        rows = list(csv.DictReader(report_path.read_text().splitlines()))
        assert len(rows) == 60  # 12 stations x 5 pairable observations

    def test_zero_actual_row_gets_empty_cell(self, capsys, trained_model_path, tmp_path):
        rows = synthetic_station_rows()
        # every sub-index 0, so WQI 0, for the second observation of station 2000,
        # which is the four-months-later target of its first observation
        rows[1][4:12] = ["25.0", "1.0", "5.0", "500", "200", "300", "9000", "9000"]
        data = tmp_path / "zero.csv"
        data.write_text(rows_to_csv(STATION_HEADER, rows), encoding="utf-8")
        report_path = tmp_path / "zero_report.csv"
        code, out, err = run(capsys, "evaluate", "--input", str(data), "--model", trained_model_path,
                             "--out", str(report_path), "--split", "all")
        assert code == 0
        assert "log: zero_actual_rows=1" in err
        report = list(csv.DictReader(report_path.read_text().splitlines()))
        assert len(report) == 60
        zero = [r for r in report if float(r["actual"]) == 0.0]
        assert len(zero) == 1 and zero[0]["percentile_error"] == ""
        mean = np.mean([float(r["percentile_error"]) for r in report if r["percentile_error"]])
        assert float(out.split("mean_pct_err=")[1]) == pytest.approx(mean, abs=1e-5)

    def test_logs_persistence_baseline(self, capsys, synthetic_csv_path, trained_model_path, tmp_path):
        """The logged baseline is the forecast "WQI in four months equals WQI
        now", the task's wqi feature column, scored by the library's metrics."""
        code, out, err = run(capsys, "evaluate", "--input", synthetic_csv_path, "--model", trained_model_path,
                             "--out", str(tmp_path / "report.csv"), "--split", "all")
        assert code == 0
        text = Path(synthetic_csv_path).read_text(encoding="utf-8")
        task = build_supervised(impute_missing(parse_dataset(text), "drop_row"))
        naive = task.features.values[:, FEATURE_NAMES.index("wqi")]
        naive_mse = mse(task.targets, naive)
        model_mse = float(out.split("mse=")[1].split()[0])
        assert (f"log: persistence_mse={naive_mse!r} persistence_r2={r_squared(task.targets, naive)!r} "
                f"skill={1.0 - model_mse / naive_mse!r}") in err.splitlines()

    def test_perfect_persistence_has_undefined_skill(self, capsys, trained_model_path, tmp_path):
        """Stations that each keep one WQI make persistence exact while the
        actuals still differ from station to station."""
        rows, first = synthetic_station_rows(), {}
        for row in rows:
            row[4:12] = first.setdefault(row[1], row[4:12])
        data = tmp_path / "steady.csv"
        data.write_text(rows_to_csv(STATION_HEADER, rows), encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--input", str(data), "--model", trained_model_path,
                           "--out", str(tmp_path / "report.csv"), "--split", "all")
        assert code == 0
        assert "log: persistence_mse=0.0 persistence_r2=1.0 skill=undefined" in err.splitlines()

    def test_bad_split_spec_exits_2(self, capsys, synthetic_csv_path, trained_model_path):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--input", synthetic_csv_path, "--model", trained_model_path, "--split", "bogus"])
        assert exc.value.code == 2
        assert "--split" in capsys.readouterr().err


class TestDiagnoseCommand:
    def test_layout(self, capsys, fixture_csv_path):
        code, out, _ = run(capsys, "diagnose", "--input", fixture_csv_path,
                           "--mode", "legacy-nco")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert set(rows[0]) == {"station_code", "month", "year", "wqi", "disease", "suggestion"}
        assert len(rows) == 5

    def test_custom_rules_file(self, capsys, fixture_csv_path, tmp_path):
        rules_path = tmp_path / "custom.rules"
        rules_path.write_text('rule 1 "Everything" reason "r" suggest "chill" when wqi >= 0\n',
                              encoding="utf-8")
        _, out, _ = run(capsys, "diagnose", "--input", fixture_csv_path,
                        "--rules", str(rules_path))
        rows = list(csv.DictReader(out.splitlines()))
        assert {r["disease"] for r in rows} == {"Everything"}

    def test_empty_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(rows_to_csv(STATION_HEADER, []), encoding="utf-8")
        assert run(capsys, "diagnose", "--input", str(path))[0] == 2

    def test_nul_in_rules_file_exits_2(self, capsys, fixture_csv_path, tmp_path):
        rules_path = tmp_path / "nul.rules"
        rules_path.write_text('rule 1 "Every\0thing" reason "r" suggest "s" when wqi >= 0\n', encoding="utf-8")
        code, _, err = run(capsys, "diagnose", "--input", fixture_csv_path, "--rules", str(rules_path))
        assert code == 2
        assert "line 1: line holds a NUL character" in err


def _fixture_text(end: str) -> str:
    """The fixture station CSV with each record ending in `end`; one row's
    station code and location hold a quoted CRLF."""
    rows = [list(row) for row in FIXTURE_ROWS]
    rows[1][1:3] = ["12\r\n07", "Dhanmondi 27 Area,\r\nDhaka"]
    buf = io.StringIO()
    csv.writer(buf, lineterminator=end).writerows([STATION_HEADER, *rows])
    return buf.getvalue()


def test_one_line_end_rule_through_library_and_cli(capsys, tmp_path):
    """LF, CRLF and CR-only copies of one station CSV parse alike through
    parse_dataset and give the same bytes through the CLI; a line break in a
    quoted cell is kept as written by both."""
    parsed, written = [], []
    for name, end in [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")]:
        text = _fixture_text(end)
        ds = parse_dataset(text)
        parsed.append((ds.samples, ds.provenance))
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        for command in ("wqi", "diagnose"):
            out = tmp_path / f"{name}-{command}.csv"
            assert run(capsys, command, "--input", str(path), "--out", str(out))[0] == 0
            written.append(out.read_bytes())
    assert parsed[1:] == parsed[:1] * 2
    assert written[2:] == written[:2] * 2
    samples = parsed[0][0]
    assert len(samples) == 5 and not parsed[0][1].dropped
    assert "Dhanmondi 27 Area,\r\nDhaka" in [s.location for s in samples]
    assert "12\r\n07" in [s.station_code for s in samples]
    for out in written[:2]:  # wqi and diagnose write no location
        assert b'\n"12\r\n07",8' in out


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_crlf_model_exits_2(capsys, synthetic_csv_path, trained_model_path, tmp_path, command):
    """The CLI hands deserialize_model the file as written, so a model with
    CRLF line ends is refused as the library refuses it."""
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(Path(trained_model_path).read_bytes().replace(b"\n", b"\r\n"))
    code, _, err = run(capsys, command, "--input", synthetic_csv_path, "--model", str(crlf),
                       "--out", str(tmp_path / "out.csv"))
    assert code == 2
    assert "first line 'AQUAGAUGE-GBM\\r'" in err


LATIN1 = b"Dh\xe2ka"  # 'Dhâka' in Latin-1: \xe2 starts no valid UTF-8 sequence here


@pytest.mark.parametrize("kind", ["station-csv", "rules", "model"])
def test_file_that_is_not_utf8_exits_2(capsys, fixture_csv_path, trained_model_path, tmp_path, kind):
    bad = tmp_path / f"bad-{kind}"
    if kind == "station-csv":
        text = rows_to_csv(STATION_HEADER, [[FIXTURE_ROWS[0][0], "@", *FIXTURE_ROWS[0][2:]]])
        bad.write_bytes(text.encode("utf-8").replace(b"@", LATIN1))
        argv = ["wqi", "--input", str(bad)]
    elif kind == "rules":
        bad.write_bytes(b"# " + LATIN1 + b"\n")
        argv = ["diagnose", "--input", fixture_csv_path, "--rules", str(bad)]
    else:
        with open(trained_model_path, "rb") as fh:
            bad.write_bytes(fh.read().replace(b"feature_names=", b"feature_names=" + LATIN1 + b"_", 1))
        argv = ["predict", "--input", fixture_csv_path, "--model", str(bad)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"error: {bad} is not UTF-8" in err
    assert "internal error" not in err


def test_seed_only_on_split_commands(capsys, synthetic_csv_path, tmp_path):
    """--seed exists only where a station split is drawn: train writes it to
    the model file, and evaluate reads it from there."""
    for command in ("wqi", "predict", "evaluate", "diagnose"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", synthetic_csv_path, "--seed", "1"])
        assert exc.value.code == 2
    capsys.readouterr()
    model = tmp_path / "model.txt"
    code, _, err = run(capsys, "train", "--input", synthetic_csv_path, "--model", str(model),
                       "--out", str(tmp_path / "c.csv"), "--seed", "1", *TRAIN_ARGS)
    assert code == 0 and "log: seed=1" in err.splitlines()
    assert deserialize_model(model.read_text(encoding="utf-8")).hyperparams.seed == 1


def test_evaluate_splits_with_the_models_seed(capsys, synthetic_csv_path, tmp_path):
    """evaluate scores exactly the stations that train held out with the
    model's seed=, and takes no --seed that could choose others."""
    model = tmp_path / "model.txt"
    assert run(capsys, "train", "--input", synthetic_csv_path, "--model", str(model),
               "--out", str(tmp_path / "c.csv"), "--seed", "5", *TRAIN_ARGS)[0] == 0
    evaluate = ["evaluate", "--input", synthetic_csv_path, "--model", str(model)]
    code, _, err = run(capsys, *evaluate, "--out", str(tmp_path / "default.csv"))
    assert code == 0
    assert "log: seed=5 (from the model file)" in err.splitlines()
    text = Path(synthetic_csv_path).read_text(encoding="utf-8")
    held_out = split_by_station(build_supervised(impute_missing(parse_dataset(text), "drop_row")), 0.2, 5)[1]
    with open(tmp_path / "default.csv", encoding="utf-8", newline="") as fh:
        report = [(r["station_code"], int(r["month"]), int(r["year"])) for r in csv.DictReader(fh)]
    assert report == held_out.keys.tolist()

    with pytest.raises(SystemExit) as exc:
        main([*evaluate, "--out", str(tmp_path / "seed-0.csv"), "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
    assert not (tmp_path / "seed-0.csv").exists()
    assert run(capsys, *evaluate, "--out", str(tmp_path / "all.csv"), "--split", "all")[0] == 0


@pytest.mark.parametrize("argv", [
    ["train", "--mode", "legacy-nco"],
    ["predict", "--mode", "legacy-nco"],
    ["predict", "--mode", "normative"],  # an abbreviation of --model, were abbreviations allowed
    ["evaluate", "--mode", "legacy-nco"],
    ["train", "--split", "station:0.5"],
    ["evaluate", "--split", "station:0.5"],
    ["train", "--impute", "median"],
    ["train", "--impute", "drop"],
    ["evaluate", "--impute", "median"],
    ["evaluate", "--impute", "drop"],
])
def test_forecasting_takes_no_mode_or_split_fraction(request, capsys, synthetic_csv_path, tmp_path, argv):
    """train, predict and evaluate share one scoring mode and one held-out
    fraction, and train and evaluate always drop a row missing a WQI input,
    so none of these comes from the command line."""
    work = tmp_path / "work"
    work.mkdir()
    model = str(work / "model.txt") if argv[0] == "train" else request.getfixturevalue("trained_model_path")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", synthetic_csv_path, "--model", model, "--out", str(work / "out.csv")])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err
    assert not any(work.iterdir())


def test_evaluate_refuses_a_model_fitted_on_other_data(capsys, synthetic_csv_path, tmp_path):
    """A default evaluate scores only a model whose f0 is the target mean of
    the input's training side: a --split all model saw the held-out stations,
    and a model trained on another CSV saw other data. --split all scores either."""
    other = tmp_path / "other.csv"
    other.write_text(rows_to_csv(STATION_HEADER, synthetic_station_rows(seed=12)), encoding="utf-8")
    models = {"split-all": tmp_path / "all.txt", "other-csv": tmp_path / "other.txt"}
    for argv in (["--input", synthetic_csv_path, "--model", str(models["split-all"]), "--split", "all"],
                 ["--input", str(other), "--model", str(models["other-csv"])]):
        assert run(capsys, "train", *argv, "--out", str(tmp_path / "c.csv"), *TRAIN_ARGS)[0] == 0
    for model in models.values():
        report = tmp_path / f"{model.stem}-report.csv"
        evaluate = ["evaluate", "--input", synthetic_csv_path, "--model", str(model), "--out", str(report)]
        code, out, err = run(capsys, *evaluate)
        assert code == 2 and out == ""
        f0 = deserialize_model(model.read_text(encoding="utf-8")).f0
        assert f"error: the model (f0={f0!r}) was not fitted on the training side of {synthetic_csv_path}; " \
               "--split all scores a model on any input" in err.splitlines()
        assert not report.exists()
        assert run(capsys, *evaluate, "--split", "all")[0] == 0


def test_evaluate_refuses_an_input_with_no_example(capsys, fixture_csv_path, trained_model_path, tmp_path):
    """No fixture station has a second observation 3-5 months on, so the task
    is empty: its training side cannot have fitted the model, and --split all
    has nothing to score."""
    evaluate = ["evaluate", "--input", fixture_csv_path, "--model", trained_model_path,
                "--out", str(tmp_path / "report.csv")]
    f0 = deserialize_model(Path(trained_model_path).read_text(encoding="utf-8")).f0
    code, _, err = run(capsys, *evaluate)
    assert (code, err.splitlines()[-1]) == (2, f"error: the model (f0={f0!r}) was not fitted on the training "
                                               f"side of {fixture_csv_path}; --split all scores a model on any input")
    code, _, err = run(capsys, *evaluate, "--split", "all")
    assert (code, err.splitlines()[-1]) == (2, "error: evaluation task is empty")
    assert not (tmp_path / "report.csv").exists()


def test_train_help_names_the_split_seed(capsys):
    """--seed is the one hyperparameter flag with a help line: it seeds the station split."""
    with pytest.raises(SystemExit, match="^0$"):
        main(["train", "--help"])
    assert re.search(r"--seed SEED +seed of the station split\n", capsys.readouterr().out)


@settings(max_examples=8, deadline=None)
@given(n_stations=st.integers(15, 22), n_periods=st.integers(3, 6), data_seed=st.integers(0, 199),
       split_seed=st.integers(0, 3))
def test_evaluate_scores_exactly_the_model_of_its_training_side(tmp_path_factory, n_stations, n_periods,
                                                                 data_seed, split_seed):
    """On any generated station CSV a default train then a default evaluate
    exits 0, and a --split all model exits 2, so the f0 check never refuses a
    matching pair. With 15 or more stations the held-out side holds three, so
    its actuals are never all one value."""
    work = tmp_path_factory.mktemp("pair")
    data = work / "stations.csv"
    data.write_text(rows_to_csv(STATION_HEADER, synthetic_station_rows(n_stations, n_periods, data_seed)),
                    encoding="utf-8")
    codes = []
    for split in ("station:0.2", "all"):
        model = str(work / f"{split}.txt")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["train", "--input", str(data), "--model", model, "--out", str(work / "c.csv"),
                         "--split", split, "--seed", str(split_seed), *TRAIN_ARGS]) == 0
            codes.append(main(["evaluate", "--input", str(data), "--model", model,
                               "--out", str(work / "report.csv")]))
    assert codes == [0, 2]


@pytest.mark.parametrize("argv", [
    ["train", "--input", "{data}", "--model", "{model}", "--out", "{model}"],
    ["evaluate", "--input", "{data}", "--model", "{model}", "--out", "{model}"],
    ["predict", "--input", "{data}", "--model", "{model}", "--out", "{data}"],
], ids=["train-model-is-out", "evaluate-model-is-out", "predict-out-is-input"])
def test_no_output_overwrites_an_input_or_output(capsys, synthetic_csv_path, trained_model_path, argv):
    files = {"data": synthetic_csv_path, "model": trained_model_path}
    before = {path: Path(path).read_bytes() for path in files.values()}
    code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert code == 2 and out == ""
    assert re.search(r"^error: --\w+ .* is the same file as --\w+ ", err, re.M)
    assert {path: Path(path).read_bytes() for path in files.values()} == before


def test_output_path_spelt_differently_is_still_the_input(capsys, synthetic_csv_path, tmp_path):
    """Two spellings of one file, and a hard link to it, name the same file."""
    model = tmp_path / "m.txt"
    link = tmp_path / "link.txt"
    model.write_text("kept\n", encoding="utf-8")
    os.link(model, link)
    for out in (str(tmp_path / "." / "m.txt"), str(link)):
        code, _, err = run(capsys, "evaluate", "--input", synthetic_csv_path, "--model", str(model), "--out", out)
        assert code == 2 and "is the same file as --model" in err
    assert model.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_failed_write_names_the_given_path(capsys, fixture_csv_path, synthetic_csv_path, tmp_path, target):
    """The error names the path the user gave and the OS reason, not the
    temporary file the write went through, and no temporary file is left."""
    if target == "missing-directory":
        path = str(tmp_path / "absent" / "m.txt")
        argv = ["train", "--input", synthetic_csv_path, "--model", path, "--out", str(tmp_path / "c.csv"),
                *TRAIN_ARGS]
        reason = os.strerror(errno.ENOENT)
    else:
        (tmp_path / "taken").mkdir()
        path = str(tmp_path / "taken")
        argv = ["diagnose", "--input", fixture_csv_path, "--out", path]
        reason = os.strerror(errno.EISDIR)
    before = sorted(tmp_path.rglob("*"))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"error: cannot write {path}: {reason}" in err.splitlines()
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_write_of_another_kind_leaves_no_temporary_file(monkeypatch, tmp_path):
    """An exception that is not an OSError passes through unchanged, and the
    temporary file is still removed."""
    def replace(src, dst):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(cli.os, "replace", replace)
    with pytest.raises(RuntimeError, match="^interrupted$"):
        cli._atomic_write(str(tmp_path / "out.csv"), "text\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rows", [[], [[*FIXTURE_ROWS[0][:12], "13-2019"]]], ids=["header-only", "row-dropped"])
@pytest.mark.parametrize("command", ["train", "predict", "evaluate", "diagnose"])
def test_no_usable_row_exits_2(request, capsys, tmp_path, command, rows):
    """Every command that reads a station CSV refuses one that leaves no
    sample after the parse and the missing-value policy, as wqi does
    (TestWqiCommand.test_empty_csv_exits_2)."""
    path = tmp_path / "empty.csv"
    path.write_text(rows_to_csv(STATION_HEADER, rows), encoding="utf-8")
    argv = [command, "--input", str(path), "--out", str(tmp_path / "out.csv")]
    if command in ("train", "predict", "evaluate"):
        model = str(tmp_path / "m.txt") if command == "train" else request.getfixturevalue("trained_model_path")
        argv += ["--model", model]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines()[-1] == "error: no samples"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command,seed", [("train", "-5"), ("evaluate", "-1")])
def test_negative_seed_exits_2(request, capsys, synthetic_csv_path, tmp_path, command, seed):
    # train refuses the seed; evaluate has no --seed, so argparse refuses the flag
    model = request.getfixturevalue("trained_model_path") if command == "evaluate" else str(tmp_path / "m.txt")
    argv = [command, "--input", synthetic_csv_path, "--model", model,
            "--out", str(tmp_path / "out.csv"), "--seed", seed]
    if command == "evaluate":
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        return
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error: seed must be >= 0" in err.splitlines()


def test_negative_seed_without_split_exits_2(capsys, synthetic_csv_path, tmp_path):
    model = tmp_path / "m.txt"
    code, _, err = run(capsys, "train", "--input", synthetic_csv_path, "--model", str(model),
                       "--out", str(tmp_path / "c.csv"), "--split", "all", "--seed", "-5")
    assert code == 2
    assert "error: seed must be >= 0" in err.splitlines()
    assert not model.exists()


def test_evaluate_negative_seed_without_split_exits_2(capsys, synthetic_csv_path, trained_model_path, tmp_path):
    """evaluate takes no --seed, with or without a station split."""
    out = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--input", synthetic_csv_path, "--model", trained_model_path,
              "--out", str(out), "--split", "all", "--seed", "-5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed -5" in capsys.readouterr().err
    assert not out.exists()


# Every command, in one fresh interpreter, through cli.main; then the names of
# the numpy.ma modules it imported.
_EVERY_COMMAND = """
import sys
from aquagauge.cli import main

csv_path, work = sys.argv[1:]
for argv in (["train", "--input", csv_path, "--model", f"{work}/m.txt", "--out", f"{work}/curve.csv",
              "--n-trees", "5", "--min-samples-split", "8", "--min-samples-leaf", "3"],
             ["predict", "--input", csv_path, "--impute", "median", "--model", f"{work}/m.txt",
              "--out", f"{work}/predict.csv"],
             ["evaluate", "--input", csv_path, "--model", f"{work}/m.txt", "--out", f"{work}/report.csv"],
             ["wqi", "--input", csv_path, "--out", f"{work}/wqi.csv"],
             ["diagnose", "--input", csv_path, "--out", f"{work}/diagnose.csv"]):
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name == "numpy.ma" or name.startswith("numpy.ma.")))
"""


def test_no_command_imports_numpy_ma(synthetic_csv_path, tmp_path):
    """Importing numpy.ma takes about 15 ms, which np.unique's first call
    would add to a command; no command needs it."""
    env = {**os.environ, "PYTHONPATH": str(Path(aquagauge.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", _EVERY_COMMAND, synthetic_csv_path, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


@pytest.mark.parametrize("existing", [None, 0o640], ids=["new-file", "existing-file"])
def test_output_file_mode_is_that_of_open(capsys, fixture_csv_path, tmp_path, umask_022, existing):
    """Outputs get the mode open(path, "w") gives: 0o666 less the umask for
    a new file, the old mode for a file written over."""
    out = tmp_path / "scores.csv"
    if existing is not None:
        out.write_text("old\n")
        out.chmod(existing)
    code, _, _ = run(capsys, "wqi", "--input", fixture_csv_path, "--out", str(out))
    assert code == 0 and out.read_text().startswith("station_code,")
    assert stat.S_IMODE(out.stat().st_mode) == (0o644 if existing is None else existing)


# sha256 of each CLI output on the conftest fixtures, computed with the
# one-sample scoring loops the column path replaced.
GOLDEN_SHA256 = {
    ("fixture", "wqi", "normative"): "7bb0789082584a3c56e26bb7997716b13163c92fbdff7fc1feb8867e1051fc77",
    ("fixture", "wqi", "legacy-nco"): "69a2cd268066890e69c6172022263f321ddb5cca86195fa497ae7a97c60a1f1f",
    ("fixture", "diagnose", "normative"): "438fbf1f46691834fadeb0bbd3ca041d99e8061608f79e8d66463a4f6ee39148",
    ("fixture", "diagnose", "legacy-nco"): "2c864a8f2ab0b6f64418599093e202e95dbde837c2f21b6743638fa925c1306d",
    ("fixture", "predict", "normative"): "3c53d51a0c7482b50d2f4da8f988fb373f3c35b200db7d02673c7ff33cc02e3a",
    ("synthetic", "wqi", "normative"): "81a2eaad800d072d37acab2f5e6999d1f9d576ba3c72885254fe42ccde9df1ac",
    ("synthetic", "wqi", "legacy-nco"): "942924b9968c0dc0db57e5b4b7e8b4f90d11b78c18a7e6a8f1e50e6a74a5d459",
    ("synthetic", "diagnose", "normative"): "3a995f1441b78190fd82ac072932d8b9156d429707d8da36704b792056153afd",
    ("synthetic", "diagnose", "legacy-nco"): "8d0b609ca40b536847bcdcb54727758539db774cb27d2d97cc8d0bdaff3af6f2",
    ("synthetic", "predict", "normative"): "d2f233e58321619b1679b689219d55e8bd32297bbdf6e2614a1f713a7e8b7cba",
}


@pytest.mark.parametrize("data,command,mode", sorted(GOLDEN_SHA256))
def test_golden_output_csv(capsys, fixture_csv_path, synthetic_csv_path, trained_model_path, tmp_path,
                           data, command, mode):
    out = tmp_path / "out.csv"
    argv = [command, "--input", fixture_csv_path if data == "fixture" else synthetic_csv_path, "--out", str(out)]
    if command == "predict":  # forecasting always scores normatively
        argv += ["--model", trained_model_path]
    else:
        argv += ["--mode", mode]
    assert run(capsys, *argv)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[data, command, mode]


# sha256 of the train curve and the evaluate report on the synthetic fixture,
# computed with the row-at-a-time writer that the column writer replaced.
GOLDEN_TABLE_SHA256 = {
    "curve": "e29353e0b58185691437aa3a8d2347cf551bccfc438df5cb055160474620def1",
    "report": "713bb280c1ccbe0d0f35d6460a4db850654a459b1b594c4979b042c1c687092a",
}


def test_golden_model_side_csvs(capsys, synthetic_csv_path, tmp_path):
    out = {name: tmp_path / f"{name}.csv" for name in GOLDEN_TABLE_SHA256}
    model = str(tmp_path / "model.txt")
    for argv in (
        ["train", "--input", synthetic_csv_path, "--model", model, "--out", str(out["curve"]), *TRAIN_ARGS],
        ["evaluate", "--input", synthetic_csv_path, "--model", model, "--out", str(out["report"])],
    ):
        assert run(capsys, *argv)[0] == 0, argv
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()} == GOLDEN_TABLE_SHA256


# sha256 of every CSV of the quoted station code below, computed with the
# row-at-a-time writer.
QUOTED_CODE_SHA256 = {
    "wqi": "860e16c49871490b8ad5a534335f1e0600ab8a95eb6dc8599091bc4df7dc9440",
    "diagnose": "c194c903af358a396a80d93bb8cd2784770b9103a519c116007872bdb2444db4",
    "predict": "a9d468640dbdd46c5562c9ece1e708071dac0b597e7463216162cb6eaa55926d",
    "curve": "3fa32716f6083f7ec6bc6c30602e7b64df573f954761fdbe44d7cf812ce0fcca",
    "report": "c2abb43658c19f97a672d4d19bf7787a4328e6dc4cb61edb7871ece73729f913",
}


def test_every_csv_shares_one_dialect(capsys, tmp_path):
    """A station code that needs quoting survives every CSV the commands
    write, and every file ends its lines with LF alone."""
    code = 'Stn "7", Sõ'
    rows = [[row[0], code if row[1] == "2003" else row[1], *row[2:]] for row in synthetic_station_rows()]
    data, model = tmp_path / "odd.csv", tmp_path / "model.txt"
    data.write_text(rows_to_csv(STATION_HEADER, rows), encoding="utf-8")
    out = {name: tmp_path / f"{name}.csv" for name in QUOTED_CODE_SHA256}
    commands = [
        ["wqi", "--input", str(data), "--out", str(out["wqi"])],
        ["diagnose", "--input", str(data), "--out", str(out["diagnose"])],
        ["train", "--input", str(data), "--model", str(model), "--out", str(out["curve"]),
         "--split", "all", *TRAIN_ARGS],
        ["predict", "--input", str(data), "--model", str(model), "--out", str(out["predict"])],
        ["evaluate", "--input", str(data), "--model", str(model), "--out", str(out["report"]),
         "--split", "all"],
    ]
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv
    for name, path in out.items():
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n"), name
        with open(path, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert len({len(record) for record in table}) == 1, name
        if name in ("wqi", "diagnose", "predict", "report"):
            assert code in [record[0] for record in table[1:]], name
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()} == QUOTED_CODE_SHA256


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Run the test with the cyclic collector on or off, and put it back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _internal_error(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize("outcome", ["exit-0", "exit-2", "exit-3", "usage"])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, fixture_csv_path, tmp_path,
                                                   collector, outcome):
    argv = ["wqi", "--input", fixture_csv_path if outcome != "exit-2" else str(tmp_path / "absent.csv")]
    if outcome == "exit-3":
        monkeypatch.setattr(wqi, "score_columns", _internal_error)
    if outcome == "usage":
        with pytest.raises(SystemExit):
            main(["wqi", "--no-such-flag"])
    else:
        assert run(capsys, *argv)[0] == int(outcome[-1])
    assert gc.isenabled() is collector


def test_a_run_builds_no_cycles_per_row(capsys, tmp_path):
    """A collector-free run leaves a fixed few hundred objects of cyclic
    garbage, nearly all of them argparse's (394 on Python 3.11), whatever the
    input's size; a cycle built per row of this 1200-row input would leave
    more than the bound."""
    data, model = tmp_path / "big.csv", str(tmp_path / "model.txt")
    data.write_text(rows_to_csv(STATION_HEADER, synthetic_station_rows(n_stations=150, n_periods=8)),
                    encoding="utf-8")
    runs = [
        ["train", "--input", str(data), "--model", model, "--out", str(tmp_path / "c.csv"), *TRAIN_ARGS],
        ["diagnose", "--input", str(data), "--out", str(tmp_path / "d.csv")],
        ["predict", "--input", str(data), "--model", model, "--out", str(tmp_path / "p.csv")],
    ]
    was = gc.isenabled()
    gc.disable()
    try:
        for argv in runs:
            gc.collect()
            assert run(capsys, *argv)[0] == 0, argv
            assert gc.collect() < 1000, argv[0]
    finally:
        if was:
            gc.enable()


# Cells a station CSV may hold where a number or a date belongs; '"' is written bare, so it opens a quoted cell it never closes,
# and the last is one character over the csv module's field size limit.
HOSTILE_CELLS = ["", "n/a", "1e400", "-inf", "1e-320", "٣", "1_000", "0x10", '"', "13-2019", "2019-8", "0-2020",
                 "7" * (csv.field_size_limit() + 1)]


def _raw_cell(cell: str) -> str:
    if cell == '"' or not any(char in cell for char in ',"\r\n'):
        return cell
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def mutated_csv(draw, header, rows):
    """CSV text of the rows with some cells made hostile, then the rows
    kept, shuffled, cut short or one of them repeated, each line ending in
    LF, CRLF or CR."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
        rows[i][j] = draw(st.sampled_from(HOSTILE_CELLS))
    how = draw(st.sampled_from(["keep", "shuffle", "cut", "repeat"]))
    if how == "shuffle":
        rows = draw(st.permutations(rows))
    elif how == "cut":
        rows = rows[: draw(st.integers(0, len(rows)))]
    elif how == "repeat":
        rows.insert(0, rows[draw(st.integers(0, len(rows) - 1))])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(",".join(map(_raw_cell, row)) + end for row in [header, *rows])


# Words a rules file or a model file may hold where a number, a name or a
# keyword belongs: a lone '"' opens a quotation it never closes, "\f" ends a
# line for str.splitlines, and the last is a 400-digit number.
PROBE_TOKENS = ["nan", "1e400", "٣", '"', "\0", "\f", "between 5 1", "9" * 400]


@st.composite
def mutated_text(draw, text):
    """The text with some of its words replaced by a probe token, led by
    one, or deleted; a word is what lies between spaces, '=', ',' and line
    ends."""
    parts = re.split(r"([ =,\n])", text)  # words at even indices, separators between
    for _ in range(draw(st.integers(1, 6))):
        i = 2 * draw(st.integers(0, len(parts) // 2))
        token = draw(st.sampled_from(PROBE_TOKENS))
        parts[i] = draw(st.sampled_from([token, f"{token} {parts[i]}", ""]))
    return "".join(parts)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """A small generated station CSV's rows and the file of them, a model
    trained on them with its text, and the shipped rules text."""
    work = tmp_path_factory.mktemp("totality")
    rows = synthetic_station_rows(n_stations=8, n_periods=5)
    data, model = work / "clean.csv", str(work / "model.txt")
    data.write_text(rows_to_csv(STATION_HEADER, rows), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["train", "--input", str(data), "--model", model, "--out", str(work / "c.csv"),
                     "--split", "all", *TRAIN_ARGS]) == 0
    rules_text = resources.files("aquagauge.data").joinpath(DEFAULT_RULES_RESOURCE).read_text("utf-8")
    return work, rows, str(data), model, Path(model).read_text(encoding="utf-8"), rules_text


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_every_command_exits_0_or_2_on_hostile_input(clean_run, data):
    """No station CSV, rules file or model file makes a command fail with an
    internal error (exit 3): each run succeeds or exits 2 with an error line."""
    work, rows, clean, model, model_text, rules_text = clean_run
    stations, rules, mutated_model = work / "stations.csv", work / "rules.txt", work / "mutated_model.txt"
    out = str(work / "out.csv")
    stations.write_text(data.draw(mutated_csv(STATION_HEADER, rows)), encoding="utf-8", newline="")
    rules.write_text(data.draw(mutated_text(rules_text)), encoding="utf-8", newline="")
    mutated_model.write_text(data.draw(mutated_text(model_text)), encoding="utf-8", newline="")
    given_stations = ["--input", str(stations), "--out", out]
    for argv in (
        ["wqi", *given_stations],
        ["wqi", *given_stations, "--strict"],
        ["diagnose", *given_stations],
        ["predict", *given_stations, "--model", model],
        ["predict", *given_stations, "--model", model, "--impute", "median"],
        ["evaluate", *given_stations, "--model", model],
        # the line above refuses this --split all model before scoring; this one scores it
        ["evaluate", *given_stations, "--model", model, "--split", "all"],
        ["train", *given_stations, "--model", str(work / "fitted.txt"), "--n-trees", "3",
         "--min-samples-split", "8", "--min-samples-leaf", "3"],
        ["diagnose", "--input", clean, "--out", out, "--rules", str(rules)],
        ["predict", "--input", clean, "--out", out, "--model", str(mutated_model)],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2) and "internal error" not in err.getvalue(), (argv, err.getvalue())

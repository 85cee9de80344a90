import csv
import hashlib
import os
import stat

import numpy as np
import pytest

from aquagauge.cli import main
from aquagauge.gbm import deserialize_model
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
        assert "final_training_loss=" in out
        model = deserialize_model(model_path.read_text(encoding="utf-8"))
        assert len(model.trees) == 30
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

        from pathlib import Path

        from aquagauge.forecast import build_supervised
        from aquagauge.ingest import impute_missing, parse_dataset

        text = Path(synthetic_csv_path).read_text(encoding="utf-8")
        task = build_supervised(impute_missing(parse_dataset(text), "drop_row"))
        assert model.f0 == pytest.approx(float(np.mean(task.targets)), abs=1e-12)

    @pytest.mark.parametrize("flag,value,message", [
        ("--n-trees", "-1", "n_trees must be >= 0"),
        ("--learning-rate", "0", "learning_rate must be in (0, 1]"),
        ("--min-samples-leaf", "0", "min_samples_leaf must be >= 1"),
        ("--max-depth", "-2", "max_depth must be >= 0"),
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
            "learning_rate=0.1\nmax_depth=8\nmin_samples_split=200\n"
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
        summary = out.strip().splitlines()[-1]
        assert summary.startswith("mse=") and " r2=" in summary and " mean_pct_err=" in summary
        rows = list(csv.DictReader(report_path.read_text().splitlines()))
        assert rows
        assert set(rows[0]) == {"station_code", "month", "year", "actual", "predicted",
                                 "percentile_error"}

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

    def test_bad_split_spec_exits_2(self, capsys, synthetic_csv_path, trained_model_path):
        code, _, err = run(capsys, "evaluate", "--input", synthetic_csv_path,
                           "--model", trained_model_path, "--split", "bogus")
        assert code == 2
        assert "--split" in err


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


REPORT_HEADER = "station_code,month,year,actual,predicted,percentile_error"


class TestPlotDataCommand:
    def test_curve_export(self, capsys, trained_model_path, tmp_path):
        curve_path = tmp_path / "curve_data.csv"
        code, _, _ = run(capsys, "plot-data", "--model", trained_model_path,
                         "--out-curve", str(curve_path))
        assert code == 0
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 1 + 31

    def test_scatter_export(self, capsys, synthetic_csv_path, trained_model_path, tmp_path):
        report_path = tmp_path / "report.csv"
        run(capsys, "evaluate", "--input", synthetic_csv_path, "--model", trained_model_path,
            "--out", str(report_path))
        scatter_path = tmp_path / "scatter.csv"
        code, _, _ = run(capsys, "plot-data", "--input", str(report_path),
                         "--out-scatter", str(scatter_path))
        assert code == 0
        lines = scatter_path.read_text().splitlines()
        assert lines[0] == "actual,predicted"
        assert len(lines) > 1

    @pytest.mark.parametrize("text,row,detail", [
        (f"{REPORT_HEADER}\nS,1,2019,50.0,51.0,2.0\nS,1,2019,50.0\n", 2, "predicted is not a finite number: None"),
        ("actual,predicted\nabc,xyz\n", 1, "actual is not a finite number: 'abc'"),
        (f"{REPORT_HEADER}\nS,1,2019,nan,51.0,\n", 1, "actual is not a finite number: 'nan'"),
        (f"{REPORT_HEADER}\nS,1,2019,50.0,-inf,\n", 1, "predicted is not a finite number: '-inf'"),
        (f"{REPORT_HEADER}\nS,1,2019,50.0,,\n", 1, "predicted is not a finite number: ''"),
    ], ids=["no-predicted-cell", "non-numeric", "nan", "infinite", "empty"])
    def test_malformed_report_row_exits_2(self, capsys, tmp_path, text, row, detail):
        report_path = tmp_path / "report.csv"
        report_path.write_text(text, encoding="utf-8")
        scatter_path = tmp_path / "scatter.csv"
        code, _, err = run(capsys, "plot-data", "--input", str(report_path), "--out-scatter", str(scatter_path))
        assert code == 2
        assert f"row {row}: {detail}" in err
        assert not scatter_path.exists()

    def test_no_inputs_exits_2(self, capsys):
        code, _, err = run(capsys, "plot-data")
        assert code == 2
        assert "nothing to plot" in err


LATIN1 = b"Dh\xe2ka"  # 'Dhâka' in Latin-1: \xe2 starts no valid UTF-8 sequence here


@pytest.mark.parametrize("kind", ["station-csv", "rules", "model", "report"])
def test_file_that_is_not_utf8_exits_2(capsys, fixture_csv_path, trained_model_path, tmp_path, kind):
    bad = tmp_path / f"bad-{kind}"
    if kind == "station-csv":
        text = rows_to_csv(STATION_HEADER, [[FIXTURE_ROWS[0][0], "@", *FIXTURE_ROWS[0][2:]]])
        bad.write_bytes(text.encode("utf-8").replace(b"@", LATIN1))
        argv = ["wqi", "--input", str(bad)]
    elif kind == "rules":
        bad.write_bytes(b"# " + LATIN1 + b"\n")
        argv = ["diagnose", "--input", fixture_csv_path, "--rules", str(bad)]
    elif kind == "model":
        with open(trained_model_path, "rb") as fh:
            bad.write_bytes(fh.read().replace(b"feature_names=", b"feature_names=" + LATIN1 + b"_", 1))
        argv = ["predict", "--input", fixture_csv_path, "--model", str(bad)]
    else:
        bad.write_bytes(f"{REPORT_HEADER}\n".encode() + LATIN1 + b",1,2019,50.0,51.0,2.0\n")
        argv = ["plot-data", "--input", str(bad), "--out-scatter", str(tmp_path / "scatter.csv")]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"error: {bad} is not UTF-8" in err
    assert "internal error" not in err


def test_seed_only_on_split_commands(capsys, synthetic_csv_path, tmp_path):
    """--seed exists only where a station split reads it: train writes it to
    the model file and evaluate draws its test side from it."""
    for command in ("wqi", "predict", "diagnose"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", synthetic_csv_path, "--seed", "1"])
        assert exc.value.code == 2
    capsys.readouterr()
    model = tmp_path / "model.txt"
    code, _, err = run(capsys, "train", "--input", synthetic_csv_path, "--model", str(model),
                       "--out", str(tmp_path / "c.csv"), "--seed", "1", *TRAIN_ARGS)
    assert code == 0 and "log: seed=1" in err.splitlines()
    assert deserialize_model(model.read_text(encoding="utf-8")).hyperparams.seed == 1
    stations = {}
    for seed in ("0", "1"):
        report = tmp_path / f"report{seed}.csv"
        code, _, err = run(capsys, "evaluate", "--input", synthetic_csv_path, "--model", str(model),
                           "--out", str(report), "--seed", seed)
        assert code == 0 and f"log: seed={seed}" in err.splitlines()
        stations[seed] = {row["station_code"] for row in csv.DictReader(report.read_text().splitlines())}
    assert stations["0"] != stations["1"]


@pytest.mark.parametrize("command,seed", [("train", "-5"), ("evaluate", "-1")])
def test_negative_seed_exits_2(request, capsys, synthetic_csv_path, tmp_path, command, seed):
    # evaluate reads a model before it splits; train writes one
    model = request.getfixturevalue("trained_model_path") if command == "evaluate" else str(tmp_path / "m.txt")
    code, _, err = run(capsys, command, "--input", synthetic_csv_path, "--model", model,
                       "--out", str(tmp_path / "out.csv"), "--seed", seed)
    assert code == 2
    assert f"error: bad --seed {seed}: seed must be >= 0" in err.splitlines()


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
    argv = [command, "--input", fixture_csv_path if data == "fixture" else synthetic_csv_path,
            "--mode", mode, "--out", str(out)]
    if command == "predict":
        argv += ["--model", trained_model_path]
    assert run(capsys, *argv)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[data, command, mode]


def test_every_csv_shares_one_dialect(capsys, tmp_path):
    """A station code that needs quoting survives every CSV the commands
    write, and every file ends its lines with LF alone."""
    code = 'Stn "7", Sõ'
    rows = [[row[0], code if row[1] == "2003" else row[1], *row[2:]] for row in synthetic_station_rows()]
    data, model = tmp_path / "odd.csv", tmp_path / "model.txt"
    data.write_text(rows_to_csv(STATION_HEADER, rows), encoding="utf-8")
    out = {name: tmp_path / f"{name}.csv"
           for name in ("wqi", "diagnose", "predict", "curve", "report", "loss", "scatter")}
    commands = [
        ["wqi", "--input", str(data), "--out", str(out["wqi"])],
        ["diagnose", "--input", str(data), "--out", str(out["diagnose"])],
        ["train", "--input", str(data), "--model", str(model), "--out", str(out["curve"]),
         "--split", "all", *TRAIN_ARGS],
        ["predict", "--input", str(data), "--model", str(model), "--out", str(out["predict"])],
        ["evaluate", "--input", str(data), "--model", str(model), "--out", str(out["report"]),
         "--split", "all"],
        ["plot-data", "--model", str(model), "--input", str(out["report"]),
         "--out-curve", str(out["loss"]), "--out-scatter", str(out["scatter"])],
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

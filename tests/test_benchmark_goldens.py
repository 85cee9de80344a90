"""The outputs of perfbench's two workloads at its seed 1, pinned by sha256.

Each command runs in process through ``cli.main`` with the flags perfbench
gives it, on the CSVs perfbench generates (see ``conftest.benchmark_csv``).
A refactor that must leave every output byte-identical shows it by passing
here. The pins hold numpy's summation order, as ``GOLDEN_MODEL_SHA256`` in
``tests/test_cli.py`` does.
"""

import hashlib

from aquagauge.cli import main


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


TRAIN_18K_SHA256 = {
    "model": "e476f8df89f3adc3a9836479d8bb4d45b407afce883b636ec38438a41a6a9427",
    "curve": "85e4d0081d400046eb9b7ba4867ec850a9ec476f0c170772eeb9b4b5b9fadbfa",
    "report": "300a59c932f0d91d47d36b5cfaaf326e714671aa66cec7892c2717cb116d4c79",
}
TRAIN_18K_EVALUATE_STDOUT = "mse=19.90385289663169 r2=0.8305557579096945 mean_pct_err=5.443007995221345\n"


def test_train_18k_outputs(benchmark_csv, capsys, tmp_path):
    """train (30 trees) and evaluate on the 2,000-station file."""
    data = str(benchmark_csv("2000", "0.01", "1001"))
    model, curve, report = (tmp_path / name for name in ("model.txt", "curve.csv", "report.csv"))
    run(capsys, "train", "--input", data, "--model", str(model), "--out", str(curve), "--n-trees", "30")
    stdout = run(capsys, "evaluate", "--input", data, "--model", str(model), "--out", str(report))
    got = {"model": sha256(model), "curve": sha256(curve), "report": sha256(report)}
    assert (got, stdout) == (TRAIN_18K_SHA256, TRAIN_18K_EVALUATE_STDOUT)


SCORE_FORECAST_27K_SHA256 = {
    "model": "6b6c451f5a72a679104e732bd456c88237b4c87e4aca0adcdb7cdc1702aad500",
    "diagnose": "fdf1c288be4f46487ea6ff1e6b2742e325808f66153e2d3e032f1ac4f721120a",
    "predict": "510e0df6a05ec66601aa978956fb0aacc3d0f9a5838862c403ba1d2fd8961ccd",
}


def test_score_forecast_27k_outputs(benchmark_csv, capsys, tmp_path):
    """The set-up's 200-tree model, fitted on the 100-station file, then
    diagnose and predict on the 3,000-station file with --impute median."""
    data = str(benchmark_csv("3000", "0.05", "1001"))
    model, diagnose, predict = (tmp_path / name for name in ("model.txt", "diagnose.csv", "predict.csv"))
    run(capsys, "train", "--input", str(benchmark_csv("100", "0.01", "1002")), "--model", str(model),
        "--out", str(tmp_path / "fit_curve.csv"), "--split", "all", "--n-trees", "200",
        "--min-samples-split", "60", "--min-samples-leaf", "20")
    run(capsys, "diagnose", "--input", data, "--impute", "median", "--out", str(diagnose))
    run(capsys, "predict", "--input", data, "--impute", "median", "--model", str(model), "--out", str(predict))
    got = {"model": sha256(model), "diagnose": sha256(diagnose), "predict": sha256(predict)}
    assert got == SCORE_FORECAST_27K_SHA256

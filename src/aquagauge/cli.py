"""Command-line front end.

Subcommands: wqi, train, predict, evaluate, diagnose, plot-data. Every run
echoes its fully resolved configuration to stderr, writes output files
atomically (temp file + rename), and is deterministic for a fixed seed.
Exit codes: 0 success, 2 usage or data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
import tempfile
from pathlib import Path

from . import forecast, gbm, ingest, rules, wqi
from .errors import AquagaugeError

_MODE_FLAG = {"normative": wqi.NORMATIVE, "legacy-nco": wqi.LEGACY_NCO}
_IMPUTE_FLAG = {"drop": "drop_row", "median": "median"}


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str, newline: str | None = None) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 is a data error."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise AquagaugeError(f"{path} is not UTF-8: {exc}") from exc


def _emit(out_path: str | None, header: list[str], rows) -> None:
    """Write the header and rows as CSV to out_path, or to stdout when None."""
    text = ingest.csv_text(header, rows)
    if out_path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out_path, text)


def _echo_config(args: argparse.Namespace) -> None:
    for key in sorted(vars(args)):
        if key == "func":
            continue
        print(f"log: {key}={getattr(args, key)}", file=sys.stderr)


def _load_dataset(args: argparse.Namespace) -> ingest.Dataset:
    text = _read_text(args.input)
    strictness = "strict" if getattr(args, "strict", False) else "lenient"
    parsed = ingest.parse_dataset(text, strictness=strictness, source=args.input)
    ds = ingest.impute_missing(parsed, _IMPUTE_FLAG[args.impute])
    rows_read = len(parsed) + len(parsed.provenance.dropped)
    print(f"log: rows_read={rows_read} rows_dropped={len(ds.provenance.dropped)} "
          f"cells_noted={len(parsed.provenance.notes)}", file=sys.stderr)
    # imputation adds one note per filled cell and no other notes
    print(f"log: cells_imputed={len(ds.provenance.notes) - len(parsed.provenance.notes)}", file=sys.stderr)
    return ds


def _parse_split(spec: str) -> float | None:
    """The test fraction of a --split value, or None for 'all'."""
    if spec == "all":
        return None
    kind, _, frac = spec.partition(":")
    if kind == "station" and frac:
        try:
            fraction = float(frac)
        except ValueError:
            fraction = -1.0
        if 0.0 < fraction < 1.0:
            return fraction
    raise AquagaugeError(f"bad --split value {spec!r}; expected 'all' or 'station:<fraction>'")


def cmd_wqi(args: argparse.Namespace) -> int:
    ds = _load_dataset(args)
    if not len(ds):
        raise AquagaugeError("no samples")
    scored = wqi.score_columns(ds.columns(ingest.WQI_INPUTS), _MODE_FLAG[args.mode])
    _emit(
        args.out,
        ["station_code", "month_year", "nph", "ndo", "nbdo", "nec", "nna", "nco",
         "wph", "wdo", "wbdo", "wec", "wna", "wco", "wqi"],
        ([station, f"{month}-{year}", *sub, *(f"{v:.2f}" for v in weighted), f"{v_wqi:.2f}"]
         for station, month, year, sub, weighted, v_wqi in zip(
             ds.station_code.tolist(), ds.month.tolist(), ds.year.tolist(),
             scored.sub.tolist(), scored.weighted.tolist(), scored.wqi.tolist())),
    )
    return 0


def _task(args: argparse.Namespace, side: int) -> forecast.SupervisedTask:
    """The supervised task of --input, or with a station --split its
    training (side 0) or test (side 1) side."""
    task = forecast.build_supervised(_load_dataset(args), _MODE_FLAG[args.mode])
    fraction = _parse_split(args.split)
    if fraction is not None:
        task = forecast.split_by_station(task, fraction, args.seed)[side]
    return task


def cmd_train(args: argparse.Namespace) -> int:
    # the training flags are named after the Hyperparams fields
    try:
        hp = gbm.Hyperparams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(gbm.Hyperparams)})
    except ValueError as exc:
        raise AquagaugeError(str(exc)) from exc
    task = _task(args, 0)
    if len(task) == 0:
        raise AquagaugeError("training task is empty: need >= 2 observations for some station")
    model = gbm.gbm_fit(task.features, task.targets, hp)
    _atomic_write(args.model, gbm.serialize_model(model))
    _atomic_write(args.out, forecast.curve_csv(model.training_curve))
    print(f"final_training_loss={model.training_curve[-1]!r}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = gbm.deserialize_model(_read_text(args.model))
    ds = _load_dataset(args)
    if not len(ds):
        raise AquagaugeError("no samples")
    mode = _MODE_FLAG[args.mode]
    fm, keys, wqis = forecast.build_feature_rows(ds, mode)
    if model.feature_names != fm.feature_names:
        raise forecast.FeatureMismatch(model.feature_names, fm.feature_names)
    predictions = gbm.predict_matrix(model, fm.values)
    _emit(args.out, ["station_code", "month", "year", "wqi", "predicted_wqi"],
          ([station, month, year, f"{current:.6f}", f"{predicted:.6f}"]
           for (station, month, year), current, predicted in zip(keys, wqis.tolist(), predictions.tolist())))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = gbm.deserialize_model(_read_text(args.model))
    task = _task(args, 1)
    if len(task) == 0:
        raise AquagaugeError("evaluation task is empty")
    report = forecast.evaluate(model, task)
    print(f"log: zero_actual_rows={report.zero_actuals}", file=sys.stderr)
    _atomic_write(args.out, forecast.report_csv(report, task.keys))
    print(forecast.summary_line(report))
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    ds = _load_dataset(args)
    if not len(ds):
        raise AquagaugeError("no samples")
    scored = wqi.score_columns(ds.columns(ingest.WQI_INPUTS), _MODE_FLAG[args.mode])
    if args.rules:
        ruleset = rules.load_rules(_read_text(args.rules))
    else:
        ruleset = rules.default_ruleset()
    outcomes = [(r.name, r.suggestion) for r in (*ruleset.rules, ruleset.default_rule)]
    matched = rules.diagnose_columns(scored, ruleset)
    _emit(args.out, ["station_code", "month", "year", "wqi", "disease", "suggestion"],
          ([station, month, year, f"{v_wqi:.6f}", *outcomes[pos]]
           for station, month, year, v_wqi, pos in zip(
               ds.station_code.tolist(), ds.month.tolist(), ds.year.tolist(), scored.wqi.tolist(),
               matched.tolist())))
    return 0


def cmd_plot_data(args: argparse.Namespace) -> int:
    if not (args.model or args.input):
        raise AquagaugeError("nothing to plot: give --model and/or --input")
    if args.model:
        model = gbm.deserialize_model(_read_text(args.model))
        if not model.training_curve:
            raise AquagaugeError("model file carries no training curve")
        _atomic_write(args.out_curve, forecast.curve_csv(model.training_curve))
    if args.input:
        reader = csv.DictReader(io.StringIO(_read_text(args.input, newline=""), newline=""))
        if reader.fieldnames is None or not {"actual", "predicted"} <= set(reader.fieldnames):
            raise AquagaugeError("evaluation CSV must carry 'actual' and 'predicted' columns")
        rows = [(row["actual"], row["predicted"]) for row in reader]
        for i, row in enumerate(rows, start=1):
            for name, cell in zip(("actual", "predicted"), row):
                if ingest.coerce_numeric(cell or "") is None:
                    raise ingest.MalformedRow(i, f"{name} is not a finite number: {cell!r}")
        _emit(args.out_scatter, ["actual", "predicted"], rows)
    return 0


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--mode", choices=sorted(_MODE_FLAG), default="normative",
                   help="coliform scoring mode (default: normative)")
    p.add_argument("--impute", choices=sorted(_IMPUTE_FLAG), default="drop",
                   help="missing-value policy for the six wqi inputs (default: drop)")
    p.add_argument("--strict", action="store_true", help="error on any malformed cell")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aquagauge",
        description="Water-quality scoring, WQI forecasting and disease diagnosis over station CSVs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("wqi", help="score every sample (sub-indices, weighted scores, wqi)")
    _add_shared(p)
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_wqi)

    p = sub.add_parser("train", help="fit the forecasting model")
    _add_shared(p)
    p.add_argument("--model", default="model.txt", help="where to write the model file")
    p.add_argument("--out", default="training_curve.csv", help="where to write the loss curve CSV")
    p.add_argument("--split", default="station:0.2",
                   help="'all' or 'station:<test fraction>'; training uses the non-test side")
    p.add_argument("--seed", type=int, default=0, help="seed of the station split")
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--min-samples-split", type=int, default=200)
    p.add_argument("--min-samples-leaf", type=int, default=30)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="current wqi plus the 4-month-ahead prediction per sample")
    _add_shared(p)
    p.add_argument("--model", default="model.txt", help="model file to load")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics against observed 4-month-ahead outcomes")
    _add_shared(p)
    p.add_argument("--model", default="model.txt", help="model file to load")
    p.add_argument("--out", default="eval_report.csv", help="per-example report CSV path")
    p.add_argument("--split", default="station:0.2",
                   help="'all' or 'station:<test fraction>'; evaluation uses the test side")
    p.add_argument("--seed", type=int, default=0, help="seed of the station split")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", help="disease diagnosis per sample from the rule file")
    _add_shared(p)
    p.add_argument("--rules", default=None, help="rules file (default: shipped ruleset)")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("plot-data", help="export plottable CSVs (loss curve, actual-vs-predicted)")
    p.add_argument("--model", default=None, help="model file; exports its training curve")
    p.add_argument("--input", default=None, help="evaluate's per-example CSV; exports the scatter")
    p.add_argument("--out-curve", default="loss_curve.csv")
    p.add_argument("--out-scatter", default="actual_vs_predicted.csv")
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except (AquagaugeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal invariant violations
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: wqi, train, predict, evaluate and diagnose. Every run echoes
its fully resolved configuration to stderr, writes output files atomically
(temp file + rename), and is deterministic for a fixed seed.
Exit codes: 0 success, 2 usage or data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys
import tempfile
from pathlib import Path

from . import forecast, gbm, ingest, rules, wqi
from .errors import AquagaugeError

_MODE_FLAG = {"normative": wqi.NORMATIVE, "legacy-nco": wqi.LEGACY_NCO}
_IMPUTE_FLAG = {"drop": "drop_row", "median": "median"}


def _atomic_write(path: str, text: str) -> None:
    """Write through a temporary file and a rename, in the mode open(path, "w")
    gives: an existing file keeps its mode, a new one gets 0o666 less the umask."""
    target = Path(path)
    umask = os.umask(0)  # only setting the umask reads it
    os.umask(umask)
    mode = os.stat(target).st_mode & 0o7777 if target.exists() else 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=f".{target.name}.")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    """The text of a UTF-8 file as written, line ends untranslated, so that
    each input's one reader sees the bytes the library would be given; a
    file that is not UTF-8 is a data error."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise AquagaugeError(f"{path} is not UTF-8: {exc}") from exc


def _emit(out_path: str | None, header: list[str], columns: list[list[str]]) -> None:
    """Write the header and columns as CSV to out_path, or to stdout when None."""
    text = ingest.csv_text(header, columns)
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
    strictness = "strict" if args.strict else "lenient"
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
        [ds.station_code.tolist(),
         [f"{month}-{year}" for month, year in zip(ds.month.tolist(), ds.year.tolist())],
         *(list(map(str, column)) for column in scored.sub.T.tolist()),
         *([f"{v:.2f}" for v in column] for column in (*scored.weighted.T.tolist(), scored.wqi.tolist()))],
    )
    return 0


def _task(args: argparse.Namespace, side: int, seed: int) -> forecast.SupervisedTask:
    """The supervised task of --input, or its side (0 train, 1 test) of a station --split by seed."""
    task = forecast.build_supervised(_load_dataset(args), _MODE_FLAG[args.mode])
    fraction = _parse_split(args.split)
    if fraction is not None:
        task = forecast.split_by_station(task, fraction, seed)[side]
    return task


def cmd_train(args: argparse.Namespace) -> int:
    try:
        hp = gbm.Hyperparams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(gbm.Hyperparams)})
    except ValueError as exc:
        raise AquagaugeError(str(exc)) from exc
    task = _task(args, 0, hp.seed)
    if len(task) == 0:
        raise AquagaugeError("training task is empty: need >= 2 observations for some station")
    model = gbm.gbm_fit(task.features, task.targets, hp)
    _atomic_write(args.model, gbm.serialize_model(model))
    curve = model.training_curve
    _emit(args.out, ["iteration", "loss"],
          [list(map(str, range(len(curve)))), [format(v, ".17g") for v in curve]])
    print(f"final_training_loss={curve[-1]!r}")
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
          [ds.station_code.tolist(), list(map(str, ds.month.tolist())), list(map(str, ds.year.tolist())),
           *([f"{v:.6f}" for v in column.tolist()] for column in (wqis, predictions))])
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = gbm.deserialize_model(_read_text(args.model))
    print(f"log: seed={model.hyperparams.seed} (from the model file)", file=sys.stderr)
    task = _task(args, 1, model.hyperparams.seed)  # the seed train split with: its held-out side
    if len(task) == 0:
        raise AquagaugeError("evaluation task is empty")
    report = forecast.evaluate(model, task)
    print(f"log: zero_actual_rows={report.zero_actuals}", file=sys.stderr)
    # persistence, "WQI in four months equals WQI now", is the feature row's wqi;
    # skill = 1 - mse_model / mse_persistence (Murphy, 1988)
    naive = task.features.values[:, forecast.FEATURE_NAMES.index("wqi")]
    naive_mse = forecast.mse(task.targets, naive)
    skill = "undefined" if naive_mse == 0.0 else repr(1.0 - report.mse / naive_mse)
    print(f"log: persistence_mse={naive_mse!r} persistence_r2={forecast.r_squared(task.targets, naive)!r} "
          f"skill={skill}", file=sys.stderr)
    stations, months, years = zip(*task.keys)
    actual, predicted, errors = zip(*report.per_example)
    _emit(args.out, ["station_code", "month", "year", "actual", "predicted", "percentile_error"],
          [list(stations), list(map(str, months)), list(map(str, years)),
           [f"{a:.6f}" for a in actual], [f"{p:.6f}" for p in predicted],
           ["" if e is None else f"{e:.6f}" for e in errors]])
    print(f"mse={report.mse!r} r2={report.r_squared!r} mean_pct_err={report.mean_percentile_error!r}")
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
    matched = rules.diagnose_columns(scored, ruleset).tolist()
    _emit(args.out, ["station_code", "month", "year", "wqi", "disease", "suggestion"],
          [ds.station_code.tolist(), list(map(str, ds.month.tolist())), list(map(str, ds.year.tolist())),
           [f"{v:.6f}" for v in scored.wqi.tolist()],
           *(list(map(outcome.__getitem__, matched)) for outcome in zip(*outcomes))])
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
    for f in dataclasses.fields(gbm.Hyperparams):  # cmd_train reads them back by field name
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default,
                       help="seed of the station split" if f.name == "seed" else None)
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
                   help="'all' or 'station:<test fraction>'; evaluation uses the test side of the model's seed=")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", help="disease diagnosis per sample from the rule file")
    _add_shared(p)
    p.add_argument("--rules", default=None, help="rules file (default: shipped ruleset)")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv: list[str] | None = None) -> int:
    # A run leaves a few hundred objects of cyclic garbage, nearly all of them
    # argparse's, while the cyclic collector would walk each chunk's cell lists
    # as the parse makes them; so the run goes without it, and the caller gets
    # it back as it had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: wqi, train, predict, evaluate and diagnose. Every run echoes
its fully resolved configuration to stderr, refuses an output that names an
input or another output, writes output files atomically (temp file +
rename), and is deterministic for a fixed seed.
Exit codes: 0 success, 2 usage or data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
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
    gives: an existing file keeps its mode, a new one gets 0o666 less the umask.
    A failed write raises AquagaugeError naming path and leaves no temporary file."""
    target = Path(path)
    umask = os.umask(0)  # only setting the umask reads it
    os.umask(umask)
    tmp = None
    try:
        mode = os.stat(target).st_mode & 0o7777 if target.exists() else 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=f".{target.name}.")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            os.fchmod(fd, mode)
            fh.write(text)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise AquagaugeError(f"cannot write {path}: {exc.strerror or exc}") from exc
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


def _same_file(output: str, other: str) -> bool:
    try:
        return os.path.samefile(output, other)
    except OSError:  # a path that does not exist yet is compared by where it would be
        return os.path.realpath(output) == os.path.realpath(other)


def _refuse_overwrites(args: argparse.Namespace) -> None:
    """Raise when an output names the same file as an input or the other output."""
    paths = {flag: getattr(args, flag, None) for flag in ("input", "model", "rules", "out")}
    paths = {flag: path for flag, path in paths.items() if path is not None}
    outputs = ("model", "out") if args.subcommand == "train" else ("out",)
    for output in [flag for flag in outputs if flag in paths]:
        for flag, path in paths.items():
            if flag != output and _same_file(paths[output], path):
                raise AquagaugeError(f"--{output} {paths[output]} is the same file as --{flag} {path}")


def _echo_config(args: argparse.Namespace) -> None:
    for key in sorted(vars(args)):
        if key == "func":
            continue
        print(f"log: {key}={getattr(args, key)}", file=sys.stderr)


def _load_dataset(args: argparse.Namespace, policy: str) -> ingest.Dataset:
    text = _read_text(args.input)
    strictness = "strict" if args.strict else "lenient"
    parsed = ingest.parse_dataset(text, strictness=strictness, source=args.input)
    ds = ingest.impute_missing(parsed, policy)
    rows_read = len(parsed) + len(parsed.provenance.dropped)
    print(f"log: rows_read={rows_read} rows_dropped={len(ds.provenance.dropped)} "
          f"cells_noted={len(parsed.provenance.notes)}", file=sys.stderr)
    # imputation adds one note per filled cell and no other notes
    print(f"log: cells_imputed={len(ds.provenance.notes) - len(parsed.provenance.notes)}", file=sys.stderr)
    if not len(ds):
        raise AquagaugeError("no samples")
    return ds


def cmd_wqi(args: argparse.Namespace) -> int:
    ds = _load_dataset(args, _IMPUTE_FLAG[args.impute])
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


def _sides(args: argparse.Namespace, seed: int) -> tuple[forecast.SupervisedTask, forecast.SupervisedTask]:
    """The training and evaluation sides of --input's supervised task: the
    station split by seed, or the whole task as both under --split all.

    An example needs observed inputs and a WQI observed four months later,
    so a row missing a WQI input is dropped, never filled."""
    task = forecast.build_supervised(_load_dataset(args, "drop_row"))
    if args.split == "all":
        return task, task
    return forecast.split_by_station(task, forecast.HELD_OUT_FRACTION, seed)


def cmd_train(args: argparse.Namespace) -> int:
    try:
        hp = gbm.Hyperparams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(gbm.Hyperparams)})
    except ValueError as exc:
        raise AquagaugeError(str(exc)) from exc
    task, _ = _sides(args, hp.seed)
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
    ds = _load_dataset(args, _IMPUTE_FLAG[args.impute])
    fm, keys, wqis = forecast.build_feature_rows(ds)
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
    fitted_on, task = _sides(args, model.hyperparams.seed)  # the split train drew with this seed
    # train fits f0 = init_constant of its side's targets, so any other f0 was fitted on other data
    if args.split != "all" and (len(fitted_on) == 0 or model.f0 != gbm.init_constant(fitted_on.targets)):
        raise AquagaugeError(f"the model (f0={model.f0!r}) was not fitted on the training side of {args.input}; "
                             "--split all scores a model on any input")
    report = forecast.evaluate(model, task)
    print(f"log: zero_actual_rows={report.zero_actuals}", file=sys.stderr)
    # persistence, "WQI in four months equals WQI now", is the feature row's wqi;
    # skill = 1 - mse_model / mse_persistence (Murphy, 1988)
    naive = task.features.values[:, forecast.FEATURE_NAMES.index("wqi")]
    naive_mse = forecast.mse(task.targets, naive)
    skill = "undefined" if naive_mse == 0.0 else repr(1.0 - report.mse / naive_mse)
    print(f"log: persistence_mse={naive_mse!r} persistence_r2={forecast.r_squared(task.targets, naive)!r} "
          f"skill={skill}", file=sys.stderr)
    _emit(args.out, ["station_code", "month", "year", "actual", "predicted", "percentile_error"],
          [task.keys["station"].tolist(), *(list(map(str, task.keys[f].tolist())) for f in ("month", "year")),
           *([f"{v:.6f}" for v in column.tolist()] for column in (report.actual, report.predicted)),
           ["" if math.isnan(e) else f"{e:.6f}" for e in report.percentile_error.tolist()]])
    print(f"mse={report.mse!r} r2={report.r_squared!r} mean_pct_err={report.mean_percentile_error!r}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    ds = _load_dataset(args, _IMPUTE_FLAG[args.impute])
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


def _add_shared(p: argparse.ArgumentParser, *, mode: bool = False, impute: bool = False) -> None:
    p.add_argument("--input", required=True, help="input CSV path")
    if mode:  # forecasting always scores in the normative mode
        p.add_argument("--mode", choices=sorted(_MODE_FLAG), default="normative",
                       help="coliform scoring mode (default: normative)")
    if impute:  # train and evaluate always drop a row missing a wqi input
        p.add_argument("--impute", choices=sorted(_IMPUTE_FLAG), default="drop",
                       help="missing-value policy for the six wqi inputs (default: drop)")
    p.add_argument("--strict", action="store_true", help="error on any malformed cell")


def build_parser() -> argparse.ArgumentParser:
    # No abbreviated flags: argparse would otherwise read a flag a command
    # lacks, such as --mode on predict, as the start of one it has (--model).
    parser = argparse.ArgumentParser(
        prog="aquagauge",
        description="Water-quality scoring, WQI forecasting and disease diagnosis over station CSVs.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    split = f"station:{forecast.HELD_OUT_FRACTION}"

    p = sub.add_parser("wqi", allow_abbrev=False, help="score every sample (sub-indices, weighted scores, wqi)")
    _add_shared(p, mode=True, impute=True)
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_wqi)

    p = sub.add_parser("train", allow_abbrev=False, help="fit the forecasting model")
    _add_shared(p)
    p.add_argument("--model", default="model.txt", help="where to write the model file")
    p.add_argument("--out", default="training_curve.csv", help="where to write the loss curve CSV")
    p.add_argument("--split", choices=[split, "all"], default=split,
                   help=f"'{split}' or 'all'; training uses the side the station split keeps")
    for f in dataclasses.fields(gbm.Hyperparams):  # cmd_train reads them back by field name
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default,
                       help="seed of the station split" if f.name == "seed" else None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", allow_abbrev=False,
                       help="current wqi plus the 4-month-ahead prediction per sample")
    _add_shared(p, impute=True)
    p.add_argument("--model", default="model.txt", help="model file to load")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", allow_abbrev=False, help="metrics against observed 4-month-ahead outcomes")
    _add_shared(p)
    p.add_argument("--model", default="model.txt", help="model file to load")
    p.add_argument("--out", default="eval_report.csv", help="per-example report CSV path")
    p.add_argument("--split", choices=[split, "all"], default=split,
                   help=f"'{split}' or 'all'; evaluation uses the side held out by the model's seed=")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", allow_abbrev=False, help="disease diagnosis per sample from the rule file")
    _add_shared(p, mode=True, impute=True)
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
            _refuse_overwrites(args)
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

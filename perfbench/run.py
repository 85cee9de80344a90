#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the aquagauge CLI, with an optional traced run.

Each workload makes its input CSVs with scripts/generate_station_csv.py,
seeded from --seed, then runs its two CLI commands, one at a time, each in a
fresh `python -m aquagauge.cli` child with src/ on the path: one client in a
closed loop. The commands share about --seconds of command time equally, so
the shorter one runs more often, and each runs at least three times. Every
output is checked, and a run whose output bytes differ from the first counts
as a failure. The run prints a report, then one JSON line:

    python3 perfbench/run.py --workload train-18k --seed 1 --seconds 45 --trace 0

--trace 0 reports the end-to-end metrics. --trace 1 runs every command once
untraced in a child process, for its CPU time, once in this process with the
public functions of each layer wrapped in spans (perfbench/spans.py), and once
more in this process untraced, and reports the per-layer metrics. Records go
to .perfbench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GENERATOR = ROOT / "scripts" / "generate_station_csv.py"
WORK = ROOT / ".perfbench_work"

PERIODS = 9
MIN_RUNS = 3  # of each command
SETUP_REPEATS = 3
CHECK_SAMPLE = 200
CURVE_TOLERANCE = 1e-12  # the acceptance suite's bound for a non-increasing curve
WQI_MAX = 99.8


@dataclass(frozen=True)
class Workload:
    name: str
    stations: int
    missing_rate: float
    commands: tuple[tuple[str, ...], tuple[str, ...]]
    fit_stations: int = 0  # > 0: set-up fits the model on its own CSV with `fit`
    fit: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-18k",
            stations=2000,
            missing_rate=0.01,
            commands=(
                ("train", "--input", "{data}", "--model", "{model}", "--out", "{work}/curve.csv",
                 "--n-trees", "30"),
                ("evaluate", "--input", "{data}", "--model", "{model}", "--out", "{work}/report.csv"),
            ),
        ),
        Workload(
            "score-forecast-27k",
            stations=3000,
            missing_rate=0.05,
            commands=(
                ("diagnose", "--input", "{data}", "--impute", "median", "--out", "{work}/diagnose.csv"),
                ("predict", "--input", "{data}", "--impute", "median", "--model", "{model}",
                 "--out", "{work}/predict.csv"),
            ),
            fit_stations=100,
            fit=("train", "--input", "{fit_data}", "--model", "{model}", "--out", "{work}/fit_curve.csv",
                 "--split", "all", "--n-trees", "200", "--min-samples-split", "60",
                 "--min-samples-leaf", "20"),
        ),
    )
}

COMMANDS = ("train", "evaluate", "diagnose", "predict")


def flag(argv, name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def model_shape(text: str) -> dict[str, int]:
    """Tree, node and leaf counts from the model file format (README)."""
    lines = text.splitlines()
    return {
        "trees": sum(line.startswith("tree ") for line in lines),
        "nodes": sum(line.startswith(("I ", "L ")) for line in lines),
        "leaves": sum(line.startswith("L ") for line in lines),
    }


@dataclass
class Invocation:
    command: str
    label: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    stdout: str
    problems: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, wl: Workload, seed: int, scale: float):
        self.wl = wl
        self.seed = seed
        self.work = WORK / wl.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.data = self.work / "data.csv"
        self.fit_data = self.work / "fit.csv"
        self.model = self.work / "model.txt"
        self.stations = max(20, round(wl.stations * scale))
        self.fit_stations = max(10, round(wl.fit_stations * scale)) if wl.fit_stations else 0
        self.generator_runs = [
            {"out": self.data.name, "stations": self.stations, "periods": PERIODS,
             "missing_rate": wl.missing_rate, "seed": 1000 * seed + 1},
        ]
        if self.fit_stations:
            self.generator_runs.append(
                {"out": self.fit_data.name, "stations": self.fit_stations, "periods": PERIODS,
                 "missing_rate": 0.01, "seed": 1000 * seed + 2}
            )
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.invocations: list[Invocation] = []
        self.failures: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self._refs: dict = {}

    # -- running ---------------------------------------------------------

    def argv(self, template: tuple[str, ...]) -> list[str]:
        paths = {"data": self.data, "fit_data": self.fit_data, "model": self.model, "work": self.work}
        return [part.format(**paths) for part in template]

    def generate(self) -> None:
        for run in self.generator_runs:
            subprocess.run(
                [sys.executable, str(GENERATOR), "--stations", str(run["stations"]),
                 "--periods", str(run["periods"]), "--missing-rate", str(run["missing_rate"]),
                 "--seed", str(run["seed"]), "--out", str(self.work / run["out"])],
                check=True, stdout=subprocess.DEVNULL,
            )

    def run_child(self, argv: list[str], label: str) -> Invocation:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "aquagauge.cli", *argv],
                                    stdout=out, stderr=err, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(argv[0], label, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text("utf-8"))
        if inv.exit_code != 0:
            detail = err_path.read_text("utf-8").strip().splitlines()[-1:]
            inv.problems.append(f"exit code {inv.exit_code}: {' '.join(detail)}")
        return inv

    def fingerprint(self, inv: Invocation, argv: list[str]) -> None:
        for path in output_paths(argv):
            digest = sha256(path)
            if self.fingerprints.setdefault(path.name, digest) != digest:
                inv.problems.append(f"{path.name} bytes differ from the first run")

    def record(self, inv: Invocation, argv: list[str], check: bool = True) -> None:
        """Fingerprint and check one invocation's outputs; record failures now."""
        if inv.exit_code == 0:
            self.fingerprint(inv, argv)
            if check:
                try:
                    inv.problems.extend(CHECKS[inv.command](self, argv, inv.stdout))
                except Exception as exc:  # a check that cannot read the output fails it
                    inv.problems.append(f"check raised {type(exc).__name__}: {exc}")
        self.invocations.append(inv)
        for problem in inv.problems:
            self.fail(f"{inv.label} {inv.command}: {problem}")

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"failure {message}", flush=True)

    def setup(self) -> float:
        start = time.perf_counter()
        self.generate()
        fit = self.run_child(self.argv(self.wl.fit), "setup") if self.wl.fit else None
        elapsed = time.perf_counter() - start
        if fit is not None:
            self.record(fit, self.argv(self.wl.fit))
            if fit.exit_code != 0:
                raise SystemExit(f"set-up fit failed: {fit.problems}")
        for run in self.generator_runs:
            path = self.work / run["out"]
            digest = sha256(path)
            if self.fingerprints.setdefault(path.name, digest) != digest:
                self.fail(f"setup: generator output {path.name} differs between set-ups")
        return elapsed

    # -- reference results for the output checks ------------------------

    def reference(self, key: str, build):
        if key not in self._refs:
            self._refs[key] = build()
        return self._refs[key]

    def dataset(self, policy: str):
        from aquagauge import ingest

        def build():
            text = self.data.read_text(encoding="utf-8")
            return ingest.impute_missing(ingest.parse_dataset(text), policy)

        return self.reference(f"dataset:{policy}", build)

    def sample(self, n: int, what: str) -> list[int]:
        rng = random.Random(f"{self.seed}:{what}")
        return sorted(rng.sample(range(n), min(n, CHECK_SAMPLE)))

    # -- the two modes ---------------------------------------------------

    def measure(self, seconds: float) -> dict:
        setups = [self.setup() for _ in range(SETUP_REPEATS)]
        rows = self.stations * PERIODS
        argvs = [self.argv(t) for t in self.wl.commands]
        walls: tuple[list[float], list[float]] = ([], [])
        maxrss = 0.0
        measured = 0.0  # command time only; checks run between commands, untimed
        while True:
            # Give each command the same share of the time, so the shorter one
            # gets more samples; stop at the total that lands nearest `seconds`.
            k = 0 if sum(walls[0]) <= sum(walls[1]) else 1
            if min(map(len, walls)) >= MIN_RUNS and measured + statistics.median(walls[k]) / 2 >= seconds:
                break
            inv = self.run_child(argvs[k], f"run{len(walls[k]) + 1}")
            self.record(inv, argvs[k])
            walls[k].append(inv.wall_s)
            maxrss = max(maxrss, inv.maxrss_mb)
            measured += inv.wall_s
        medians = [statistics.median(w) for w in walls]
        metrics = {
            "cmd1_s": (medians[0], "s"),
            "cmd2_s": (medians[1], "s"),
            "rows_per_s": (rows / sum(medians), "rows/s"),
            "peak_rss_mb": (maxrss, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        detail = {
            f"{argv[0]}_s": {"median": statistics.median(w), "min": min(w), "max": max(w), "n": len(w)}
            for argv, w in zip(argvs, walls)
        }
        detail["setup_s"] = {"median": statistics.median(setups), "runs": setups}
        evaluations = [inv.stdout for inv in self.invocations if inv.command == "evaluate" and "r2=" in inv.stdout]
        if evaluations:
            detail["heldout_r2"] = float(evaluations[-1].split("r2=")[1].split()[0])
        return {"metrics": metrics, "detail": detail}

    def traced(self) -> dict:
        self.generate()
        steps = [self.argv(t) for t in ((self.wl.fit,) if self.wl.fit else ()) + self.wl.commands]
        starts = [self.import_wall() for _ in range(3)]
        tracer = Tracer()
        counts: dict[str, float] = {}
        untraced_s = 0.0
        for argv in steps:
            # The child runs first, for its CPU time. The traced run comes next,
            # so it meets the caches cold as the CLI does; then the same command
            # runs untraced in this process as the base of the tracing overhead.
            child = self.run_child(argv, "child")
            self.record(child, argv, check=False)
            key = f"cli.{argv[0]}.cpu_s"
            counts[key] = counts.get(key, 0.0) + child.cpu_s
            install(tracer, counts)
            try:
                with tracer.span(f"cli.{argv[0]}"):
                    traced = self.run_in_process(argv, "traced")
            finally:
                tracer.restore()
            self.record(traced, argv)
            untraced = self.run_in_process(argv, "untraced")
            self.record(untraced, argv, check=False)
            untraced_s += untraced.wall_s
        tracer.write_csv(self.work / f"spans-seed{self.seed}.csv")
        metrics = layer_metrics(tracer, counts)
        traced_s, covered_s = tracer.root_coverage()
        metrics["cli.import_s"] = (statistics.median(starts), "s")
        metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
        metrics["trace.uncovered_frac"] = ((traced_s - covered_s) / traced_s, "fraction")
        return {"metrics": metrics, "detail": {"import_runs_s": starts, "traced_s": traced_s,
                                               "untraced_s": untraced_s}}

    def run_in_process(self, argv: list[str], label: str) -> Invocation:
        import aquagauge.cli as cli

        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        inv = Invocation(argv[0], label, wall, 0.0, 0.0, code, out.getvalue())
        if code != 0:
            inv.problems.append(f"exit code {code}: {' '.join(err.getvalue().strip().splitlines()[-1:])}")
        return inv

    def import_wall(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import aquagauge.cli"], check=True, env=self.env)
        return time.perf_counter() - start


# -- output checks, one per CLI command ----------------------------------


def output_paths(argv: list[str]) -> list[Path]:
    paths = [Path(flag(argv, "--out"))]
    if argv[0] == "train":
        paths.append(Path(flag(argv, "--model")))
    return paths


def check_train(bench: Bench, argv, stdout: str) -> list[str]:
    from aquagauge import gbm

    model = gbm.deserialize_model(Path(flag(argv, "--model")).read_text(encoding="utf-8"))
    problems = []
    rises = np.flatnonzero(np.diff(model.training_curve) > CURVE_TOLERANCE)
    if rises.size:
        problems.append(f"training curve rises at iteration {int(rises[0]) + 1}")
    if len(model.trees) != int(flag(argv, "--n-trees", "100")):
        problems.append(f"model holds {len(model.trees)} trees")
    return problems


def wqi_range_problems(rows: list[list[str]], column: int) -> list[str]:
    for i, row in enumerate(rows):
        if not 0.0 <= float(row[column]) <= WQI_MAX:
            return [f"wqi {row[column]} outside [0, {WQI_MAX}] at row {i + 1}"]
    return []


def check_diagnose(bench: Bench, argv, stdout: str) -> list[str]:
    from aquagauge import rules, wqi

    ds = bench.dataset(cli_policy(argv))
    rows = read_csv(Path(flag(argv, "--out")))[1:]
    if len(rows) != len(ds.samples):
        return [f"{len(rows)} rows for {len(ds.samples)} kept samples"]
    if problems := wqi_range_problems(rows, 3):
        return problems
    ruleset = rules.default_ruleset()
    for i in bench.sample(len(rows), "diagnose"):
        s = ds.samples[i]
        rec = wqi.compute_wqi(s)
        d = rules.diagnose(rec, ruleset)
        want = [s.station_code, str(s.month), str(s.year), f"{rec.wqi:.6f}", d.disease, d.suggestion]
        if rows[i] != want:
            return [f"row {i + 1} is {rows[i]}, library gives {want}"]
    return []


def check_predict(bench: Bench, argv, stdout: str) -> list[str]:
    from aquagauge import forecast, gbm

    ds = bench.dataset(cli_policy(argv))
    fm, keys, wqis = bench.reference("features", lambda: forecast.build_feature_rows(ds))
    rows = read_csv(Path(flag(argv, "--out")))[1:]
    if len(rows) != len(keys):
        return [f"{len(rows)} rows for {len(keys)} samples"]
    if problems := wqi_range_problems(rows, 3):
        return problems
    model = gbm.deserialize_model(Path(flag(argv, "--model")).read_text(encoding="utf-8"))
    idx = bench.sample(len(rows), "predict")
    predicted = gbm.predict_matrix(model, fm.values[idx])
    for i, p in zip(idx, predicted):
        station, month, year = keys[i]
        want = [station, str(month), str(year), f"{wqis[i]:.6f}", f"{p:.6f}"]
        if rows[i] != want:
            return [f"row {i + 1} is {rows[i]}, library gives {want}"]
    return []


def check_evaluate(bench: Bench, argv, stdout: str) -> list[str]:
    from aquagauge import forecast, gbm

    split = flag(argv, "--split", "station:0.2")

    def build():
        task = forecast.build_supervised(bench.dataset(cli_policy(argv)))
        if split == "all":
            return task
        return forecast.split_by_station(task, float(split.partition(":")[2]), int(flag(argv, "--seed", "0")))[1]

    task = bench.reference(f"task:{split}", build)
    rows = read_csv(Path(flag(argv, "--out")))[1:]
    if len(rows) != len(task):
        return [f"{len(rows)} rows for {len(task)} held-out examples"]
    model = gbm.deserialize_model(Path(flag(argv, "--model")).read_text(encoding="utf-8"))
    idx = bench.sample(len(rows), "evaluate")
    predicted = gbm.predict_matrix(model, task.features.values[idx])
    for i, p in zip(idx, predicted):
        station, month, year = task.keys[i]
        want = [station, str(month), str(year), f"{task.targets[i]:.6f}", f"{p:.6f}"]
        if rows[i][:5] != want:
            return [f"row {i + 1} is {rows[i]}, library gives {want}"]
    if "r2=" not in stdout:
        return [f"no r2 in output {stdout.strip()!r}"]
    printed = float(stdout.split("r2=")[1].split()[0])
    actual = np.array([float(r[3]) for r in rows])
    pred = np.array([float(r[4]) for r in rows])
    recomputed = 1.0 - np.sum((actual - pred) ** 2) / np.sum((actual - actual.mean()) ** 2)
    if abs(printed - recomputed) > 1e-6:
        return [f"printed r2 {printed} but the report gives {recomputed}"]
    return []


def cli_policy(argv) -> str:
    return {"drop": "drop_row", "median": "median"}[flag(argv, "--impute", "drop")]


CHECKS = {
    "train": check_train,
    "evaluate": check_evaluate,
    "diagnose": check_diagnose,
    "predict": check_predict,
}


# -- per-layer metrics from the traced run -------------------------------


def install(tracer: Tracer, counts: dict[str, float]) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from aquagauge import forecast, gbm, ingest, rules, wqi

    def add(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0.0) + value

    def parsed(ds, args, kwargs):
        add("ingest.rows_read", len(ds.samples) + len(ds.provenance.dropped))
        add("ingest.cells_noted", len(ds.provenance.notes))

    def imputed(ds, args, kwargs):
        add("ingest.impute_missing.rows_out", len(ds.samples))
        add("ingest.rows_dropped", len(ds.provenance.dropped))

    def predicted(out, args, kwargs):
        add("gbm.predict_matrix.rows", len(out))

    def evaluated(report, args, kwargs):
        counts["forecast.heldout_r2"] = report.r_squared

    def model_text(text: str) -> None:
        shape = model_shape(text)
        counts["gbm.nodes"], counts["gbm.leaves"] = shape["nodes"], shape["leaves"]
        counts["gbm.model_bytes"] = len(text.encode("utf-8"))

    spans = [
        (ingest, "parse_dataset", "ingest.parse_dataset", parsed),
        (ingest, "impute_missing", "ingest.impute_missing", imputed),
        (wqi, "compute_wqi", "wqi.compute_wqi", None),
        (forecast, "compute_wqi", "wqi.compute_wqi", None),
        (rules, "load_rules", "rules.load_rules", None),
        (rules, "default_ruleset", "rules.default_ruleset", None),
        (rules, "diagnose", "rules.diagnose", None),
        (forecast, "build_feature_rows", "forecast.build_feature_rows", None),
        (forecast, "build_supervised", "forecast.build_supervised",
         lambda task, a, k: add("forecast.examples", len(task))),
        (forecast, "split_by_station", "forecast.split_by_station", None),
        (forecast, "evaluate", "forecast.evaluate", evaluated),
        (gbm, "gbm_fit", "gbm.gbm_fit", None),
        (gbm, "fit_tree", "gbm.fit_tree", None),
        (gbm, "best_split", "gbm.best_split", None),
        (gbm, "tree_apply", "gbm.tree_apply", None),
        (gbm, "predict_matrix", "gbm.predict_matrix", predicted),
        (forecast, "predict_matrix", "gbm.predict_matrix", predicted),
        (gbm, "serialize_model", "gbm.serialize_model", lambda text, a, k: model_text(text)),
        (gbm, "deserialize_model", "gbm.deserialize_model", lambda m, a, k: model_text(a[0])),
    ]
    for module, attr, name, observe in spans:
        tracer.patch(module, attr, name, observe)


def layer_metrics(tracer: Tracer, counts: dict[str, float]) -> dict[str, tuple[float, str]]:
    st = tracer.stats()

    def total(name: str) -> float:
        return st[name].total_s if name in st else 0.0

    def own(name: str) -> float:
        return st[name].self_s if name in st else 0.0

    def calls(name: str) -> int:
        return st[name].calls if name in st else 0

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    tree_times = st["gbm.fit_tree"].durations if "gbm.fit_tree" in st else np.zeros(1)
    m = {
        "ingest.parse_dataset.s": (total("ingest.parse_dataset"), "s"),
        "ingest.parse_dataset.rows_per_s": (
            ratio(counts.get("ingest.rows_read", 0), total("ingest.parse_dataset")), "rows/s"),
        "ingest.rows_read": (counts.get("ingest.rows_read", 0), "count"),
        "ingest.rows_dropped": (counts.get("ingest.rows_dropped", 0), "count"),
        "ingest.cells_noted": (counts.get("ingest.cells_noted", 0), "count"),
        "ingest.impute_missing.s": (total("ingest.impute_missing"), "s"),
        "ingest.impute_missing.rows_out": (counts.get("ingest.impute_missing.rows_out", 0), "count"),
        "wqi.compute_wqi.calls": (calls("wqi.compute_wqi"), "count"),
        "wqi.compute_wqi.s": (total("wqi.compute_wqi"), "s"),
        "rules.diagnose.calls": (calls("rules.diagnose"), "count"),
        "rules.diagnose.s": (total("rules.diagnose"), "s"),
        "rules.default_ruleset.s": (total("rules.default_ruleset"), "s"),
        "forecast.build_feature_rows.self_s": (own("forecast.build_feature_rows"), "s"),
        "forecast.build_supervised.self_s": (own("forecast.build_supervised"), "s"),
        "forecast.split_by_station.s": (total("forecast.split_by_station"), "s"),
        "forecast.evaluate.self_s": (own("forecast.evaluate"), "s"),
        "forecast.examples": (counts.get("forecast.examples", 0), "count"),
        "forecast.heldout_r2": (counts.get("forecast.heldout_r2", 0.0), "r2"),
        "gbm.gbm_fit.s": (total("gbm.gbm_fit"), "s"),
        "gbm.fit_tree.calls": (calls("gbm.fit_tree"), "count"),
        "gbm.fit_tree.s_p50": (float(np.percentile(tree_times, 50)), "s"),
        "gbm.fit_tree.s_p90": (float(np.percentile(tree_times, 90)), "s"),
        "gbm.best_split.calls": (calls("gbm.best_split"), "count"),
        "gbm.best_split.s": (total("gbm.best_split"), "s"),
        "gbm.best_split.share": (ratio(total("gbm.best_split"), total("gbm.gbm_fit")), "fraction"),
        "gbm.nodes": (counts.get("gbm.nodes", 0), "count"),
        "gbm.leaves": (counts.get("gbm.leaves", 0), "count"),
        "gbm.serialize_model.s": (total("gbm.serialize_model"), "s"),
        "gbm.model_bytes": (counts.get("gbm.model_bytes", 0), "bytes"),
        "gbm.deserialize_model.s": (total("gbm.deserialize_model"), "s"),
        "gbm.predict_matrix.s": (total("gbm.predict_matrix"), "s"),
        "gbm.predict_matrix.rows_per_s": (
            ratio(counts.get("gbm.predict_matrix.rows", 0), total("gbm.predict_matrix")), "rows/s"),
        "gbm.tree_apply.calls": (calls("gbm.tree_apply"), "count"),
    }
    for command in COMMANDS:
        m[f"cli.{command}.cpu_s"] = (counts.get(f"cli.{command}.cpu_s", 0.0), "s")
    return m


# -- environment and report ----------------------------------------------


def environment(bench: Bench) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    git_sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = git.stdout.strip() or git_sha
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha,
        "workload": bench.wl.name,
        "seed": bench.seed,
        "input_rows": bench.stations * PERIODS,
        "generator": bench.generator_runs,
        "commands": [" ".join(t) for t in ((bench.wl.fit,) if bench.wl.fit else ()) + bench.wl.commands],
        "load": "closed loop, one client, one CLI process at a time",
    }
    if bench.model.exists():
        env["model"] = model_shape(bench.model.read_text(encoding="utf-8"))
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply station counts (the smoke check uses a tiny scale)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (SRC / "aquagauge" / "cli.py", GENERATOR) if not p.is_file()]
    if missing:
        print(f"error: the aquagauge checkout is incomplete; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(WORKLOADS[args.workload], args.seed, args.scale)
    result = bench.traced() if args.trace else bench.measure(args.seconds)
    env = environment(bench)
    attempted = len(bench.invocations)
    failed = sum(1 for inv in bench.invocations if inv.problems)
    correct = not bench.failures

    print(f"workload {bench.wl.name} seed {bench.seed} trace {args.trace}: "
          f"{attempted} CLI invocations, {failed} failed (failed_frac {failed / attempted:.4g})")
    for key, value in env.items():
        print(f"env {key}={json.dumps(value)}")
    for name, info in result["detail"].items():
        print(f"detail {name} {json.dumps(info)}")
    for name, digest in sorted(bench.fingerprints.items()):
        print(f"fingerprint {name} sha256={digest}")
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value!r} {unit}")
    if args.trace:
        share, base = result["metrics"]["gbm.best_split.share"][0], result["metrics"]["gbm.gbm_fit.s"][0]
        print(f"metric gbm.best_split.share {share:.4f} of gbm.gbm_fit.s {base:.4f} s")

    record = {"environment": env, "detail": result["detail"], "fingerprints": bench.fingerprints,
              "failures": bench.failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}
    record_path = bench.work / f"result-seed{bench.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import csv
import functools
import importlib.util
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from aquagauge.cli import main
from aquagauge.ingest import NUMERIC_FIELDS, WQI_INPUTS, Dataset, Provenance, WaterSample, csv_text

GENERATOR = Path(__file__).resolve().parent.parent / "scripts" / "generate_station_csv.py"
_spec = importlib.util.spec_from_file_location("generate_station_csv", GENERATOR)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)


@pytest.fixture(scope="session")
def benchmark_csv(tmp_path_factory):
    """The path of the file generator.main writes for (stations, missing
    rate, seed), given as the strings of its flags, with 9 periods: each file
    is generated once per test run, on first use. perfbench generates three at
    its seed 1: ("2000", "0.01", "1001") for train-18k, and ("3000", "0.05",
    "1001") and its set-up's ("100", "0.01", "1002") for score-forecast-27k."""

    @functools.cache
    def path(stations: str, missing_rate: str, seed: str) -> Path:
        out = tmp_path_factory.mktemp("benchmark") / "stations.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = generator.main(["--stations", stations, "--periods", "9", "--missing-rate", missing_rate,
                                   "--seed", seed, "--out", str(out)])
        assert code == 0
        return out

    return path


@dataclass(frozen=True)
class Train18kRun:
    """What perfbench's train-18k commands leave: the input, the files they
    write, and evaluate's stdout and stderr."""

    data: Path
    model: Path
    curve: Path
    report: Path
    evaluate_out: str
    evaluate_err: str


def _cli(*argv) -> tuple[str, str]:
    """stdout and stderr of ``cli.main`` on argv, after it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def train_18k_run(benchmark_csv, tmp_path_factory) -> Train18kRun:
    """train (30 trees, station split at seed 0) and evaluate on the
    2,000-station file, run once per test run, so that the tests reading the
    model share one fit."""
    data = benchmark_csv("2000", "0.01", "1001")
    out = tmp_path_factory.mktemp("train-18k")
    model, curve, report = (out / name for name in ("model.txt", "curve.csv", "report.csv"))
    _cli("train", "--input", str(data), "--model", str(model), "--out", str(curve), "--n-trees", "30")
    evaluate_out, evaluate_err = _cli("evaluate", "--input", str(data), "--model", str(model), "--out", str(report))
    return Train18kRun(data, model, curve, report, evaluate_out, evaluate_err)


# Header spelled the way real station exports print it, units and all.
STATION_HEADER = [
    "Serial No",
    "STATION CODE",
    "LOCATIONS",
    "State",
    "Temp",
    "D.O. (mg/l)",
    "pH",
    "CONDUCTIVITY",
    "B.O.D.",
    "NITRATENAN N+ NITRITENANN (mg/l)",
    "FECAL COLIFORM (MPN/100ml)",
    "Total COLIFORM (MPN/100ml) Mean",
    "Month and year",
]

FIXTURE_ROWS = [
    ["0", "1207", "Dhanmondi Lake Area, Dhaka", "Dhaka", "30.6", "6.7", "7.5", "203", "1.3", "0.1", "11", "27", "8-2019"],
    ["1", "1207", "Dhanmondi 27 Area, Dhaka", "Dhaka", "29.8", "5.7", "7.2", "189", "2", "0.2", "4953", "8391", "8-2019"],
    ["2", "1208", "Mirpur Area, Dhaka", "Dhaka", "29.5", "6.9", "6.9", "179", "1.7", "0.1", "3243", "5330", "8-2019"],
    ["3", "9210", "Doulotpur Area, Khulna", "Khulna", "29.7", "5.8", "6.9", "64", "3.8", "0.5", "5382", "8443", "9-2019"],
    ["4", "9450", "Shyamnagar Area, Satkhira", "Satkhira", "28.2", "5.6", "7.3", "83", "1.9", "0.4", "3428", "5500", "9-2019"],
]


def rows_to_csv(header, rows) -> str:
    """CSV text of the rows, one record each, ending in LF. The writer's line
    terminator holds a CR, so that it quotes a cell holding a lone CR, which
    would end a record; the csv module does that by itself only from
    Python 3.13 on."""
    records = []
    for row in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        records.append(buf.getvalue()[:-2] + "\n")
    return "".join(records)


@pytest.fixture
def station_fixture_csv() -> str:
    return rows_to_csv(STATION_HEADER, FIXTURE_ROWS)


def serialize_dataset(ds: Dataset) -> str:
    """Write a dataset back to CSV text that reparses to identical samples."""
    return csv_text(
        ["station_code", "location", "state", "temp", "do", "ph", "conductivity", "bod",
         "nitrate", "fecal_coliform", "total_coliform", "month_year"],
        [ds.station_code.tolist(), ds.location.tolist(), ds.state.tolist(),
         *(["" if math.isnan(v) else repr(v) for v in column] for column in ds.values.T.tolist()),
         [f"{month}-{year}" for month, year in zip(ds.month.tolist(), ds.year.tolist())]],
    )


def mk_sample(
    station="S1",
    month=8,
    year=2019,
    ph=7.5,
    do=6.7,
    bod=1.3,
    ec=203.0,
    na=0.1,
    tc=27.0,
    fc=11.0,
    temp=30.6,
    location="Somewhere",
    state="State",
    source_row=None,
) -> WaterSample:
    return WaterSample(
        station_code=station,
        location=location,
        state=state,
        temp=temp,
        dissolved_oxygen=do,
        ph=ph,
        conductivity=ec,
        bod=bod,
        nitrate=na,
        fecal_coliform=fc,
        total_coliform=tc,
        month=month,
        year=year,
        source_row=source_row,
    )


def mk_dataset(samples, *, sort=True) -> Dataset:
    """The samples' columns as a Dataset, sorted by (station, year, month) as
    parse_dataset sorts, or in the given order with sort=False; a sample
    without a source_row takes its 1-based position."""
    if sort:
        samples = sorted(samples, key=lambda s: (s.station_code, s.year, s.month))

    def column(name, dtype) -> np.ndarray:
        return np.array([getattr(s, name) for s in samples], dtype=dtype)

    values = np.array([[getattr(s, name) for name in NUMERIC_FIELDS] for s in samples],  # None converts to NaN
                      dtype=np.float64).reshape(len(samples), len(NUMERIC_FIELDS))
    return Dataset(column("station_code", object), column("location", object), column("state", object),
                   column("month", np.int64), column("year", np.int64),
                   np.array([pos if s.source_row is None else s.source_row
                             for pos, s in enumerate(samples, start=1)], dtype=np.int64),
                   values, Provenance(source="<fixture>"))


def wqi_inputs(*samples) -> np.ndarray:
    """The samples' six WQI inputs as ``score_columns`` reads them: one row
    each, in the given order, NaN where missing."""
    return mk_dataset(samples, sort=False).columns(WQI_INPUTS)


def synthetic_station_rows(n_stations=12, n_periods=6, seed=11):
    """Station rows with drifting chemistry, observed every 4 months."""
    rng = np.random.default_rng(seed)
    rows = []
    serial = 0
    for k in range(n_stations):
        station = f"{2000 + k}"
        ph = rng.uniform(6.6, 8.2)
        do = rng.uniform(4.0, 9.5)
        bod = rng.uniform(0.5, 7.0)
        ec = rng.uniform(40.0, 300.0)
        na = rng.uniform(0.1, 30.0)
        tc = rng.uniform(5.0, 2000.0)
        temp = rng.uniform(22.0, 32.0)
        month, year = 1, 2018
        for _ in range(n_periods):
            rows.append(
                [
                    str(serial),
                    station,
                    f"Area {k}",
                    "Region",
                    f"{temp:.1f}",
                    f"{do:.2f}",
                    f"{ph:.2f}",
                    f"{ec:.1f}",
                    f"{bod:.2f}",
                    f"{na:.2f}",
                    f"{rng.uniform(1, 5000):.0f}",
                    f"{tc:.1f}",
                    f"{month}-{year}",
                ]
            )
            serial += 1
            month += 4
            if month > 12:
                month -= 12
                year += 1
            ph = float(np.clip(ph + rng.normal(0, 0.15), 6.0, 9.3))
            do = float(np.clip(do + rng.normal(0, 0.5), 2.0, 12.0))
            bod = float(np.clip(bod + rng.normal(0, 0.5), 0.2, 12.0))
            ec = float(np.clip(ec + rng.normal(0, 15.0), 10.0, 400.0))
            na = float(np.clip(na + rng.normal(0, 2.0), 0.05, 60.0))
            tc = float(np.clip(tc * rng.uniform(0.6, 1.6), 1.0, 9000.0))
            temp = float(np.clip(temp + rng.normal(0, 1.0), 15.0, 36.0))
    return rows


@pytest.fixture
def synthetic_station_csv() -> str:
    return rows_to_csv(STATION_HEADER, synthetic_station_rows())


def synthetic_regression(n=500, n_features=4, seed=20240817):
    """Additive signal plus noise; the shared fixture for boosting checks."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=(n, n_features))
    y = (
        2.0 * x[:, 0]
        + np.sin(2.0 * x[:, 1])
        + 0.5 * x[:, 2] ** 2
        + 0.8 * x[:, 3]
        + rng.normal(0.0, 0.3, size=n)
    )
    return x, y


@pytest.fixture
def synth_xy():
    return synthetic_regression()

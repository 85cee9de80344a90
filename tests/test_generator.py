"""scripts/generate_station_csv.py against its per-value reference.

``loop_generate_rows`` is the generator as it was when it drew every value
with one numpy ``uniform``/``normal`` call and clipped it with ``np.clip``.
It is kept here as the oracle: every file the benchmark and the examples
start from must stay byte for byte what a seed gave before, so the rewritten
``generate_columns`` must return exactly the same rows, as columns, for any
shape, missing rate and seed. What is fixed is the order of the draws in the
stream, not one call per value: consecutive draws of one kind may come from
one call, but uniforms and normals must alternate as they do here, because a
normal takes a variable number of words from the stream.
"""

import csv
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import generator

# sha256 of the file main(["--stations", "60", "--seed", "0", ...]) writes:
# pins the stream itself, so that the reference and the generator cannot
# drift together (a numpy that draws differently fails here too).
GOLDEN_60_STATIONS_SHA256 = "f55f584a5effd387df3f4530f85a8b3c280c2c516688df854f23ae14828b6d75"

# sha256 of the two files perfbench's score-forecast-27k workload generates
# at its seed 1 (9 periods): the CSV its commands read, and the smaller one
# its set-up fits the model on. train-18k's file is pinned in
# tests/test_benchmark_goldens.py::test_train_18k_outputs, which reads it.
SCORE_FORECAST_27K_SHA256 = {
    ("3000", "0.05", "1001"): "85f0fedcc3adf846e53dde8f6b1772a7b44dd32e610aa1120ee90a67339ea04e",
    ("100", "0.01", "1002"): "f88a02b7029bdb6919d2cb2b83b4cfe423c513e8389708f1fc56f3c520638625",
}


def loop_generate_rows(n_stations, n_periods, missing_rate, rng):
    rows = []
    serial = 0
    for k in range(n_stations):
        station = str(1200 + k)
        region = generator.REGIONS[k % len(generator.REGIONS)]
        ph = rng.uniform(6.4, 8.4)
        do = rng.uniform(3.5, 10.0)
        bod = rng.uniform(0.5, 8.0)
        ec = rng.uniform(40.0, 320.0)
        na = rng.uniform(0.1, 40.0)
        tc = rng.uniform(5.0, 4000.0)
        temp = rng.uniform(20.0, 33.0)
        month, year = int(rng.integers(1, 13)), 2017
        for _ in range(n_periods):
            cells = [
                f"{temp:.1f}",
                f"{do:.2f}",
                f"{ph:.2f}",
                f"{ec:.1f}",
                f"{bod:.2f}",
                f"{na:.2f}",
                f"{rng.uniform(1, 9000):.0f}",
                f"{tc:.1f}",
            ]
            for i in range(len(cells)):
                if rng.random() < missing_rate:
                    cells[i] = "n/a" if rng.random() < 0.5 else ""
            rows.append([str(serial), station, f"Area {k}, {region}", region, *cells, f"{month}-{year}"])
            serial += 1
            month += 4
            if month > 12:
                month -= 12
                year += 1
            ph = float(np.clip(ph + rng.normal(0, 0.15), 5.5, 9.5))
            do = float(np.clip(do + rng.normal(0, 0.5), 1.0, 13.0))
            bod = float(np.clip(bod + rng.normal(0, 0.6), 0.2, 20.0))
            ec = float(np.clip(ec + rng.normal(0, 18.0), 10.0, 450.0))
            na = float(np.clip(na + rng.normal(0, 2.5), 0.05, 120.0))
            tc = float(np.clip(tc * rng.uniform(0.5, 1.8), 1.0, 50000.0))
            temp = float(np.clip(temp + rng.normal(0, 1.2), 12.0, 38.0))
    return rows


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 40),
    st.integers(1, 12),
    st.one_of(st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.floats(0, 1)),
    st.integers(0, 2**63 - 1),
)
# The 4th and 8th checks hit: the 8th check and its coin are the 10th and
# 11th uniforms of the period, past the 9 drawn with the coliform value.
@example(1, 1, 0.2, 13)
def test_rows_match_per_value_reference(n_stations, n_periods, missing_rate, seed):
    columns = generator.generate_columns(n_stations, n_periods, missing_rate, np.random.default_rng(seed))
    want = loop_generate_rows(n_stations, n_periods, missing_rate, np.random.default_rng(seed))
    assert list(map(list, zip(*columns))) == want


def test_golden_file_sha256(tmp_path, capsys):
    out = tmp_path / "stations.csv"
    assert generator.main(["--stations", "60", "--seed", "0", "--out", str(out)]) == 0
    assert "wrote 540 rows for 60 stations" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_60_STATIONS_SHA256


def test_file_reads_back_as_generated(tmp_path, capsys):
    """csv.reader reads the file back to the header and the generated rows,
    with regions whose names, and so places, hold a comma, a double quote, a
    CR or an LF."""
    regions = ["Dhaka, North", 'Khulna "East"', "Sat\rkhira", "Jes\nsore", "Magura"]
    out = tmp_path / "stations.csv"
    with mock.patch.object(generator, "REGIONS", regions):
        assert generator.main(["--stations", "12", "--periods", "3", "--missing-rate", "0.2", "--seed", "4",
                               "--out", str(out)]) == 0
        want = loop_generate_rows(12, 3, 0.2, np.random.default_rng(4))
    capsys.readouterr()
    with open(out, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [generator.HEADER, *want]
    assert {row[3] for row in want} == set(regions)


@pytest.mark.parametrize(("stations", "missing_rate", "seed"), sorted(SCORE_FORECAST_27K_SHA256))
def test_score_forecast_27k_inputs_sha256(benchmark_csv, stations, missing_rate, seed):
    digest = hashlib.sha256(benchmark_csv(stations, missing_rate, seed).read_bytes()).hexdigest()
    assert digest == SCORE_FORECAST_27K_SHA256[stations, missing_rate, seed]


@pytest.mark.parametrize(
    "args",
    [
        ["--stations", "-5"],
        ["--periods", "0"],
        ["--periods", "-1"],
        ["--missing-rate", "2"],
        ["--missing-rate", "-0.1"],
        ["--missing-rate", "nan"],
        ["--seed", "-1"],
    ],
)
def test_rejects_nonsense_arguments(tmp_path, capsys, args):
    out = tmp_path / "stations.csv"
    with pytest.raises(SystemExit) as exc:
        generator.main([*args, "--out", str(out)])
    assert exc.value.code == 2
    assert args[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing/stations.csv", "."])
def test_rejects_unwritable_out_before_drawing(tmp_path, capsys, out):
    """A path in a directory that does not exist, or a directory, exits 2
    before any row is drawn."""
    with mock.patch.object(generator, "generate_columns", side_effect=AssertionError("drew rows")):
        with pytest.raises(SystemExit) as exc:
            generator.main(["--out", str(tmp_path / out)])
    assert exc.value.code == 2
    assert f"--out {tmp_path / out}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [["--stations", "0"], ["--periods", "1"], ["--missing-rate", "0"],
                                  ["--missing-rate", "1"]])
def test_accepts_edge_arguments(tmp_path, args):
    out = tmp_path / "stations.csv"
    assert generator.main([*args, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("Serial No,")

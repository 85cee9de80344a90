#!/usr/bin/env python3
"""Generate a synthetic monitoring-station CSV for experiments.

Stations get a persistent chemistry baseline that drifts between visits, so
the resulting series carry learnable four-month structure. A small fraction
of cells is blanked or replaced by "n/a" to exercise the lenient ingest path.

The draws come from the seeded PCG64 stream in a fixed order, so a seed's
file never changes. Consecutive draws of one kind may share a call, which
takes the same values from the stream, but the order across kinds may not
change: a ziggurat normal takes a variable number of words, so uniforms and
normals must alternate as they always have.

Usage:
    python scripts/generate_station_csv.py --stations 40 --periods 9 --out stations.csv
"""

import argparse
import csv
import sys
from itertools import chain

import numpy as np

HEADER = [
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

REGIONS = ["Dhaka", "Khulna", "Satkhira", "Jessore", "Magura", "Foridpur"]

# The 8 measurement cells, Temp to Total COLIFORM in HEADER order.
CELL_FORMATS = ["{:.1f}", "{:.2f}", "{:.2f}", "{:.1f}", "{:.2f}", "{:.2f}", "{:.0f}", "{:.1f}"]

# Stations drawn, drifted and formatted together: the working arrays and
# columns of one block are small beside the rows they build.
BLOCK_STATIONS = 256


def generate_rows(n_stations: int, n_periods: int, missing_rate: float, rng) -> list[list[str]]:
    rows = []
    for first in range(0, n_stations, BLOCK_STATIONS):
        rows += _block_rows(first, min(first + BLOCK_STATIONS, n_stations), n_periods, missing_rate, rng)
    return rows


def _block_rows(first: int, stop: int, n_periods: int, missing_rate: float, rng) -> list[list[str]]:
    # Draw in the stream's order, one call per run of same-kind values:
    # per station 7 starting uniforms and the start month; per period the
    # coliform uniform and 8 missing-cell checks, then 5 drift normals, the
    # tc factor uniform and the temp normal.
    random, normal = rng.random, rng.standard_normal
    starts, months, coliform, steps, tc_factor, temp_steps, blanks = [], [], [], [], [], [], []
    for _ in range(first, stop):
        starts.append(random(7))
        months.append(int(rng.integers(1, 13)))
        for _ in range(n_periods):
            u = random(9).tolist()
            coliform.append(u[0])
            # With no buffered value under the rate, the 8 checks are
            # u[1:] and none hits.
            if min(u[1:]) < missing_rate:
                # A check that hits takes the next uniform as its "n/a"
                # coin, so walk the checks in order; past the 9 buffered
                # values, draw one more scalar each time one is needed.
                draws = chain(u[1:], iter(random, None))
                for i in range(8):
                    if next(draws) < missing_rate:
                        blanks.append((len(coliform) - 1, i, "n/a" if next(draws) < 0.5 else ""))
            steps.append(normal(5))
            tc_factor.append(random())
            temp_steps.append(normal())

    # The drift of every station at once, one period at a time: numpy's
    # elementwise ops are the same IEEE operations as Python's floats, and
    # clip is min(max(v, lo), hi) on a finite float. numpy draws
    # uniform(a, b) as a + (b - a) * random() and normal(0, s) as
    # s * standard_normal(), which these spell out. track holds each
    # station's values per period in CELL_FORMATS order, less the coliform.
    n = stop - first
    u = np.array(starts)
    ph = 6.4 + (8.4 - 6.4) * u[:, 0]
    do = 3.5 + (10.0 - 3.5) * u[:, 1]
    bod = 0.5 + (8.0 - 0.5) * u[:, 2]
    ec = 40.0 + (320.0 - 40.0) * u[:, 3]
    na = 0.1 + (40.0 - 0.1) * u[:, 4]
    tc = 5.0 + (4000.0 - 5.0) * u[:, 5]
    temp = 20.0 + (33.0 - 20.0) * u[:, 6]
    z = np.array(steps).reshape(n, n_periods, 5)
    tc_factor = 0.5 + (1.8 - 0.5) * np.array(tc_factor).reshape(n, n_periods)
    temp_steps = np.array(temp_steps).reshape(n, n_periods)
    track = np.empty((7, n, n_periods))
    for p in range(n_periods):
        track[:, :, p] = temp, do, ph, ec, bod, na, tc
        ph = np.clip(ph + 0.15 * z[:, p, 0], 5.5, 9.5)
        do = np.clip(do + 0.5 * z[:, p, 1], 1.0, 13.0)
        bod = np.clip(bod + 0.6 * z[:, p, 2], 0.2, 20.0)
        ec = np.clip(ec + 18.0 * z[:, p, 3], 10.0, 450.0)
        na = np.clip(na + 2.5 * z[:, p, 4], 0.05, 120.0)
        tc = np.clip(tc * tc_factor[:, p], 1.0, 50000.0)
        temp = np.clip(temp + 1.2 * temp_steps[:, p], 12.0, 38.0)

    # One map per cell column, in row order (station by station).
    values = [*track[:6], 1.0 + (9000.0 - 1.0) * np.array(coliform), track[6]]
    cells = [list(map(fmt.format, v.ravel().tolist())) for fmt, v in zip(CELL_FORMATS, values)]
    for row, i, blank in blanks:
        cells[i][row] = blank

    # A start month m gives the dates m-2017, m+4 ..., a year on after each
    # pass of December.
    calendar = {
        month: [f"{(month - 1 + 4 * p) % 12 + 1}-{2017 + (month - 1 + 4 * p) // 12}" for p in range(n_periods)]
        for month in set(months)
    }
    codes, places, regions, dates = [], [], [], []
    for k, month in zip(range(first, stop), months):
        region = REGIONS[k % len(REGIONS)]
        codes += [str(1200 + k)] * n_periods
        places += [f"Area {k}, {region}"] * n_periods
        regions += [region] * n_periods
        dates += calendar[month]
    serials = map(str, range(first * n_periods, stop * n_periods))
    return list(map(list, zip(serials, codes, places, regions, *cells, dates)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stations", type=int, default=40)
    parser.add_argument("--periods", type=int, default=9, help="observations per station, 4 months apart")
    parser.add_argument("--missing-rate", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="stations.csv")
    args = parser.parse_args(argv)
    if args.stations < 0:
        parser.error("--stations must be >= 0")
    if args.periods < 1:
        parser.error("--periods must be >= 1")
    if not 0.0 <= args.missing_rate <= 1.0:
        parser.error("--missing-rate must be in [0, 1]")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    rng = np.random.default_rng(args.seed)
    rows = generate_rows(args.stations, args.periods, args.missing_rate, rng)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows for {args.stations} stations to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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

The values are drawn, drifted and formatted as columns, and the columns are
written out line by line, quoted where a cell needs it as the csv module's
minimal quoting would quote it.

Usage:
    python scripts/generate_station_csv.py --stations 40 --periods 9 --out stations.csv
"""

import argparse
import sys
from itertools import chain, repeat

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

# The format specs of the 8 measurement cells, Temp to Total COLIFORM in HEADER order.
CELL_FORMATS = [".1f", ".2f", ".2f", ".1f", ".2f", ".2f", ".0f", ".1f"]

# Stations drawn, drifted and formatted together: the working arrays and
# columns of one block are small beside the rows they build.
BLOCK_STATIONS = 256


def generate_columns(n_stations: int, n_periods: int, missing_rate: float, rng) -> list[list[str]]:
    """The CSV body as its 13 columns in HEADER order, one cell per row."""
    columns = [[] for _ in HEADER]
    for first in range(0, n_stations, BLOCK_STATIONS):
        block = _block_columns(first, min(first + BLOCK_STATIONS, n_stations), n_periods, missing_rate, rng)
        for column, cells in zip(columns, block):
            column += cells
    return columns


def _block_columns(first: int, stop: int, n_periods: int, missing_rate: float, rng) -> list[list[str]]:
    # Draw in the stream's order, one call per run of same-kind values:
    # per station 7 starting uniforms and the start month; per period the
    # coliform uniform and 8 missing-cell checks, then 5 drift normals, the
    # tc factor uniform and the temp normal. z holds each period's 6 normals.
    n = stop - first
    random, normal = rng.random, rng.standard_normal
    starts, months, coliform, tc_factor, blanks = [], [], [], [], []
    z = np.empty((n * n_periods, 6))
    for _ in range(first, stop):
        starts.append(random(7))
        months.append(int(rng.integers(1, 13)))
        for row in range(len(coliform), len(coliform) + n_periods):
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
                        blanks.append((row, i, "n/a" if next(draws) < 0.5 else ""))
            normal(out=z[row, :5])
            tc_factor.append(random())
            normal(out=z[row, 5:])

    # The drift of every station at once, one period at a time: numpy's
    # elementwise ops are the same IEEE operations as Python's floats, and
    # clip is min(max(v, lo), hi) on a finite float. numpy draws
    # uniform(a, b) as a + (b - a) * random() and normal(0, s) as
    # s * standard_normal(), which these spell out. track holds each
    # station's values per period in CELL_FORMATS order, less the coliform.
    u = np.array(starts)
    ph = 6.4 + (8.4 - 6.4) * u[:, 0]
    do = 3.5 + (10.0 - 3.5) * u[:, 1]
    bod = 0.5 + (8.0 - 0.5) * u[:, 2]
    ec = 40.0 + (320.0 - 40.0) * u[:, 3]
    na = 0.1 + (40.0 - 0.1) * u[:, 4]
    tc = 5.0 + (4000.0 - 5.0) * u[:, 5]
    temp = 20.0 + (33.0 - 20.0) * u[:, 6]
    z = z.reshape(n, n_periods, 6)
    tc_factor = 0.5 + (1.8 - 0.5) * np.array(tc_factor).reshape(n, n_periods)
    track = np.empty((7, n, n_periods))
    for p in range(n_periods):
        track[:, :, p] = temp, do, ph, ec, bod, na, tc
        ph = np.clip(ph + 0.15 * z[:, p, 0], 5.5, 9.5)
        do = np.clip(do + 0.5 * z[:, p, 1], 1.0, 13.0)
        bod = np.clip(bod + 0.6 * z[:, p, 2], 0.2, 20.0)
        ec = np.clip(ec + 18.0 * z[:, p, 3], 10.0, 450.0)
        na = np.clip(na + 2.5 * z[:, p, 4], 0.05, 120.0)
        tc = np.clip(tc * tc_factor[:, p], 1.0, 50000.0)
        temp = np.clip(temp + 1.2 * z[:, p, 5], 12.0, 38.0)

    # One map per cell column, in row order (station by station).
    values = [*track[:6], 1.0 + (9000.0 - 1.0) * np.array(coliform), track[6]]
    cells = [list(map(format, v.ravel().tolist(), repeat(spec))) for spec, v in zip(CELL_FORMATS, values)]
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
    serials = list(map(str, range(first * n_periods, stop * n_periods)))
    return [serials, codes, places, regions, *cells, dates]


def _csv_cell(cell: str) -> str:
    """cell as the csv module's minimal quoting writes it: in double quotes,
    its own doubled, when it holds a comma, a double quote, a CR or an LF."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


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
    try:  # before any drawing, so that an unwritable path fails at once
        fh = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        parser.error(f"--out {args.out}: {exc.strerror}")
    with fh:
        columns = generate_columns(args.stations, args.periods, args.missing_rate, rng)
        # Of the cells, only a code, place or region can hold a character to quote.
        for i in (1, 2, 3):
            quoted = {cell: _csv_cell(cell) for cell in set(columns[i])}
            columns[i] = list(map(quoted.__getitem__, columns[i]))
        # Line by line: one string of the whole file would hold every line at once.
        fh.writelines(map("{}\n".format, map(",".join, chain([HEADER], zip(*columns)))))
    print(f"wrote {len(columns[0])} rows for {args.stations} stations to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

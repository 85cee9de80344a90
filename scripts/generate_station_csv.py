#!/usr/bin/env python3
"""Generate a synthetic monitoring-station CSV for experiments.

Stations get a persistent chemistry baseline that drifts between visits, so
the resulting series carry learnable four-month structure. A small fraction
of cells is blanked or replaced by "n/a" to exercise the lenient ingest path.

Every draw is one scalar from the seeded PCG64 stream, taken in a fixed
order, so a seed's file never changes: drawing in batches would consume the
stream differently and change every file.

Usage:
    python scripts/generate_station_csv.py --stations 40 --periods 9 --out stations.csv
"""

import argparse
import csv
import sys

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


def generate_rows(n_stations: int, n_periods: int, missing_rate: float, rng) -> list[list[str]]:
    # numpy draws uniform(a, b) as a + (b - a) * random() and normal(0, s) as
    # s * standard_normal(), so these spell the same draws without the
    # argument handling; min(max(v, lo), hi) is np.clip on a finite float.
    random, normal = rng.random, rng.standard_normal
    rows = []
    serial = 0
    for k in range(n_stations):
        station = str(1200 + k)
        region = REGIONS[k % len(REGIONS)]
        location = f"Area {k}, {region}"
        ph = 6.4 + (8.4 - 6.4) * random()
        do = 3.5 + (10.0 - 3.5) * random()
        bod = 0.5 + (8.0 - 0.5) * random()
        ec = 40.0 + (320.0 - 40.0) * random()
        na = 0.1 + (40.0 - 0.1) * random()
        tc = 5.0 + (4000.0 - 5.0) * random()
        temp = 20.0 + (33.0 - 20.0) * random()
        month, year = int(rng.integers(1, 13)), 2017
        for _ in range(n_periods):
            cells = [
                f"{temp:.1f}",
                f"{do:.2f}",
                f"{ph:.2f}",
                f"{ec:.1f}",
                f"{bod:.2f}",
                f"{na:.2f}",
                f"{1.0 + (9000.0 - 1.0) * random():.0f}",
                f"{tc:.1f}",
            ]
            for i in range(len(cells)):
                if random() < missing_rate:
                    cells[i] = "n/a" if random() < 0.5 else ""
            rows.append([str(serial), station, location, region, *cells, f"{month}-{year}"])
            serial += 1
            month += 4
            if month > 12:
                month -= 12
                year += 1
            ph = min(max(ph + 0.15 * normal(), 5.5), 9.5)
            do = min(max(do + 0.5 * normal(), 1.0), 13.0)
            bod = min(max(bod + 0.6 * normal(), 0.2), 20.0)
            ec = min(max(ec + 18.0 * normal(), 10.0), 450.0)
            na = min(max(na + 2.5 * normal(), 0.05), 120.0)
            tc = min(max(tc * (0.5 + (1.8 - 0.5) * random()), 1.0), 50000.0)
            temp = min(max(temp + 1.2 * normal(), 12.0), 38.0)
    return rows


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

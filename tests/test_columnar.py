"""The columnar ingest and pairing against row-at-a-time references.

``loop_parse_dataset``, ``loop_impute_missing`` and ``loop_build_supervised``
are the one-sample-at-a-time implementations the columnar ``parse_dataset``,
``impute_missing`` and ``build_supervised`` replaced. They are kept here as
the oracle: on generated CSVs full of defects the two must agree on the
samples and their order, the whole provenance, the strict-mode error, and
the supervised task bit for bit.
"""

import csv
import math
import statistics
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aquagauge import ingest
from aquagauge.forecast import (
    FEATURE_NAMES,
    WINDOW_MONTHS,
    WINDOW_TOLERANCE,
    build_supervised,
)
from aquagauge.ingest import (
    NUMERIC_FIELDS,
    REQUIRED_COLUMNS,
    WQI_INPUTS,
    AllMissingColumn,
    BadDateToken,
    EmptyInput,
    MalformedRow,
    MissingColumn,
    Provenance,
    WaterSample,
    _irregular_cell,
    _RANGES,
    csv_records,
    impute_missing,
    normalize_column,
    parse_dataset,
    parse_month_year,
)
from conftest import STATION_HEADER
from test_forecast import loop_feature_rows


def loop_parse_dataset(csv_text, strictness="lenient", source="<memory>"):
    """One row at a time, one WaterSample per kept row: (samples, provenance)."""
    strict = strictness == "strict"
    rows = list(csv_records(csv_text))
    if not rows:
        raise EmptyInput()
    header, data_rows = rows[0], rows[1:]
    if isinstance(header, csv.Error):
        raise MalformedRow(0, f"header is not readable CSV: {header}")
    col_of = {}
    for idx, name in enumerate(header):
        canon = normalize_column(name)
        if canon is not None and canon not in col_of:
            col_of[canon] = idx
    for required in REQUIRED_COLUMNS:
        if required not in col_of:
            raise MissingColumn(required)

    prov = Provenance(source=source)
    samples = []
    numeric_cols = [(name, col_of[name], *_RANGES[name]) for name in NUMERIC_FIELDS]
    dates = {}
    for i, row in enumerate(data_rows, start=1):
        if isinstance(row, csv.Error) or len(row) != len(header):
            reason = (f"not readable CSV: {row}" if isinstance(row, csv.Error)
                      else f"expected {len(header)} cells, got {len(row)}")
            if strict:
                raise MalformedRow(i, reason)
            prov.dropped.append((i, reason))
            continue
        station = row[col_of["station_code"]].strip()
        if not station:
            if strict:
                raise MalformedRow(i, "empty station code")
            prov.dropped.append((i, "empty station code"))
            continue
        token = row[col_of["month_year"]]
        if token not in dates:
            try:
                dates[token] = parse_month_year(token)
            except BadDateToken as exc:
                if strict:
                    raise MalformedRow(i, str(exc)) from exc
                prov.dropped.append((i, str(exc)))
                continue
        month, year = dates[token]
        values = {}
        for name, col, lo, hi in numeric_cols:
            cell = row[col]
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not lo <= value <= hi:
                value, note, defect = _irregular_cell(name, cell)
                if strict and defect is not None:
                    raise MalformedRow(i, defect)
                if note is not None:
                    prov.notes.append((i, note))
            values[name] = value
        if all(values[name] is None for name in WQI_INPUTS):
            if strict:
                raise MalformedRow(i, "all six wqi inputs missing")
            prov.dropped.append((i, "all six wqi inputs missing"))
            continue
        samples.append(WaterSample(
            station_code=station,
            location=row[col_of["location"]].strip(),
            state=row[col_of["state"]].strip(),
            **values,
            month=month,
            year=year,
            source_row=i,
        ))
    samples.sort(key=lambda s: (s.station_code, s.year, s.month))
    return samples, prov


def loop_impute_missing(samples, prov, policy):
    """getattr per field per sample and one replaced sample per fill."""
    prov = Provenance(prov.source, list(prov.dropped), list(prov.notes))
    if policy == "drop_row":
        kept = []
        for s in samples:
            missing = s.missing_wqi_inputs()
            if missing:
                prov.dropped.append((s.source_row, f"missing {', '.join(missing)} (drop_row policy)"))
            else:
                kept.append(s)
        return kept, prov
    medians = {}
    for name in WQI_INPUTS:
        observed = [getattr(s, name) for s in samples if getattr(s, name) is not None]
        if any(getattr(s, name) is None for s in samples) and not observed:
            raise AllMissingColumn(name)
        if observed:
            medians[name] = float(statistics.median(observed))
    filled = []
    for s in samples:
        missing = s.missing_wqi_inputs()
        for name in missing:
            prov.notes.append((s.source_row, f"{name} imputed with median {medians[name]!r}"))
        filled.append(replace(s, **{name: medians[name] for name in missing}))
    return filled, prov


def loop_build_supervised(samples):
    """Per-station candidate scan: (features, targets, keys)."""
    values, keys, wqis = loop_feature_rows(SimpleNamespace(samples=samples))
    month_idx = [year * 12 + (month - 1) for _, month, year in keys]
    by_station = {}
    for i, (station, _, _) in enumerate(keys):
        by_station.setdefault(station, []).append(i)
    pairs = []
    for obs in by_station.values():
        for a_pos, i in enumerate(obs):
            best_j = best_dist = best_delta = None
            for j in obs[a_pos + 1:]:
                delta = month_idx[j] - month_idx[i]
                if delta > WINDOW_MONTHS + WINDOW_TOLERANCE:
                    break
                if delta < WINDOW_MONTHS - WINDOW_TOLERANCE:
                    continue
                dist = abs(delta - WINDOW_MONTHS)
                if best_dist is None or dist < best_dist or (dist == best_dist and delta < best_delta):
                    best_j, best_dist, best_delta = j, dist, delta
            if best_j is not None:
                pairs.append((i, float(wqis[best_j])))
    pairs.sort(key=lambda pair: pair[0])
    rows = [i for i, _ in pairs]
    features = values[rows].reshape(len(rows), len(FEATURE_NAMES))
    return features, np.asarray([t for _, t in pairs], dtype=np.float64), [keys[i] for i in rows]


# Station codes that differ only in case, surrounding whitespace or a
# trailing NUL, which fixed-width numpy strings would fold together.
_STATIONS = ["A", "a", " A", "A ", "A\x00", "B", "B\x00\x00", "", "  "]
# Dense enough that a 3- and a 5-month candidate can tie with no 4-month one.
_DATES = ["1-2019", "4-2019", "5-2019", "6-2019", "9-2019", "10-2019", "12-2019", "01-2020", "3-2020",
          "4-2020", "13-2019", "0-2019", "4-1800", "x", ""]
# Locations repeat across rows; a lone surrogate can reach the parser in a str.
_LOCATIONS = ['"Area, 1"', "Area 2", " Lake ", "x\x00", "\ud800", ""]
_GOOD_CELLS = ["7.5", "6.9", "0", "0.1", "1.3", "14", "27", "203", "5330", "8391", "2.5e1", "-0.0"]
_ODD_CELLS = ["", " ", "n/a", "NA", "-", "nan", "junk", "7..5", "inf", "-inf", "1e999", "0x1p3",
              "-3", "15", " 7.25 ", "1_0", "\x00"]

_row = st.tuples(
    st.sampled_from(["row"] * 8 + ["blank", "short", "long", "unreadable"]),
    st.sampled_from(_STATIONS + ["A"] * 6 + ["B"] * 3),
    st.sampled_from(_LOCATIONS),
    st.lists(st.sampled_from(_GOOD_CELLS * 4 + _ODD_CELLS), min_size=8, max_size=8),
    st.sampled_from(_DATES + _DATES[:10]),
)


_OVERSIZED_CELL = "x" * (csv.field_size_limit() + 1)


def _station_csv(rows) -> str:
    """A station CSV as text: defective rows of every kind among good ones."""
    lines = [",".join(STATION_HEADER)]
    for serial, (kind, station, location, numbers, date) in enumerate(rows):
        if kind == "unreadable":  # a cell over the csv module's field size limit
            lines.append(f"{serial},A,{_OVERSIZED_CELL},1,2")
            continue
        if kind == "blank":  # no usable value: a missing, junk or out-of-range cell in each column
            numbers = [cell if cell in _ODD_CELLS else "" for cell in numbers]
        row = [str(serial), station, location, " State ", *numbers, date]
        if kind == "short":
            row.pop()
        elif kind == "long":
            row.append("extra")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


_csv_text = st.lists(_row, max_size=30).map(_station_csv)


def _parse_or_error(parse, text, strictness):
    try:
        return parse(text, strictness)
    except MalformedRow as exc:
        return exc


def _with_rows(samples):
    return [(s, s.source_row) for s in samples]


def _assert_parses_alike(text, strictness):
    """parse_dataset gives the row loop's samples and provenance, or its error."""
    got = _parse_or_error(parse_dataset, text, strictness)
    want = _parse_or_error(loop_parse_dataset, text, strictness)
    if isinstance(want, MalformedRow):
        assert isinstance(got, MalformedRow)
        assert (got.index, got.reason) == (want.index, want.reason)
    else:
        assert _with_rows(got.samples) == _with_rows(want[0])
        assert got.provenance == want[1]


class TestAgainstRowLoop:
    @settings(max_examples=200)
    @given(_csv_text)
    # a junk cell in a row whose six wqi inputs are all unusable: the cell is the error
    @example(_station_csv([("row", "A", "", ["7.5"] * 8, "1-2019"), ("blank", "A", "", ["junk"] + [""] * 7, "5-2019")]))
    # two bad cells in one row: the first in field order is the error
    @example(_station_csv([("row", "A", "", ["7.5", "7.5", "15", "junk"] + ["7.5"] * 4, "1-2019")]))
    # a bad cell in the row after a dropped row: the dropped row is the error
    @example(_station_csv([("short", "A", "", ["7.5"] * 8, "1-2019"), ("row", "A", "", ["7.5", "-3"] + ["7.5"] * 6, "5-2019")]))
    def test_strict_mode_same_error(self, text):
        _assert_parses_alike(text, "strict")

    @settings(max_examples=200)
    @given(_csv_text, st.integers(1, 32))
    def test_chunk_boundaries(self, text, chunk):
        """Any chunk size, down to one record, parses as the row loop does,
        so a chunk may end next to every kind of irregular row."""
        with mock.patch.object(ingest, "_CHUNK_RECORDS", chunk):
            _assert_parses_alike(text, "lenient")
            _assert_parses_alike(text, "strict")

    @settings(max_examples=200)
    @given(_csv_text)
    def test_lenient_parse_impute_and_pairing(self, text):
        ds = parse_dataset(text, source="gen.csv")
        samples, prov = loop_parse_dataset(text, source="gen.csv")
        assert _with_rows(ds.samples) == _with_rows(samples)
        assert ds.provenance == prov
        for policy in ("drop_row", "median"):
            try:
                want_samples, want_prov = loop_impute_missing(samples, prov, policy)
            except AllMissingColumn as exc:
                with pytest.raises(AllMissingColumn) as err:
                    impute_missing(ds, policy)
                assert err.value.name == exc.name
                continue
            imputed = impute_missing(ds, policy)
            assert _with_rows(imputed.samples) == _with_rows(want_samples)
            assert imputed.provenance == want_prov
            task = build_supervised(imputed)
            features, targets, keys = loop_build_supervised(want_samples)
            assert task.features.values.tobytes() == features.tobytes()
            assert task.targets.tobytes() == targets.tobytes()
            assert task.keys.tolist() == keys

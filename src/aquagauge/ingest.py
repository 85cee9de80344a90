"""Monitoring-station CSV ingestion.

Parses raw station CSVs into validated :class:`WaterSample` records. Header
names are matched after normalization (lowercase, parenthesized units and
punctuation stripped), so ``B.O.D.``, ``bod`` and ``B.O. D.`` all map to the
same column. Real station exports type several numeric columns as free text
("n/a", "-", trailing-dot numerals), so the default mode is lenient: bad
cells become missing values and only rows that are unusable outright are
dropped, with every drop logged. :func:`sample_columns` turns a dataset's
samples into float64 columns (NaN for missing) for the column scorers in
``wqi``, ``rules`` and ``forecast``.
"""

from __future__ import annotations

import csv
import io
import math
import re
import statistics
import sys
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .errors import AquagaugeError

# The six fields consumed by the water-quality index.
WQI_INPUTS = (
    "ph",
    "dissolved_oxygen",
    "bod",
    "conductivity",
    "nitrate",
    "total_coliform",
)

#: Columns that must be present (by canonical name) in every input header.
REQUIRED_COLUMNS = (
    "station_code",
    "location",
    "state",
    "temp",
    "dissolved_oxygen",
    "ph",
    "conductivity",
    "bod",
    "nitrate",
    "fecal_coliform",
    "total_coliform",
    "month_year",
)

# Cell tokens treated as an explicit missing value (case-insensitive).
MISSING_TOKENS = frozenset({"nan", "na", "n/a", "-"})

_NUMERIC_FIELDS = (
    "temp",
    "dissolved_oxygen",
    "ph",
    "conductivity",
    "bod",
    "nitrate",
    "fecal_coliform",
    "total_coliform",
)

# Concentration-style fields must be >= 0 when present; pH must sit in [0, 14].
_NONNEGATIVE_FIELDS = frozenset(_NUMERIC_FIELDS) - {"temp", "ph"}

# Closed range of each numeric field; the finite ends also shut out NaN and
# the infinities.
_RANGES = {
    name: (0.0 if name in _NONNEGATIVE_FIELDS else -sys.float_info.max, sys.float_info.max)
    for name in _NUMERIC_FIELDS
} | {"ph": (0.0, 14.0)}

_MONTH_YEAR_RE = re.compile(r"^(\d{1,2})-(\d{4})$")

_PAREN_RE = re.compile(r"\([^)]*\)")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")

_ALIASES = {
    "stationcode": "station_code",
    "station": "station_code",
    "locations": "location",
    "location": "location",
    "state": "state",
    "temp": "temp",
    "temperature": "temp",
    "do": "dissolved_oxygen",
    "dissolvedoxygen": "dissolved_oxygen",
    "ph": "ph",
    "conductivity": "conductivity",
    "ec": "conductivity",
    "bod": "bod",
    "fecalcoliform": "fecal_coliform",
    "monthandyear": "month_year",
    "monthyear": "month_year",
    "serialno": None,  # accepted, never stored
    "serial": None,
    "sno": None,
    "sn": None,
}


class IngestError(AquagaugeError):
    pass


class MissingColumn(IngestError):
    def __init__(self, name: str):
        super().__init__(f"required column missing from header: {name}")
        self.name = name


class MalformedRow(IngestError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"row {index}: {reason}")
        self.index = index
        self.reason = reason


class EmptyInput(IngestError):
    def __init__(self):
        super().__init__("input contains no header row")


class BadDateToken(IngestError):
    def __init__(self, token: str):
        super().__init__(f"bad month-year token: {token!r} (expected M-YYYY or MM-YYYY)")
        self.token = token


class AllMissingColumn(IngestError):
    def __init__(self, name: str):
        super().__init__(f"cannot impute {name}: no observed values in dataset")
        self.name = name


@dataclass
class WaterSample:
    """One station observation. Concentration fields are None when missing."""

    station_code: str
    location: str
    state: str
    temp: float | None
    dissolved_oxygen: float | None
    ph: float | None
    conductivity: float | None
    bod: float | None
    nitrate: float | None
    fecal_coliform: float | None
    total_coliform: float | None
    month: int
    year: int
    source_row: int | None = field(default=None, compare=False)

    def missing_wqi_inputs(self) -> list[str]:
        return [name for name in WQI_INPUTS if getattr(self, name) is None]


@dataclass
class Provenance:
    """Where a dataset came from and what happened to rows along the way."""

    source: str = "<memory>"
    dropped: list[tuple[int, str]] = field(default_factory=list)
    notes: list[tuple[int, str]] = field(default_factory=list)

    def drop_log(self) -> str:
        """Line-oriented drop log, one ``row <n>: <reason>`` line per drop."""
        return "\n".join(f"row {n}: {reason}" for n, reason in self.dropped)


@dataclass
class Dataset:
    samples: list[WaterSample]
    provenance: Provenance = field(default_factory=Provenance, compare=False)


def normalize_column(name: str) -> str | None:
    """Map a raw header cell to its canonical column name.

    Returns None for recognized-but-ignored columns (serial numbers) and for
    unknown columns.
    """
    bare = _NON_ALNUM_RE.sub("", _PAREN_RE.sub("", name).lower())
    if bare in _ALIASES:
        return _ALIASES[bare]
    # Header typography for these two is unstable across files; match loosely.
    if bare.startswith("nitrate"):
        return "nitrate"
    if bare.startswith("totalcoliform"):
        return "total_coliform"
    return None


def parse_month_year(token: str) -> tuple[int, int]:
    """Parse an ``M-YYYY`` or ``MM-YYYY`` token into (month, year)."""
    m = _MONTH_YEAR_RE.match(token.strip())
    if not m:
        raise BadDateToken(token)
    month, year = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12 or not 1900 <= year <= 2100:
        raise BadDateToken(token)
    return month, year


def coerce_numeric(cell: str) -> float | None:
    """Best-effort numeric coercion; never raises.

    Returns None for empty cells, the recognized missing tokens, and anything
    that does not parse to a finite number.
    """
    kind, value = _classify_cell(cell)
    return value if kind == "value" else None


def _classify_cell(cell: str) -> tuple[str, float | None]:
    """Classify a raw cell as ('value', x), ('missing', None) or ('junk', None)."""
    token = cell.strip()
    if not token or token.lower() in MISSING_TOKENS:
        return "missing", None
    try:
        value = float(token)
    except ValueError:
        return "junk", None
    if not math.isfinite(value):
        return "junk", None
    return "value", value


def _irregular_cell(row: int, name: str, cell: str, strict: bool, notes: list) -> float | None:
    """The value of a cell that is not a plain in-range numeral, or None for a
    missing, junk or out-of-range one; notes each coerced non-empty cell and,
    in strict mode, raises MalformedRow for junk and out-of-range values."""
    kind, value = _classify_cell(cell)
    token = cell.strip()
    if kind == "junk" and strict:
        raise MalformedRow(row, f"{name} cell {token!r} is not numeric")
    if kind != "value":
        if token:
            notes.append((row, f"{name} cell {token!r} coerced to missing"))
        return None
    lo, hi = _RANGES[name]
    if lo <= value <= hi:
        return value
    bad = f"ph {value} outside [0, 14]" if name == "ph" else f"{name} {value} is negative"
    if strict:
        raise MalformedRow(row, bad)
    notes.append((row, f"{bad}; coerced to missing"))
    return None


def _csv_records(text: str) -> list[list[str] | csv.Error]:
    """The non-empty records of a CSV text. A record the csv module cannot
    read (a bare carriage return, or a NUL before Python 3.11) stands as its
    csv.Error, and reading goes on with the next line."""
    reader = csv.reader(io.StringIO(text))
    records: list[list[str] | csv.Error] = []
    while True:
        try:
            records.append(next(reader))
        except StopIteration:
            return [r for r in records if r]
        except csv.Error as exc:
            records.append(exc)


def parse_dataset(csv_text: str, strictness: str = "lenient", source: str = "<memory>") -> Dataset:
    """Parse a station CSV (single header row, comma separated) into a Dataset.

    In lenient mode unparseable or out-of-range cells become missing values
    (logged as notes) and rows that are unusable (unreadable as CSV, wrong
    arity, no station code, bad month-year, or all six WQI inputs missing)
    are dropped and logged. In strict mode any such defect raises
    :class:`MalformedRow`.

    Samples are returned sorted by (station_code, year, month); the drop log
    accounts for every input row that did not become a sample.
    """
    if strictness not in ("strict", "lenient"):
        raise ValueError(f"strictness must be 'strict' or 'lenient', got {strictness!r}")
    strict = strictness == "strict"

    rows = _csv_records(csv_text)
    if not rows:
        raise EmptyInput()
    header, data_rows = rows[0], rows[1:]
    if isinstance(header, csv.Error):
        raise MalformedRow(0, f"header is not readable CSV: {header}")

    col_of: dict[str, int] = {}
    for idx, name in enumerate(header):
        canon = normalize_column(name)
        if canon is not None and canon not in col_of:
            col_of[canon] = idx
    for required in REQUIRED_COLUMNS:
        if required not in col_of:
            raise MissingColumn(required)

    prov = Provenance(source=source)
    samples: list[WaterSample] = []
    numeric_cols = [(name, col_of[name], *_RANGES[name]) for name in _NUMERIC_FIELDS]
    dates: dict[str, tuple[int, int]] = {}  # month-year token -> (month, year)

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

        values: dict[str, float | None] = {}
        for name, col, lo, hi in numeric_cols:
            cell = row[col]
            # Most cells are plain in-range numerals, which float() reads as
            # _classify_cell would; every other cell takes the slow path.
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not lo <= value <= hi:
                value = _irregular_cell(i, name, cell, strict, prov.notes)
            values[name] = value

        if all(values[name] is None for name in WQI_INPUTS):
            if strict:
                raise MalformedRow(i, "all six wqi inputs missing")
            prov.dropped.append((i, "all six wqi inputs missing"))
            continue

        samples.append(
            WaterSample(
                station_code=station,
                location=row[col_of["location"]].strip(),
                state=row[col_of["state"]].strip(),
                **values,
                month=month,
                year=year,
                source_row=i,
            )
        )

    samples.sort(key=lambda s: (s.station_code, s.year, s.month))
    return Dataset(samples=samples, provenance=prov)


def sample_columns(ds: Dataset, fields: tuple[str, ...]) -> np.ndarray:
    """The named numeric fields of every sample as a float64 array of shape
    (samples, fields), one column per field in the given order; NaN where a
    value is missing."""
    row = np.dtype((np.float64, (len(fields),)))  # None converts to NaN
    return np.fromiter(map(attrgetter(*fields), ds.samples), dtype=row, count=len(ds.samples))


def _cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def serialize_dataset(ds: Dataset) -> str:
    """Write a dataset back to CSV text that reparses to identical samples."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "station_code",
            "location",
            "state",
            "temp",
            "do",
            "ph",
            "conductivity",
            "bod",
            "nitrate",
            "fecal_coliform",
            "total_coliform",
            "month_year",
        ]
    )
    for s in ds.samples:
        writer.writerow(
            [
                s.station_code,
                s.location,
                s.state,
                _cell(s.temp),
                _cell(s.dissolved_oxygen),
                _cell(s.ph),
                _cell(s.conductivity),
                _cell(s.bod),
                _cell(s.nitrate),
                _cell(s.fecal_coliform),
                _cell(s.total_coliform),
                f"{s.month}-{s.year}",
            ]
        )
    return buf.getvalue()


def impute_missing(ds: Dataset, policy: str = "drop_row") -> Dataset:
    """Resolve missing WQI inputs, either by dropping rows or median fill.

    drop_row removes any sample missing one of the six WQI inputs. median
    replaces each missing WQI input with that column's median over observed
    values. Non-missing cells are never touched; the provenance log records
    every drop and fill.
    """
    if policy not in ("drop_row", "median"):
        raise ValueError(f"policy must be 'drop_row' or 'median', got {policy!r}")

    prov = Provenance(
        source=ds.provenance.source,
        dropped=list(ds.provenance.dropped),
        notes=list(ds.provenance.notes),
    )

    if policy == "drop_row":
        kept = []
        for pos, s in enumerate(ds.samples, start=1):
            missing = s.missing_wqi_inputs()
            if missing:
                ref = s.source_row if s.source_row is not None else pos
                prov.dropped.append((ref, f"missing {', '.join(missing)} (drop_row policy)"))
            else:
                kept.append(s)
        return Dataset(samples=kept, provenance=prov)

    medians: dict[str, float] = {}
    for name in WQI_INPUTS:
        observed = [getattr(s, name) for s in ds.samples if getattr(s, name) is not None]
        needed = any(getattr(s, name) is None for s in ds.samples)
        if needed and not observed:
            raise AllMissingColumn(name)
        if observed:
            medians[name] = float(statistics.median(observed))

    filled = []
    for pos, s in enumerate(ds.samples, start=1):
        missing = s.missing_wqi_inputs()
        if missing:
            ref = s.source_row if s.source_row is not None else pos
            patch = {name: medians[name] for name in missing}
            for name in missing:
                prov.notes.append((ref, f"{name} imputed with median {medians[name]!r}"))
            filled.append(replace(s, **patch))
        else:
            filled.append(s)
    return Dataset(samples=filled, provenance=prov)

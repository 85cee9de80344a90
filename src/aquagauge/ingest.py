"""Monitoring-station CSV ingestion.

Parses raw station CSVs into a columnar :class:`Dataset`: string, month and
year columns plus one float64 array of the numeric fields, NaN for a missing
value, which the column scorers in ``wqi``, ``rules`` and ``forecast`` read
directly. Header names are matched after normalization (lowercase,
parenthesized units and punctuation stripped), so ``B.O.D.``, ``bod`` and
``B.O. D.`` all map to the same column. Real station exports type several
numeric columns as free text ("n/a", "-", trailing-dot numerals), so the
default mode is lenient: bad cells become missing values and only rows that
are unusable outright are dropped, with every drop logged.
:class:`WaterSample` is the one-sample view of the same data.

:func:`csv_records` streams the records of a CSV text, and
:func:`parse_dataset` converts them a fixed-size chunk at a time, keeping only
what the dataset keeps, so the whole CSV is never held as cell lists.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import attrgetter

import numpy as np

from .errors import AquagaugeError, LengthMismatch

# The six fields consumed by the water-quality index.
WQI_INPUTS = (
    "ph",
    "dissolved_oxygen",
    "bod",
    "conductivity",
    "nitrate",
    "total_coliform",
)

# Cell tokens treated as an explicit missing value (case-insensitive).
MISSING_TOKENS = frozenset({"nan", "na", "n/a", "-"})

#: The numeric fields, in the column order of ``Dataset.values``.
NUMERIC_FIELDS = (
    "temp",
    "dissolved_oxygen",
    "ph",
    "conductivity",
    "bod",
    "nitrate",
    "fecal_coliform",
    "total_coliform",
)

#: Columns that must be present (by canonical name) in every input header.
REQUIRED_COLUMNS = ("station_code", "location", "state", *NUMERIC_FIELDS, "month_year")

# The text columns a Dataset keeps, stripped.
_TEXT_COLUMNS = ("station_code", "location", "state")

# Records parsed at a time: the parse holds one chunk's cell lists, never the
# whole CSV's.
_CHUNK_RECORDS = 2048

# Characters of CSV text that csv_records reads through one io.StringIO.
_BLOCK_CHARS = 1 << 16
_LINE_END_RE = re.compile(r"\r\n?|\n")

# Columns of the six WQI inputs in ``Dataset.values``, in WQI_INPUTS order.
_WQI_COLUMNS = [NUMERIC_FIELDS.index(name) for name in WQI_INPUTS]

# Concentration-style fields must be >= 0 when present; pH must sit in [0, 14].
_NONNEGATIVE_FIELDS = frozenset(NUMERIC_FIELDS) - {"temp", "ph"}

# Closed range of each numeric field; the finite ends also shut out NaN and
# the infinities.
_RANGES = {
    name: (0.0 if name in _NONNEGATIVE_FIELDS else -sys.float_info.max, sys.float_info.max)
    for name in NUMERIC_FIELDS
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


@dataclass(eq=False)
class Dataset:
    """Station observations as columns, one entry per sample.

    ``values`` holds the :data:`NUMERIC_FIELDS` as float64 columns, NaN where
    a value is missing. The string columns are object arrays and month, year
    and ``source_row`` (the sample's 1-based data row in its CSV) are int64.
    Treat a dataset as immutable: :attr:`samples` is built from the columns
    once, on first use.
    """

    station_code: np.ndarray
    location: np.ndarray
    state: np.ndarray
    month: np.ndarray
    year: np.ndarray
    source_row: np.ndarray
    values: np.ndarray
    provenance: Provenance = field(default_factory=Provenance)

    @classmethod
    def from_samples(cls, samples: list[WaterSample], provenance: Provenance | None = None) -> Dataset:
        """The samples as a dataset, in the given order; a sample without a
        source_row takes its 1-based position."""
        def column(name: str, dtype) -> np.ndarray:
            return np.array([getattr(s, name) for s in samples], dtype=dtype)

        row = np.dtype((np.float64, (len(NUMERIC_FIELDS),)))  # None converts to NaN
        return cls(column("station_code", object), column("location", object), column("state", object),
                   column("month", np.int64), column("year", np.int64),
                   np.array([pos if s.source_row is None else s.source_row
                             for pos, s in enumerate(samples, start=1)], dtype=np.int64),
                   np.fromiter(map(attrgetter(*NUMERIC_FIELDS), samples), dtype=row, count=len(samples)),
                   Provenance() if provenance is None else provenance)

    def __len__(self) -> int:
        return len(self.values)

    def columns(self, fields: tuple[str, ...]) -> np.ndarray:
        """The named numeric fields as a (samples, fields) float64 array, in
        the given order."""
        return self.values[:, [NUMERIC_FIELDS.index(name) for name in fields]]

    @cached_property
    def samples(self) -> list[WaterSample]:
        """The dataset as WaterSample records, None for a missing value."""
        return [
            WaterSample(code, location, state,
                        **{name: None if math.isnan(v) else v for name, v in zip(NUMERIC_FIELDS, row)},
                        month=month, year=year, source_row=ref)
            for code, location, state, row, month, year, ref in zip(
                self.station_code.tolist(), self.location.tolist(), self.state.tolist(),
                self.values.tolist(), self.month.tolist(), self.year.tolist(), self.source_row.tolist())
        ]


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


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def coerce_numeric(cell: str) -> float | None:
    """Best-effort numeric coercion; never raises.

    Returns None for empty cells, the recognized missing tokens, and anything
    that does not parse to a finite number. The cell is stripped first, as the
    parser strips it: str.strip() also removes characters that float() refuses.
    """
    value = _float_or_nan(cell.strip())
    return value if math.isfinite(value) else None


def _irregular_cell(name: str, cell: str) -> tuple[float | None, str | None, str | None]:
    """(value, note, defect) of a cell that is not a plain in-range numeral:
    its value, None for a missing, junk or out-of-range cell; the note that
    logs a coerced non-empty cell; and why strict mode rejects a junk or
    out-of-range cell. A note or defect that does not apply is None. A cell
    is missing when it is empty or one of MISSING_TOKENS, and junk when it is
    neither missing nor a finite number."""
    token = cell.strip()
    if not token or token.lower() in MISSING_TOKENS:
        return None, f"{name} cell {token!r} coerced to missing" if token else None, None
    value = coerce_numeric(token)
    if value is None:
        return None, f"{name} cell {token!r} coerced to missing", f"{name} cell {token!r} is not numeric"
    lo, hi = _RANGES[name]
    if lo <= value <= hi:
        return value, None, None
    bad = f"ph {value} outside [0, 14]" if name == "ph" else f"{name} {value} is negative"
    return None, f"{bad}; coerced to missing", bad


def parse_dataset(csv_text: str, strictness: str = "lenient", source: str = "<memory>") -> Dataset:
    """Parse a station CSV (single header row, comma separated) into a Dataset.

    In lenient mode unparseable or out-of-range cells become missing values
    (logged as notes) and rows that are unusable (unreadable as CSV, wrong
    arity, no station code, bad month-year, or all six WQI inputs missing)
    are dropped and logged. In strict mode any such defect raises
    :class:`MalformedRow` for the first defective row.

    Samples are returned sorted by (station_code, year, month), rows of equal
    key in input order; the drop log accounts for every input row that did
    not become a sample.
    """
    if strictness not in ("strict", "lenient"):
        raise ValueError(f"strictness must be 'strict' or 'lenient', got {strictness!r}")
    strict = strictness == "strict"

    records = csv_records(csv_text)
    header = next(records, None)
    if header is None:
        raise EmptyInput()
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
    dropped: dict[int, str] = {}  # data row -> why it was dropped; one reason per row
    dates: dict[str, int | str] = {}  # token -> year * 12 + month - 1, or why it is bad
    lo, hi = np.array([_RANGES[name] for name in NUMERIC_FIELDS]).T
    # What the dataset keeps of each chunk: the kept rows' source rows, month
    # indexes and values, a block per chunk after an empty one (so that a CSV
    # without data rows concatenates too), and their stripped text. Each text
    # column makes its copies through one dict, so a dataset holds none of the
    # parsed CSV's own cell strings, whose memory is then free for reuse, and
    # it stores a code, location or state repeated over many rows once.
    kept_rows: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    kept_months: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    kept_values: list[np.ndarray] = [np.empty((0, len(NUMERIC_FIELDS)))]
    text: dict[str, list[str]] = {name: [] for name in _TEXT_COLUMNS}
    copies: dict[str, dict[str, str]] = {name: {} for name in _TEXT_COLUMNS}
    first = 1  # data row of the chunk's first record
    while chunk := list(islice(records, _CHUNK_RECORDS)):
        rows: list[list[str]] = []
        row_ids: list[int] = []  # data row of each entry of `rows`
        for i, row in enumerate(chunk, start=first):
            if isinstance(row, csv.Error):
                dropped[i] = f"not readable CSV: {row}"
            elif len(row) != len(header):
                dropped[i] = f"expected {len(header)} cells, got {len(row)}"
            else:
                rows.append(row)
                row_ids.append(i)
        first += len(chunk)
        # The cells of each used column, as lists (zip(*rows) would allocate
        # one iterator per row).
        cells = {name: [row[col] for row in rows] for name, col in col_of.items()}

        tokens = cells["month_year"]
        for token in set(tokens).difference(dates):
            try:
                month, year = parse_month_year(token)
            except BadDateToken as exc:
                dates[token] = str(exc)
            else:
                dates[token] = year * 12 + month - 1
        usable = np.ones(len(rows), dtype=bool)
        for k, (station, token) in enumerate(zip(cells["station_code"], tokens)):
            date = dates[token] if station.strip() else "empty station code"
            if isinstance(date, str):
                usable[k] = False
                dropped[row_ids[k]] = date

        values = np.empty((len(rows), len(NUMERIC_FIELDS)))
        for f, name in enumerate(NUMERIC_FIELDS):
            values[:, f] = np.fromiter(map(_float_or_nan, cells[name]), dtype=np.float64, count=len(rows))
        # Most cells are plain in-range numerals, which float() reads as
        # coerce_numeric does. Every other cell of a usable row takes the slow
        # path, in (row, field) order, so notes come out in row order and a
        # row's first defective cell names it.
        irregular = ~((lo <= values) & (values <= hi)) & usable[:, None]
        for k, f in zip(*(axis.tolist() for axis in np.nonzero(irregular))):
            name = NUMERIC_FIELDS[f]
            value, note, defect = _irregular_cell(name, cells[name][k])
            values[k, f] = math.nan if value is None else value
            if note is not None:
                prov.notes.append((row_ids[k], note))
            if strict and defect is not None:
                dropped.setdefault(row_ids[k], defect)
        all_missing = usable & np.isnan(values[:, _WQI_COLUMNS]).all(axis=1)
        for k in np.flatnonzero(all_missing).tolist():
            dropped.setdefault(row_ids[k], "all six wqi inputs missing")

        kept = np.flatnonzero(usable & ~all_missing)
        month_idx = np.fromiter((dates[tokens[k]] for k in kept.tolist()), dtype=np.int64, count=len(kept))
        kept_rows.append(np.array(row_ids, dtype=np.int64)[kept])
        kept_months.append(month_idx)
        kept_values.append(values[kept])
        for name in _TEXT_COLUMNS:
            column, made = cells[name], copies[name]
            for k in kept.tolist():
                cell = column[k].strip()
                copy = made.get(cell)
                if copy is None:
                    copy = cell.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass")
                    made[copy] = copy
                text[name].append(copy)

    if strict and dropped:
        raise MalformedRow(*min(dropped.items()))  # the first defective row
    prov.dropped = sorted(dropped.items())

    source_row, month_idx, values = map(np.concatenate, (kept_rows, kept_months, kept_values))
    station, location, state = (np.array(text[name], dtype=object) for name in _TEXT_COLUMNS)
    # Rank station codes in Python's string order: numpy's fixed-width
    # strings would drop trailing NULs and so tie distinct codes.
    rank_of = {code: r for r, code in enumerate(sorted(copies["station_code"]))}
    rank = np.fromiter(map(rank_of.__getitem__, text["station_code"]), dtype=np.int64, count=len(station))
    order = np.lexsort((month_idx, rank))  # stable, so equal keys keep input order
    month_idx = month_idx[order]
    return Dataset(station[order], location[order], state[order], month_idx % 12 + 1, month_idx // 12,
                   source_row[order], values[order], prov)


# The csv module's writer quotes a cell holding the delimiter, the quote or a
# character of its line terminator, and the writer of Python 3.10 refuses NUL;
# csv_text hands it every cell that holds one of these.
_CSV_SPECIAL = (",", '"', "\r", "\n", "\0")


def _written_cell(cell: str) -> str:
    """One cell as the csv module's writer writes it in a row of its own. The
    row ends in CRLF, so that a lone CR is quoted on every Python, as the
    writer does by itself only from Python 3.13 on: unquoted, it would end
    a record for csv_records."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([cell])
    return buf.getvalue()[:-2]


def _needs_writer(text: str) -> bool:
    return any(char in text for char in _CSV_SPECIAL)


def _csv_column(column: list[str], alone: bool) -> list[str]:
    """The cells of one column as the csv module's writer writes them, alone
    when it is the table's only column. The writer leaves a cell holding none
    of _CSV_SPECIAL as it is, except that it writes the empty cell of a
    one-column table as '""'; each other distinct cell goes through it."""
    if not (_needs_writer("".join(column)) or alone and "" in column):
        return column
    written = {cell: _written_cell(cell) for cell in set(column) if _needs_writer(cell) or alone and not cell}
    return [written.get(cell, cell) for cell in column]


def csv_text(header: list[str], columns: list[list[str]]) -> str:
    """The header and columns as CSV text, in the one dialect of every CSV the
    package writes: the csv module's minimal quoting and LF line ends.
    Each column is a list of str cells, and all have one length."""
    if len(header) != len(columns):
        raise LengthMismatch(len(header), len(columns))
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise LengthMismatch(min(lengths), max(lengths))
    alone = len(columns) == 1
    table = [_csv_column([name, *column], alone) for name, column in zip(header, columns)]
    return "\n".join(map(",".join, zip(*table))) + "\n"


def _text_lines(text: str) -> Iterator[str]:
    """The lines of a text, line ends kept, as io.StringIO(text, newline="")
    gives them: a line ends at LF, CRLF or CR. A StringIO holds four bytes a
    character, so each block of about _BLOCK_CHARS characters, cut after a
    line end, goes through a StringIO of its own."""
    start = 0
    while start < len(text):
        end = _LINE_END_RE.search(text, start + _BLOCK_CHARS)
        stop = end.end() if end else len(text)
        yield from io.StringIO(text[start:stop], newline="")
        start = stop


def csv_records(text: str) -> Iterator[list[str] | csv.Error]:
    """The non-empty records of a CSV text, one at a time: the one reader of
    every CSV the package reads. A record ends at LF, CRLF or CR alike, and a
    line break inside a quoted cell is kept as written. A record the csv
    module cannot read (a cell over csv.field_size_limit(), or a NUL before
    Python 3.11) stands as its csv.Error, and reading goes on with the next
    line."""
    reader = csv.reader(_text_lines(text))
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield exc
        else:
            if record:
                yield record


def column_median(observed: np.ndarray) -> float:
    """The median of a non-empty, NaN-free float64 array.

    Bit for bit ``statistics.median``, except that two middle values whose sum
    overflows are halved before they are added, so the median of finite
    values stays finite.
    """
    mid = observed.size // 2
    picks = (mid,) if observed.size % 2 else (mid - 1, mid)
    part = np.partition(observed, picks)

    def ordered(i: int) -> float:
        """Entry i of the stable sort: where that is a zero, the stable sort
        keeps both signs of zero in input order after the negatives."""
        value = float(part[i])
        if value == 0.0:
            value = float(observed[observed == 0.0][i - np.count_nonzero(observed < 0.0)])
        return value

    if observed.size % 2:
        return ordered(mid)
    a, b = ordered(mid - 1), ordered(mid)
    mean = (a + b) / 2
    return a / 2 + b / 2 if math.isinf(mean) else mean


def impute_missing(ds: Dataset, policy: str = "drop_row") -> Dataset:
    """Resolve missing WQI inputs, either by dropping rows or median fill.

    drop_row removes any sample missing one of the six WQI inputs. median
    replaces each missing WQI input with that column's median over observed
    values. Non-missing cells are never touched; the provenance log records
    every drop and fill.
    """
    if policy not in ("drop_row", "median"):
        raise ValueError(f"policy must be 'drop_row' or 'median', got {policy!r}")

    prov = Provenance(ds.provenance.source, list(ds.provenance.dropped), list(ds.provenance.notes))
    inputs = ds.values[:, _WQI_COLUMNS]
    missing = np.isnan(inputs)
    cells = list(zip(*(axis.tolist() for axis in np.nonzero(missing))))  # (sample, input), row-major
    refs = ds.source_row.tolist()

    if policy == "drop_row":
        names: dict[int, list[str]] = {}
        for k, c in cells:
            names.setdefault(k, []).append(WQI_INPUTS[c])
        prov.dropped.extend((refs[k], f"missing {', '.join(names[k])} (drop_row policy)") for k in names)
        kept = np.flatnonzero(~missing.any(axis=1))
        return Dataset(ds.station_code[kept], ds.location[kept], ds.state[kept], ds.month[kept],
                       ds.year[kept], ds.source_row[kept], ds.values[kept], prov)

    medians = []
    for c, name in enumerate(WQI_INPUTS):
        observed = inputs[~missing[:, c], c]
        if not observed.size and missing[:, c].any():
            raise AllMissingColumn(name)
        medians.append(column_median(observed) if observed.size else math.nan)
    texts = [f"{name} imputed with median {median!r}" for name, median in zip(WQI_INPUTS, medians)]
    prov.notes.extend((refs[k], texts[c]) for k, c in cells)
    values = ds.values.copy()
    values[:, _WQI_COLUMNS] = np.where(missing, medians, inputs)
    return Dataset(ds.station_code, ds.location, ds.state, ds.month, ds.year, ds.source_row, values, prov)

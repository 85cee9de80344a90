import ast
import csv
import hashlib
import math
import re
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from aquagauge import ingest
from aquagauge.errors import LengthMismatch
from aquagauge.ingest import (
    MISSING_TOKENS,
    NUMERIC_FIELDS,
    AllMissingColumn,
    BadDateToken,
    EmptyInput,
    MalformedRow,
    MissingColumn,
    _RANGES,
    _irregular_cell,
    coerce_numeric,
    column_median,
    csv_records,
    csv_text,
    impute_missing,
    normalize_column,
    parse_dataset,
    parse_month_year,
)
from conftest import (
    FIXTURE_ROWS,
    STATION_HEADER,
    mk_dataset,
    mk_sample,
    rows_to_csv,
    serialize_dataset,
    synthetic_station_rows,
)


class TestParseDataset:
    def test_first_fixture_row(self, station_fixture_csv):
        ds = parse_dataset(station_fixture_csv)
        s = next(x for x in ds.samples if x.station_code == "1207" and x.dissolved_oxygen == 6.7)
        assert s.location == "Dhanmondi Lake Area, Dhaka"
        assert s.state == "Dhaka"
        assert s.temp == 30.6
        assert s.ph == 7.5
        assert s.conductivity == 203.0
        assert s.bod == 1.3
        assert s.nitrate == 0.1
        assert s.fecal_coliform == 11.0
        assert s.total_coliform == 27.0
        assert (s.month, s.year) == (8, 2019)

    def test_header_only(self):
        ds = parse_dataset(rows_to_csv(STATION_HEADER, []))
        assert ds.samples == []
        assert ds.provenance.dropped == []

    def test_lenient_junk_cell_becomes_missing(self):
        row = list(FIXTURE_ROWS[0])
        row[7] = "n/a"  # conductivity
        ds = parse_dataset(rows_to_csv(STATION_HEADER, [row]))
        assert len(ds.samples) == 1
        assert ds.samples[0].conductivity is None
        assert any("conductivity" in note for _, note in ds.provenance.notes)

    def test_strict_junk_cell_raises(self):
        row = list(FIXTURE_ROWS[0])
        row[7] = "not-a-number"
        with pytest.raises(MalformedRow):
            parse_dataset(rows_to_csv(STATION_HEADER, [row]), strictness="strict")

    def test_unknown_strictness_rejected(self, station_fixture_csv):
        with pytest.raises(ValueError, match="strictness must be 'strict' or 'lenient', got 'loose'"):
            parse_dataset(station_fixture_csv, strictness="loose")

    def test_unreadable_record_dropped(self):
        rows = [list(r) for r in FIXTURE_ROWS[:3]]
        rows[1][6] = "7" * (csv.field_size_limit() + 1)  # a cell over the csv module's limit
        text = rows_to_csv(STATION_HEADER, rows)
        ds = parse_dataset(text)
        assert len(ds.samples) == 2
        assert [n for n, _ in ds.provenance.dropped] == [2]
        assert ds.provenance.dropped[0][1].startswith("not readable CSV")
        with pytest.raises(MalformedRow) as err:
            parse_dataset(text, strictness="strict")
        assert err.value.index == 2

    def test_range_ends_skip_the_slow_path(self, monkeypatch):
        """A numeral at either closed end of its field's range is read by
        float() alone; only other cells go through _irregular_cell."""
        def slow_path(*args):
            raise AssertionError(args)

        ends = [[_RANGES[name][end] for name in NUMERIC_FIELDS] for end in (0, 1)]
        rows = [[*FIXTURE_ROWS[0][:4], *map(repr, values), "8-2019"] for values in ends]
        monkeypatch.setattr(ingest, "_irregular_cell", slow_path)
        assert parse_dataset(rows_to_csv(STATION_HEADER, rows)).values.tolist() == ends

    def test_separator_padded_cell_keeps_its_value(self):
        """float() refuses the separators U+001C..U+001F that str.strip()
        removes, so such a cell takes the slow path and keeps its value."""
        row = list(FIXTURE_ROWS[0])
        row[6] = "\x1f7.5\x1c"
        ds = parse_dataset(rows_to_csv(STATION_HEADER, [row]))
        assert ds.samples[0].ph == 7.5
        assert ds.provenance.notes == []

    def test_unreadable_header_is_row_0(self):
        header = [*STATION_HEADER[:-1], "7" * (csv.field_size_limit() + 1)]
        with pytest.raises(MalformedRow) as err:
            parse_dataset(rows_to_csv(header, FIXTURE_ROWS[:1]))
        assert err.value.index == 0
        assert err.value.reason.startswith("header is not readable CSV")

    def test_strict_bad_arity_names_row(self):
        text = rows_to_csv(STATION_HEADER, [FIXTURE_ROWS[0], FIXTURE_ROWS[1][:-1]])
        with pytest.raises(MalformedRow) as err:
            parse_dataset(text, strictness="strict")
        assert err.value.index == 2

    def test_missing_column(self):
        header = [c for c in STATION_HEADER if c != "pH"]
        rows = [[c for i, c in enumerate(r) if i != 6] for r in FIXTURE_ROWS]
        with pytest.raises(MissingColumn) as err:
            parse_dataset(rows_to_csv(header, rows))
        assert err.value.name == "ph"

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_dataset("")

    def test_all_six_missing_dropped_and_logged(self):
        row = list(FIXTURE_ROWS[0])
        for i in (5, 6, 7, 8, 9, 11):  # do, ph, ec, bod, na, tc
            row[i] = ""
        ds = parse_dataset(rows_to_csv(STATION_HEADER, [row, FIXTURE_ROWS[1]]))
        assert len(ds.samples) == 1
        assert ds.provenance.dropped == [(1, "all six wqi inputs missing")]

    def test_strict_all_six_missing_names_row(self):
        row = list(FIXTURE_ROWS[1])
        for i in (5, 6, 7, 8, 9, 11):  # do, ph, ec, bod, na, tc
            row[i] = ""
        with pytest.raises(MalformedRow) as err:
            parse_dataset(rows_to_csv(STATION_HEADER, [FIXTURE_ROWS[0], row]), strictness="strict")
        assert err.value.index == 2
        assert "all six wqi inputs missing" in str(err.value)

    def test_bad_month_year_dropped_in_lenient(self):
        row = list(FIXTURE_ROWS[0])
        row[12] = "13-2019"
        ds = parse_dataset(rows_to_csv(STATION_HEADER, [row]))
        assert ds.samples == []
        assert len(ds.provenance.dropped) == 1

    def test_out_of_range_ph_coerced_in_lenient(self):
        row = list(FIXTURE_ROWS[0])
        row[6] = "20.5"
        ds = parse_dataset(rows_to_csv(STATION_HEADER, [row]))
        assert ds.samples[0].ph is None
        assert any("ph" in note for _, note in ds.provenance.notes)

    def test_samples_sorted(self, station_fixture_csv):
        ds = parse_dataset(station_fixture_csv)
        key = [(s.station_code, s.year, s.month) for s in ds.samples]
        assert key == sorted(key)

    def test_row_accounting(self):
        rows = [list(r) for r in FIXTURE_ROWS]
        rows[1] = rows[1][:-2]  # bad arity -> dropped
        bad_date = list(FIXTURE_ROWS[2])
        bad_date[12] = "nope"
        rows.append(bad_date)
        ds = parse_dataset(rows_to_csv(STATION_HEADER, rows))
        assert len(rows) == len(ds.samples) + len(ds.provenance.dropped)

    def test_drop_log_format(self):
        text = rows_to_csv(STATION_HEADER, [FIXTURE_ROWS[0][:-1]])
        ds = parse_dataset(text)
        assert ds.provenance.drop_log().startswith("row 1: ")

    def test_one_string_per_distinct_text_cell(self, monkeypatch):
        """Each text column holds one str per distinct stripped value, across
        chunks too, so a code, location or state repeated over many rows is
        stored once: a few megabytes of each command's peak at 27k rows."""
        rows = synthetic_station_rows(n_stations=6, n_periods=5)
        for k, row in enumerate(rows):
            row[1:4] = [" " * (k % 2) + cell for cell in row[1:4]]  # every other cell stripped to a new str
        monkeypatch.setattr(ingest, "_CHUNK_RECORDS", 4)
        ds = parse_dataset(rows_to_csv(STATION_HEADER, rows))
        assert len(ds) == 30
        for column in (ds.station_code, ds.location, ds.state):
            assert len({id(v) for v in column}) == len(set(column)), column
        assert set(ds.state) == {"Region"}

    def test_parse_holds_no_more_than_a_chunk_of_records(self, monkeypatch):
        """The parse reads the CSV a chunk of records at a time, so its traced
        peak stays well under the whole CSV as cell lists: a parse of the
        whole list peaked at 1.45 times that list, the chunked one at 0.64.
        About half of that (0.34) is the one io.StringIO that csv_records
        reads the text through; read in 64k-character blocks, it was 0.42."""
        text = rows_to_csv(STATION_HEADER, synthetic_station_rows(n_stations=400, n_periods=9))
        monkeypatch.setattr(ingest, "_CHUNK_RECORDS", 256)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = list(csv_records(text))
            footprint = tracemalloc.get_traced_memory()[0] - before
            del records
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ds = parse_dataset(text)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(ds) == 3600
        assert peak < 0.75 * footprint, peak / footprint


class TestColumnNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("B.O.D.", "bod"),
            ("B.O. D.", "bod"),
            ("D.O. (mg/l)", "dissolved_oxygen"),
            ("D. O.", "dissolved_oxygen"),
            ("NITRATENAN N+ NITRITENANN (mg/l)", "nitrate"),
            ("Total COLIFORM (MPN/100ml) Mean", "total_coliform"),
            ("FECAL COLIFORM (MPN/100ml)", "fecal_coliform"),
            ("STATION CODE", "station_code"),
            ("Month and year", "month_year"),
            ("pH", "ph"),
            ("CONDUCTIVITY", "conductivity"),
            ("Serial No", None),
            ("mystery column", None),
        ],
    )
    def test_aliases(self, raw, expected):
        assert normalize_column(raw) == expected


class TestParseMonthYear:
    def test_single_digit_month(self):
        assert parse_month_year("8-2019") == (8, 2019)

    def test_two_digit_month(self):
        assert parse_month_year("12-2020") == (12, 2020)

    def test_year_bounds_are_inclusive(self):
        assert parse_month_year("1-1900") == (1, 1900)
        assert parse_month_year("12-2100") == (12, 2100)
        for token in ("12-1899", "1-2101"):
            with pytest.raises(BadDateToken):
                parse_month_year(token)

    @pytest.mark.parametrize("token", ["13-2019", "0-2019", "2019-08", "8/2019", "", "8-19", "8-2200"])
    def test_bad_tokens(self, token):
        with pytest.raises(BadDateToken):
            parse_month_year(token)


class TestCoerceNumeric:
    @pytest.mark.parametrize(
        "cell,expected",
        [
            ("203", 203.0),
            ("35.", 35.0),
            (" 1.25 ", 1.25),
            ("", None),
            ("  ", None),
            ("nan", None),
            ("NaN", None),
            ("NA", None),
            ("n/a", None),
            ("-", None),
            ("abc", None),
            ("inf", None),
            ("1e3", 1000.0),
        ],
    )
    def test_examples(self, cell, expected):
        assert coerce_numeric(cell) == expected

    @given(st.text(max_size=30))
    def test_never_raises_and_finite(self, cell):
        value = coerce_numeric(cell)
        assert value is None or value == value  # finite float or missing

    @given(st.one_of(st.text(alphabet="0123456789_.eE+-٣０ \t\nnaifty/", max_size=12),
                     st.sampled_from(["nan", "NaN", " N/A ", "-", "inf", "-Infinity", "1_000", "٣", "０.5",
                                      "1e400", "1e-320", "", "  ", "n/a", "na"]),
                     st.floats().map(repr), st.text(max_size=12)),
           st.sampled_from(NUMERIC_FIELDS))
    @example("0\x1f", "temp")  # str.strip() removes the unit separator, float() refuses it
    def test_cell_rule_matches_frozen_classify(self, cell, name):
        """coerce_numeric and _irregular_cell read a cell as the frozen rule does."""
        kind, value = frozen_classify_cell(cell)
        got = coerce_numeric(cell)
        assert (got is None, repr(got)) == (value is None, repr(value))
        got_value, note, defect = _irregular_cell(name, cell)
        if kind == "value":
            lo, hi = _RANGES[name]
            in_range = lo <= value <= hi
            assert got_value == (value if in_range else None)
            assert (defect is None) == in_range
        else:
            assert got_value is None
            assert (note is None) == (cell.strip() == "")
            assert (defect is None) == (kind == "missing")


def frozen_classify_cell(cell: str) -> tuple[str, float | None]:
    """The cell rule of the lenient parser as it stood before coerce_numeric
    read cells through _float_or_nan, frozen as the oracle: ('value', x),
    ('missing', None) or ('junk', None)."""
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


_sample_strategy = st.builds(
    mk_sample,
    station=st.text(alphabet="ABC0123456789", min_size=1, max_size=6),
    location=st.text(alphabet="abc ,\"'", max_size=12).map(str.strip),
    month=st.integers(1, 12),
    year=st.integers(1990, 2050),
    ph=st.one_of(st.none(), st.floats(0.0, 14.0)),
    do=st.floats(0.0, 50.0),
    temp=st.one_of(st.none(), st.floats(-30.0, 60.0)),
)


class TestRoundTrip:
    def test_parse_serialize_parse(self, station_fixture_csv):
        first = parse_dataset(station_fixture_csv)
        second = parse_dataset(serialize_dataset(first))
        assert second.samples == first.samples

    @given(st.lists(_sample_strategy, max_size=8))
    def test_round_trip_random_datasets(self, samples):
        ds = mk_dataset(samples)
        reparsed = parse_dataset(serialize_dataset(ds))
        assert reparsed.samples == ds.samples
        assert reparsed.provenance.dropped == []

    # computed with the row-at-a-time writer that the column writer replaced
    @pytest.mark.parametrize("fixture,sha256", [
        ("station_fixture_csv", "efecd07679e3c3510628d1c050f20cd6ebd2992459f28a1c020714589029c715"),
        ("synthetic_station_csv", "4fe235a4b6c55af179543c1c5269c49c6e2612eb30868af36a9e516c70ecbd14"),
    ])
    def test_golden_serialized_text(self, request, fixture, sha256):
        text = serialize_dataset(parse_dataset(request.getfixturevalue(fixture)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256

    def test_round_trip_preserves_missing(self):
        row = list(FIXTURE_ROWS[0])
        row[4] = ""  # temp missing
        row[7] = "n/a"  # conductivity missing
        first = parse_dataset(rows_to_csv(STATION_HEADER, [row]))
        second = parse_dataset(serialize_dataset(first))
        assert second.samples == first.samples
        assert second.samples[0].temp is None


class TestImpute:
    def test_median_example(self):
        ds = mk_dataset(
            [
                mk_sample(station="A", month=1, ph=7.0),
                mk_sample(station="B", month=1, ph=None),
                mk_sample(station="C", month=1, ph=8.0),
            ]
        )
        out = impute_missing(ds, "median")
        assert [s.ph for s in out.samples] == [7.0, 7.5, 8.0]

    def test_drop_row(self):
        ds = mk_dataset([mk_sample(station="A", bod=None), mk_sample(station="B")])
        out = impute_missing(ds, "drop_row")
        assert [s.station_code for s in out.samples] == ["B"]
        assert len(out.provenance.dropped) == 1

    def test_identity_when_complete(self):
        ds = mk_dataset([mk_sample(station="A"), mk_sample(station="B")])
        assert impute_missing(ds, "drop_row").samples == ds.samples
        assert impute_missing(ds, "median").samples == ds.samples

    def test_median_preserves_observed_cells(self):
        ds = mk_dataset(
            [
                mk_sample(station="A", ph=7.123456789012345, bod=None),
                mk_sample(station="B", ph=8.0, bod=2.0),
            ]
        )
        out = impute_missing(ds, "median")
        assert out.samples[0].ph == 7.123456789012345  # bit-identical
        assert out.samples[0].bod == 2.0

    def test_all_missing_column(self):
        ds = mk_dataset([mk_sample(station="A", na=None), mk_sample(station="B", na=None)])
        with pytest.raises(AllMissingColumn):
            impute_missing(ds, "median")

    def test_median_of_huge_values_stays_finite(self):
        ds = mk_dataset([mk_sample(station="A", ec=1e308), mk_sample(station="B", ec=1.7e308),
                         mk_sample(station="C", ec=None)])
        out = impute_missing(ds, "median")
        assert out.samples[2].conductivity == 1e308 / 2 + 1.7e308 / 2
        assert out.provenance.notes == [(3, f"conductivity imputed with median {1e308 / 2 + 1.7e308 / 2!r}")]

    def test_unknown_policy_rejected(self):
        ds = mk_dataset([mk_sample(station="A", ph=None), mk_sample(station="B", ph=7.0)])
        with pytest.raises(ValueError, match="policy must be 'drop_row' or 'median', got 'mean'"):
            impute_missing(ds, "mean")

    def test_original_untouched(self):
        ds = mk_dataset([mk_sample(station="A", ph=None), mk_sample(station="B", ph=7.0)])
        impute_missing(ds, "drop_row")
        assert ds.samples[0].ph is None or ds.samples[1].ph is None  # still two samples
        assert len(ds.samples) == 2


_FUZZ_ROWS = [list(r) for r in FIXTURE_ROWS] + synthetic_station_rows(n_stations=2, n_periods=3)
_CELL_NOTE = re.compile(r"^\w+ cell (.*) coerced to missing$")


def _mutations(cell):
    return st.one_of(
        st.sampled_from(["", "n/a", "NA", "-", "nan", "inf", "-inf", "1e999", "1_0", "15", "-0.5",
                         "junk", "7..5", "13-2019", "0x1p3"]),
        st.sampled_from([f" {cell} ", f"-{cell}", f"{cell}.", f"{cell}e2", f"\t{cell}"]),
        st.text(max_size=6),
    )


def _blocks_strict(note: tuple[int, str]) -> bool:
    """A junk or out-of-range note; a missing-value token is allowed in strict mode."""
    m = _CELL_NOTE.match(note[1])
    return m is None or ast.literal_eval(m.group(1)).lower() not in MISSING_TOKENS


class TestStationCsvFuzz:
    @given(st.integers(0, len(_FUZZ_ROWS) - 1), st.integers(0, len(STATION_HEADER) - 1), st.data())
    def test_one_mutated_cell(self, r, c, data):
        rows = [list(row) for row in _FUZZ_ROWS]
        rows[r][c] = data.draw(_mutations(rows[r][c]))
        text = rows_to_csv(STATION_HEADER, rows)
        lenient = parse_dataset(text)  # the header is valid, so nothing may raise
        assert len(lenient.samples) + len(lenient.provenance.dropped) == len(rows)
        for smp in lenient.samples:
            for name in ("temp", "dissolved_oxygen", "ph", "conductivity", "bod", "nitrate",
                         "fecal_coliform", "total_coliform"):
                value = getattr(smp, name)
                assert value is None or math.isfinite(value)
                if value is not None and name == "ph":
                    assert 0.0 <= value <= 14.0
                elif value is not None and name != "temp":
                    assert value >= 0.0
        if lenient.provenance.dropped or any(map(_blocks_strict, lenient.provenance.notes)):
            with pytest.raises(MalformedRow):
                parse_dataset(text, strictness="strict")
        else:
            strict = parse_dataset(text, strictness="strict")
            assert strict.samples == lenient.samples


class TestColumnMedian:
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=30))
    @example([5e-324, 5e-324])  # halving first would round each half to 0
    # a zero in the middle: the stable sort's zero, not the one np.partition leaves there
    @example([0.0, -1.0, 2.5, -0.0, -3.0])
    @example([-0.0, 0.0, -1.0, -1.0, 2.5])
    @example([-0.0, 0.0, -0.0, -1.0, 1.0, 0.5])
    def test_bits_of_statistics_median(self, values):
        assert column_median(np.array(values)).hex() == float(statistics.median(values)).hex()

    def test_middle_pair_sum_overflows(self):
        big = [-1.7e308, 1e308, 1.7e308, 1.7e308]
        assert column_median(np.array(big)) == 1e308 / 2 + 1.7e308 / 2
        assert column_median(np.array([-1.7e308, -1.7e308])) == -1.7e308


# Every character the csv module may quote or refuse, line boundaries it
# does not quote, a lone surrogate and plain text.
_CSV_CELL = st.lists(st.sampled_from([",", '"', "\r", "\n", "\r\n", "\0", "\u2028", "\ud800", " ", "õ", "7", ""]),
                     max_size=3).map("".join)


@st.composite
def _tables(draw) -> tuple[list[str], list[list[str]]]:
    width, height = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    header = draw(st.lists(_CSV_CELL, min_size=width, max_size=width))
    return header, [draw(st.lists(_CSV_CELL, min_size=height, max_size=height)) for _ in range(width)]


class TestCsvText:
    @given(_tables())
    @example((["a"], [["", "x"]]))  # a one-cell row holding the empty string
    @example((["a", "b"], [["", "1,5"], ["", ""]]))
    def test_matches_the_row_writer(self, table):
        """The reference is conftest's writer, fed one row at a time."""
        header, columns = table
        try:
            expected = rows_to_csv(header, list(zip(*columns)))
        except Exception as exc:
            with pytest.raises(type(exc)):
                csv_text(*table)
        else:
            assert csv_text(*table) == expected

    @given(_tables())
    @example((["\r"], [[]]))  # a lone CR, which the writer before Python 3.13 leaves unquoted
    @example((["a", "b"], [["x\ry", ""], ["\r\n", "\n"]]))
    def test_reads_back_as_written(self, table):
        header, columns = table
        try:
            text = csv_text(header, columns)
        except csv.Error:  # a NUL, which the writer of Python 3.10 refuses
            return
        assert list(csv_records(text)) == [header, *map(list, zip(*columns))]

    @pytest.mark.parametrize("header,columns", [
        (["a", "b"], [["1", "2"], ["3"]]),
        (["a", "b"], [["1"], ["2", "3"]]),
        (["a", "b"], [["1"]]),
    ])
    def test_unequal_columns_raise(self, header, columns):
        with pytest.raises(LengthMismatch):
            csv_text(header, columns)

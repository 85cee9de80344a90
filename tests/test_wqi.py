import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aquagauge.errors import NonFinite
from aquagauge.wqi import (
    _BANDS,
    _GAP_BANDS,
    LEGACY_NCO,
    NORMATIVE,
    SUB_INDEX_KINDS,
    SUB_INDEX_SCORES,
    MissingInput,
    _weigh,
    score_columns,
)
from conftest import mk_sample, wqi_inputs
from scoring_reference import (
    loop_reachable_wqi_values,
    loop_score_sample,
    loop_sub_index,
    loop_weighted_scores,
    outcome,
)

APPROX = 0.005  # printed tables carry two decimals

_REACHABLE = loop_reachable_wqi_values()


def sub_index(kind, value, mode=NORMATIVE):
    """The score of one value: its sub-index column of a one-row score_columns
    call whose other five inputs are 0."""
    j = SUB_INDEX_KINDS.index(kind)
    row = np.zeros((1, len(SUB_INDEX_KINDS)))
    row[0, j] = value
    return int(score_columns(row, mode).sub[0, j])


def weighted_scores(sub):
    """Six sub-index scores weighted as score_columns weighs its rows."""
    return tuple(_weigh(np.array([sub]))[0][0].tolist())


def score(sample, mode=NORMATIVE):
    """score_columns of one sample's row."""
    return score_columns(wqi_inputs(sample), mode)


# (label, mode, do, ph, ec, bod, na, tc, expected wph..wco + wqi)
GOLDEN_ROWS = [
    ("mirpur", LEGACY_NCO, 6.3, 6.9, 179.0, 1.7, 0.1, 5330.0,
     (13.2, 28.10, 23.40, 0.54, 2.8, 11.24), 79.28),
    ("dighala", LEGACY_NCO, 5.8, 6.9, 64.0, 3.8, 0.5, 84443.0,
     (13.2, 22.48, 18.72, 0.90, 2.8, 11.24), 69.34),
    ("tala", LEGACY_NCO, 6.1, 6.7, 308.0, 1.4, 0.3, 5672.0,
     (9.9, 28.10, 23.40, 0.00, 2.8, 11.24), 75.44),
    ("jessore", NORMATIVE, 4.6, 3.0, 350.0, 6.2, 2.2, 49.0,
     (0.0, 16.86, 14.04, 0.00, 2.8, 22.48), 56.18),
    ("magura", NORMATIVE, 10.0, 7.1, 150.0, 1.0, 4.0, 350.0,
     (16.5, 28.10, 23.40, 0.72, 2.8, 16.86), 88.38),
    ("foridpur", NORMATIVE, 9.0, 7.3, 158.0, 1.8, 7.2, 280.0,
     (16.5, 28.10, 23.40, 0.54, 2.8, 16.86), 88.20),
]


class TestSubIndex:
    @pytest.mark.parametrize(
        "kind,value,expected",
        [
            ("ph", 7.5, 100),
            ("ph", 6.9, 80),
            ("ph", 6.7, 60),
            ("ph", 6.5, 40),
            ("ph", 3.0, 0),
            ("ph", 9.5, 0),
            ("do", 6.0, 100),
            ("do", 5.8, 80),
            ("do", 4.6, 60),
            ("do", 3.5, 40),
            ("do", 1.0, 0),
            ("co", 49.0, 80),
            ("co", 3.0, 100),
            ("co", 350.0, 60),
            ("co", 900.0, 40),
            ("ec", 150.0, 80),
            ("ec", 75.0, 100),
            ("ec", 179.0, 60),
            ("ec", 308.0, 0),
            ("bod", 1.7, 100),
            ("bod", 3.0, 100),
            ("bod", 3.8, 80),
            ("bod", 6.2, 60),
            ("bod", 100.0, 40),
            ("bod", 200.0, 0),
            ("na", 0.1, 100),
            ("na", 30.0, 80),
            ("na", 70.0, 60),
            ("na", 150.0, 40),
            ("na", 500.0, 0),
        ],
    )
    def test_bands(self, kind, value, expected):
        assert sub_index(kind, value) == expected

    def test_legacy_coliform_quirk(self):
        assert sub_index("co", 5330.0, NORMATIVE) == 0
        assert sub_index("co", 5330.0, LEGACY_NCO) == 40

    def test_gap_fill_takes_larger_neighbor(self):
        assert sub_index("do", 4.05) == 60
        assert sub_index("do", 5.05) == 80
        assert sub_index("ph", 6.95) == 100

    @given(st.floats(0.0, 500.0), st.floats(0.0, 500.0))
    def test_bod_non_increasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert sub_index("bod", lo) >= sub_index("bod", hi)

    @given(st.floats(0.0, 5000.0), st.floats(0.0, 5000.0))
    def test_na_non_increasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert sub_index("na", lo) >= sub_index("na", hi)

    @given(st.floats(0.0, 5000.0), st.floats(0.0, 5000.0))
    def test_ec_non_increasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert sub_index("ec", lo) >= sub_index("ec", hi)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    def test_do_non_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert sub_index("do", lo) <= sub_index("do", hi)

    @given(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
    def test_co_normative_non_increasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert sub_index("co", lo, NORMATIVE) >= sub_index("co", hi, NORMATIVE)


class TestWeightedScores:
    def test_foridpur_combination(self):
        w = weighted_scores((100, 100, 100, 60, 100, 60))
        assert w == pytest.approx((16.5, 28.10, 23.40, 0.54, 2.8, 16.86), abs=APPROX)

    def test_all_zero(self):
        w = weighted_scores((0, 0, 0, 0, 0, 0))
        assert w == (0.0,) * 6

    def test_all_hundred_sums_to_top(self):
        w = weighted_scores((100, 100, 100, 100, 100, 100))
        assert w == pytest.approx((16.5, 28.1, 23.4, 0.9, 2.8, 28.1), abs=APPROX)
        assert sum(w) == pytest.approx(99.8, abs=APPROX)


class TestComputeWqi:
    """Whole samples scored as one-row score_columns calls. The class keeps
    the name of the one-sample scorer these tests were written against."""

    @pytest.mark.parametrize("label,mode,do,ph,ec,bod,na,tc,weights,expected_wqi", GOLDEN_ROWS)
    def test_golden_rows(self, label, mode, do, ph, ec, bod, na, tc, weights, expected_wqi):
        cols = score(mk_sample(do=do, ph=ph, ec=ec, bod=bod, na=na, tc=tc), mode)
        assert cols.weighted[0].tolist() == pytest.approx(weights, abs=APPROX)
        assert cols.wqi[0] == pytest.approx(expected_wqi, abs=APPROX)

    def test_everything_outside_bands(self):
        cols = score(mk_sample(ph=2.0, do=1.0, bod=500.0, ec=400.0, na=900.0, tc=2000.0))
        assert cols.wqi[0] == 0.0
        assert cols.sub[0].tolist() == [0] * 6

    def test_missing_input(self):
        with pytest.raises(MissingInput) as err:
            score(mk_sample(bod=None))
        assert err.value.fields == ["bod"]

    def test_total_coliform_feeds_nco_not_fecal(self):
        cols = score(mk_sample(tc=30.0, fc=900000.0))
        assert cols.sub[0, SUB_INDEX_KINDS.index("co")] == 80

    def test_temp_never_used(self):
        cols = score_columns(wqi_inputs(mk_sample(temp=5.0), mk_sample(temp=35.0)))
        assert cols.wqi[0] == cols.wqi[1]


def _valid_sample_strategy():
    return st.builds(
        mk_sample,
        ph=st.floats(0.0, 14.0),
        do=st.floats(0.0, 50.0),
        bod=st.floats(0.0, 500.0),
        ec=st.floats(0.0, 5000.0),
        na=st.floats(0.0, 5000.0),
        tc=st.floats(0.0, 1e6),
    )


class TestProperties:
    @given(_valid_sample_strategy(), st.sampled_from([NORMATIVE, LEGACY_NCO]))
    def test_range(self, sample, mode):
        wqi = score(sample, mode).wqi[0]
        assert 0.0 <= wqi <= 99.8 + 1e-12

    @given(_valid_sample_strategy(), st.sampled_from([NORMATIVE, LEGACY_NCO]))
    def test_quantized_to_reachable_set(self, sample, mode):
        cols = score(sample, mode)
        assert cols.wqi[0] in _REACHABLE
        assert all(v in (0, 40, 60, 80, 100) for v in cols.sub[0].tolist())

    @given(_valid_sample_strategy())
    def test_mode_only_touches_coliform_fields(self, sample):
        normative = score(sample, NORMATIVE)
        legacy = score(sample, LEGACY_NCO)
        assert normative.sub[0, :5].tolist() == legacy.sub[0, :5].tolist()
        assert normative.weighted[0, :5].tolist() == legacy.weighted[0, :5].tolist()
        if normative.sub[0, 5] == legacy.sub[0, 5]:
            assert normative.wqi[0] == legacy.wqi[0]
        else:
            assert sample.total_coliform > 1000.0


# Every band and gap edge, a hair either side of it, and coliform above 1000.
_EDGES = sorted(
    {x for bands in (*_BANDS.values(), *_GAP_BANDS.values()) for lo, hi, _ in bands for x in (lo, hi)}
    - {math.inf}
)
_EDGE_VALUES = st.sampled_from(_EDGES).flatmap(
    lambda x: st.sampled_from([x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)])
)
_INPUT_VALUE = st.one_of(
    _EDGE_VALUES,
    st.floats(-1.0, 15.0),  # pH range and the DO/pH gaps (4.0-4.1, 5.0-5.1, 6.9-7.0)
    st.floats(0.0, 400.0),
    st.floats(900.0, 1e6),  # total coliform above 1000
)


def _as_sample(row):
    ph, do, bod, ec, na, tc = (None if math.isnan(v) else float(v) for v in row)
    return mk_sample(ph=ph, do=do, bod=bod, ec=ec, na=na, tc=tc)


class TestScoreColumns:
    """Against the frozen scalar scorer, ``loop_score_sample``, which test
    names call compute_wqi after the package function it was frozen from."""

    @given(st.lists(st.tuples(*[_INPUT_VALUE] * 6), max_size=30), st.sampled_from([NORMATIVE, LEGACY_NCO]))
    def test_equals_compute_wqi_bit_for_bit(self, rows, mode):
        cols = score_columns(np.array(rows, dtype=np.float64).reshape(len(rows), 6), mode)
        assert cols.sub.dtype == np.int64
        for i, row in enumerate(rows):
            rec = loop_score_sample(_as_sample(row), mode)
            assert tuple(cols.sub[i].tolist()) == rec.sub
            assert tuple(cols.weighted[i].tolist()) == rec.weighted
            assert cols.wqi[i].tobytes() == np.float64(rec.wqi).tobytes()

    @given(
        st.lists(st.tuples(*[_INPUT_VALUE] * 6), min_size=1, max_size=8),
        st.data(),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_rejects_non_finite_as_compute_wqi_does(self, rows, data, bad):
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, 5))
        inputs = np.array(rows, dtype=np.float64)
        inputs[i, j] = bad
        with pytest.raises((MissingInput, NonFinite)) as want:
            for row in inputs:
                loop_score_sample(_as_sample(row))
        with pytest.raises(type(want.value)) as got:
            score_columns(inputs)
        assert str(got.value) == str(want.value)

    def test_missing_names_fields(self):
        inputs = np.array([[7.0, 6.0, 1.0, 50.0, 1.0, 3.0], [7.0, np.nan, 1.0, 50.0, 1.0, np.nan]])
        with pytest.raises(MissingInput) as err:
            score_columns(inputs)
        assert err.value.fields == ["dissolved_oxygen", "total_coliform"]

    def test_bad_mode_and_shape(self):
        with pytest.raises(ValueError):
            score_columns(np.zeros((1, 6)), "bogus")
        with pytest.raises(ValueError):
            score_columns(np.zeros((2, 5)))

    def test_empty(self):
        cols = score_columns(np.empty((0, 6)))
        assert cols.sub.shape == (0, 6) and cols.weighted.shape == (0, 6) and cols.wqi.shape == (0,)


_MODE = st.sampled_from([NORMATIVE, LEGACY_NCO, "bogus"])


class TestOneRowCallsMatchReference:
    """One-row calls of the column code against the frozen scalar
    implementations: same result, or same exception and message."""

    # not NaN: score_columns reads NaN as a missing value
    @given(st.sampled_from(SUB_INDEX_KINDS), st.one_of(_INPUT_VALUE, st.sampled_from([math.inf, -math.inf])), _MODE)
    def test_sub_index(self, kind, value, mode):
        assert outcome(sub_index, kind, value, mode) == outcome(loop_sub_index, kind, value, mode)

    @given(st.tuples(*[st.sampled_from(SUB_INDEX_SCORES)] * 6))
    def test_weighted_scores(self, scores):
        assert outcome(weighted_scores, scores) == outcome(loop_weighted_scores, scores)

    def test_reachable_wqi_values(self):
        combos = np.array(list(itertools.product(SUB_INDEX_SCORES, repeat=len(SUB_INDEX_KINDS))))
        assert frozenset(_weigh(combos)[1].tolist()) == _REACHABLE

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from aquagauge.errors import NonFinite
from aquagauge.wqi import (
    _BANDS,
    _GAP_BANDS,
    LEGACY_NCO,
    NORMATIVE,
    SUB_INDEX_KINDS,
    SUB_INDEX_SCORES,
    MissingInput,
    SubIndices,
    WeightedScores,
    _weigh,
    compute_wqi,
    score_columns,
)
from conftest import mk_sample
from scoring_reference import (
    loop_compute_wqi,
    loop_reachable_wqi_values,
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
    """One SubIndices weighted as score_columns weighs its rows."""
    return WeightedScores(*_weigh(np.array([sub.as_tuple()]))[0][0].tolist())


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

    def test_non_finite(self):
        # a NaN field of a sample is non-finite, not missing
        with pytest.raises(NonFinite):
            compute_wqi(mk_sample(ph=math.nan))
        with pytest.raises(NonFinite):
            compute_wqi(mk_sample(do=math.inf))

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
        w = weighted_scores(SubIndices(100, 100, 100, 60, 100, 60))
        assert w.as_tuple() == pytest.approx((16.5, 28.10, 23.40, 0.54, 2.8, 16.86), abs=APPROX)

    def test_all_zero(self):
        w = weighted_scores(SubIndices(0, 0, 0, 0, 0, 0))
        assert w.as_tuple() == (0.0,) * 6

    def test_all_hundred_sums_to_top(self):
        w = weighted_scores(SubIndices(100, 100, 100, 100, 100, 100))
        assert w.as_tuple() == pytest.approx((16.5, 28.1, 23.4, 0.9, 2.8, 28.1), abs=APPROX)
        assert sum(w.as_tuple()) == pytest.approx(99.8, abs=APPROX)


class TestComputeWqi:
    @pytest.mark.parametrize("label,mode,do,ph,ec,bod,na,tc,weights,expected_wqi", GOLDEN_ROWS)
    def test_golden_rows(self, label, mode, do, ph, ec, bod, na, tc, weights, expected_wqi):
        rec = compute_wqi(mk_sample(do=do, ph=ph, ec=ec, bod=bod, na=na, tc=tc), mode)
        assert rec.weighted.as_tuple() == pytest.approx(weights, abs=APPROX)
        assert rec.wqi == pytest.approx(expected_wqi, abs=APPROX)

    def test_everything_outside_bands(self):
        rec = compute_wqi(mk_sample(ph=2.0, do=1.0, bod=500.0, ec=400.0, na=900.0, tc=2000.0))
        assert rec.wqi == 0.0
        assert rec.sub.as_tuple() == (0,) * 6

    def test_missing_input(self):
        with pytest.raises(MissingInput) as err:
            compute_wqi(mk_sample(bod=None))
        assert err.value.fields == ["bod"]

    def test_total_coliform_feeds_nco_not_fecal(self):
        rec = compute_wqi(mk_sample(tc=30.0, fc=900000.0))
        assert rec.sub.nco == 80

    def test_temp_never_used(self):
        a = compute_wqi(mk_sample(temp=5.0))
        b = compute_wqi(mk_sample(temp=35.0))
        assert a.wqi == b.wqi


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
        rec = compute_wqi(sample, mode)
        assert 0.0 <= rec.wqi <= 99.8 + 1e-12

    @given(_valid_sample_strategy(), st.sampled_from([NORMATIVE, LEGACY_NCO]))
    def test_quantized_to_reachable_set(self, sample, mode):
        rec = compute_wqi(sample, mode)
        assert rec.wqi in _REACHABLE
        assert all(v in (0, 40, 60, 80, 100) for v in rec.sub.as_tuple())

    @given(_valid_sample_strategy())
    def test_mode_only_touches_coliform_fields(self, sample):
        normative = compute_wqi(sample, NORMATIVE)
        legacy = compute_wqi(sample, LEGACY_NCO)
        assert normative.sub.as_tuple()[:5] == legacy.sub.as_tuple()[:5]
        assert normative.weighted.as_tuple()[:5] == legacy.weighted.as_tuple()[:5]
        if normative.sub.nco == legacy.sub.nco:
            assert normative.wqi == legacy.wqi
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
    """Against the frozen scalar compute_wqi, ``loop_compute_wqi``."""

    @given(st.lists(st.tuples(*[_INPUT_VALUE] * 6), max_size=30), st.sampled_from([NORMATIVE, LEGACY_NCO]))
    def test_equals_compute_wqi_bit_for_bit(self, rows, mode):
        cols = score_columns(np.array(rows, dtype=np.float64).reshape(len(rows), 6), mode)
        assert cols.sub.dtype == np.int64
        for i, row in enumerate(rows):
            rec = loop_compute_wqi(_as_sample(row), mode)
            assert tuple(cols.sub[i].tolist()) == rec.sub.as_tuple()
            assert tuple(cols.weighted[i].tolist()) == rec.weighted.as_tuple()
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
                loop_compute_wqi(_as_sample(row))
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
_ANY_VALUE = st.one_of(_INPUT_VALUE, st.sampled_from([math.nan, math.inf, -math.inf]))


class TestOneRowCallsMatchReference:
    """One-row calls of the column code against the frozen scalar
    implementations: same result, or same exception and message."""

    # not NaN: score_columns reads NaN as a missing value
    @given(st.sampled_from(SUB_INDEX_KINDS), st.one_of(_INPUT_VALUE, st.sampled_from([math.inf, -math.inf])), _MODE)
    def test_sub_index(self, kind, value, mode):
        assert outcome(sub_index, kind, value, mode) == outcome(loop_sub_index, kind, value, mode)

    @given(st.tuples(*[st.sampled_from(SUB_INDEX_SCORES)] * 6))
    def test_weighted_scores(self, scores):
        sub = SubIndices(*scores)
        assert outcome(weighted_scores, sub) == outcome(loop_weighted_scores, sub)

    # NaN and the infinities go into the sample as they are, not through
    # _as_sample: a float NaN is a non-finite value, not a missing one.
    @given(st.tuples(*[st.one_of(st.none(), _ANY_VALUE)] * 6), _MODE)
    @example((7.0, math.nan, 1.0, 50.0, 1.0, 3.0), NORMATIVE)
    @example((7.0, math.nan, 1.0, 50.0, 1.0, 3.0), "bogus")
    @example((7.0, 6.0, 1.0, 50.0, 1.0, -math.inf), LEGACY_NCO)
    @example((math.inf, 6.0, None, 50.0, 1.0, 3.0), NORMATIVE)
    def test_compute_wqi(self, row, mode):
        ph, do, bod, ec, na, tc = row
        sample = mk_sample(ph=ph, do=do, bod=bod, ec=ec, na=na, tc=tc)
        assert outcome(compute_wqi, sample, mode) == outcome(loop_compute_wqi, sample, mode)

    def test_reachable_wqi_values(self):
        combos = np.array(list(itertools.product(SUB_INDEX_SCORES, repeat=len(SUB_INDEX_KINDS))))
        assert frozenset(_weigh(combos)[1].tolist()) == _REACHABLE

import itertools
import re
import statistics

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from aquagauge.errors import LengthMismatch
from aquagauge.forecast import (
    FEATURE_NAMES,
    KEY_DTYPE,
    DegenerateActuals,
    Empty,
    FeatureMismatch,
    UnsortedSamples,
    ZeroActual,
    build_feature_rows,
    build_supervised,
    evaluate,
    mse,
    percentile_error,
    r_squared,
    split_by_station,
)
from aquagauge.gbm import FeatureMatrix, Hyperparams, deserialize_model, gbm_fit, init_constant, predict_matrix
from aquagauge.ingest import impute_missing, parse_dataset
from conftest import mk_dataset, mk_sample, serialize_dataset
from scoring_reference import loop_compute_wqi


def obs(station, month, year, **kw):
    return mk_sample(station=station, month=month, year=year, **kw)


class TestBuildSupervised:
    def test_exact_four_month_pair(self):
        ds = mk_dataset([obs("A", 8, 2019), obs("A", 12, 2019, ph=8.0)])
        task = build_supervised(ds)
        assert len(task) == 1
        assert task.keys.tolist() == [("A", 8, 2019)]
        assert task.targets[0] == loop_compute_wqi(ds.samples[1]).wqi

    def test_single_observation_contributes_nothing(self):
        assert len(build_supervised(mk_dataset([obs("A", 8, 2019)]))) == 0

    def test_three_point_series(self):
        ds = mk_dataset(
            [obs("A", 8, 2019, ph=7.5), obs("A", 12, 2019, ph=8.0), obs("A", 4, 2020, ph=6.9)]
        )
        task = build_supervised(ds)
        wqi_by_month = {s.month: loop_compute_wqi(s).wqi for s in ds.samples}
        assert task.keys.tolist() == [("A", 8, 2019), ("A", 12, 2019)]
        assert list(task.targets) == [wqi_by_month[12], wqi_by_month[4]]
        # second example carries exactly one prior-wqi lag
        names = task.features.feature_names
        row2 = task.features.values[1]
        assert row2[names.index("wqi_lag1_present")] == 1.0
        assert row2[names.index("wqi_lag1")] == wqi_by_month[8]
        assert row2[names.index("wqi_lag2_present")] == 0.0
        row1 = task.features.values[0]
        assert row1[names.index("wqi_lag1_present")] == 0.0

    def test_tolerance_accepts_three_and_five_months(self):
        for later in [(11, 2019), (1, 2020)]:  # deltas 3 and 5
            ds = mk_dataset([obs("A", 8, 2019), obs("A", *later)])
            assert len(build_supervised(ds)) == 1

    def test_outside_tolerance_not_paired(self):
        for later in [(10, 2019), (2, 2020)]:  # deltas 2 and 6
            ds = mk_dataset([obs("A", 8, 2019), obs("A", *later)])
            assert len(build_supervised(ds)) == 0

    def test_exact_window_beats_neighbors(self):
        ds = mk_dataset(
            [obs("A", 8, 2019), obs("A", 11, 2019, ph=6.5), obs("A", 12, 2019, ph=8.0)]
        )
        task = build_supervised(ds)
        # first example must target the 12-2019 observation (delta 4), not 11-2019
        assert task.targets[0] == loop_compute_wqi(ds.samples[2]).wqi

    def test_tie_goes_to_earlier(self):
        ds = mk_dataset(
            [obs("A", 8, 2019), obs("A", 11, 2019, ph=6.5), obs("A", 1, 2020, ph=8.0)]
        )
        task = build_supervised(ds)
        assert task.targets[0] == loop_compute_wqi(ds.samples[1]).wqi  # delta 3 wins over 5

    def test_never_pairs_across_stations(self):
        rng = np.random.default_rng(2)
        samples = []
        for k in range(6):
            months = sorted(rng.choice(range(1, 13), size=3, replace=False).tolist())
            for m in months:
                samples.append(obs(f"S{k}", int(m), 2019, ph=float(rng.uniform(6.6, 8.4))))
        ds = mk_dataset(samples)
        task = build_supervised(ds)
        station_wqis = {}
        for s in ds.samples:
            station_wqis.setdefault(s.station_code, set()).add(loop_compute_wqi(s).wqi)
        for (station, _, _), target in zip(task.keys, task.targets):
            assert target in station_wqis[station]

    def test_feature_names_and_shape(self):
        ds = mk_dataset([obs("A", 8, 2019), obs("A", 12, 2019)])
        task = build_supervised(ds)
        assert task.features.feature_names == FEATURE_NAMES
        assert task.features.values.shape == (1, len(FEATURE_NAMES))

    def test_missing_temp_filled_with_median(self):
        ds = mk_dataset(
            [obs("A", 8, 2019, temp=None), obs("A", 12, 2019, temp=20.0), obs("B", 1, 2019, temp=30.0)]
        )
        fm, keys, _ = build_feature_rows(ds)
        idx = fm.feature_names.index("temp")
        by_key = dict(zip([k[0:2] for k in keys.tolist()], fm.values[:, idx]))
        assert by_key[("A", 8)] == 25.0

    def test_temp_fill_of_huge_temperatures_stays_finite(self):
        ds = mk_dataset(
            [obs("A", 8, 2019, temp=1e308), obs("A", 12, 2019, temp=1.7e308), obs("B", 1, 2019, temp=None)]
        )
        fm, keys, _ = build_feature_rows(ds)
        assert fm.values[keys.tolist().index(("B", 1, 2019)), FEATURE_NAMES.index("temp")] == 1e308 / 2 + 1.7e308 / 2


def loop_feature_rows(ds):
    """One sample at a time, per-station history list, normative scoring: the
    reference for the column build in build_feature_rows."""
    observed_temps = [s.temp for s in ds.samples if s.temp is not None]
    temp_fill = float(statistics.median(observed_temps)) if observed_temps else 0.0
    rows, keys, wqis = [], [], []
    for _, group in itertools.groupby(ds.samples, key=lambda s: s.station_code):
        history = []
        for s in group:
            wqi = loop_compute_wqi(s).wqi
            lag1 = history[-1] if len(history) >= 1 else None
            lag2 = history[-2] if len(history) >= 2 else None
            rows.append([s.ph, s.dissolved_oxygen, s.bod, s.conductivity, s.nitrate, s.total_coliform,
                         s.temp if s.temp is not None else temp_fill, wqi,
                         0.0 if lag1 is None else lag1, float(lag1 is not None),
                         0.0 if lag2 is None else lag2, float(lag2 is not None),
                         float(s.month), float(s.year)])
            keys.append((s.station_code, s.month, s.year))
            wqis.append(wqi)
            history.append(wqi)
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES)), keys, wqis


_series_sample = st.builds(
    mk_sample,
    station=st.sampled_from(["A", "B", "C"]),
    month=st.integers(1, 12),
    year=st.integers(2018, 2020),
    ph=st.floats(0.0, 14.0),
    do=st.floats(0.0, 20.0),
    tc=st.floats(0.0, 5000.0),
    temp=st.one_of(st.none(), st.floats(-5.0, 40.0)),
)


class TestFeatureRowsAgainstLoop:
    @given(st.lists(_series_sample, max_size=25))
    def test_bit_identical(self, samples):
        ds = mk_dataset(samples)
        fm, keys, wqis = build_feature_rows(ds)
        want_values, want_keys, want_wqis = loop_feature_rows(ds)
        assert fm.values.tobytes() == want_values.tobytes()
        assert keys.dtype == KEY_DTYPE and keys.tolist() == want_keys
        assert wqis.tolist() == want_wqis


class TestUnsortedSamples:
    @given(st.lists(_series_sample, min_size=2, max_size=12), st.randoms(use_true_random=False))
    def test_shuffled_dataset_raises(self, samples, rnd):
        rnd.shuffle(samples)
        ds = mk_dataset(samples, sort=False)
        order = [(s.station_code, s.year, s.month) for s in samples]
        if order == sorted(order):
            build_supervised(ds)
        else:
            with pytest.raises(UnsortedSamples):
                build_feature_rows(ds)
            with pytest.raises(UnsortedSamples):
                build_supervised(ds)

    @given(st.lists(_series_sample, max_size=12), st.randoms(use_true_random=False))
    def test_parsed_dataset_never_raises(self, samples, rnd):
        rnd.shuffle(samples)  # row order in the CSV is arbitrary
        ds = parse_dataset(serialize_dataset(mk_dataset(samples, sort=False)))
        build_supervised(ds)

    def test_error_names_the_first_row_out_of_order(self):
        ds = mk_dataset([obs("A", 8, 2019), obs("A", 12, 2019), obs("A", 9, 2019), obs("A", 1, 2019)],
                        sort=False)
        with pytest.raises(UnsortedSamples, match=re.escape("('A', 2019, 9) at 2 follows ('A', 2019, 12)")):
            build_feature_rows(ds)

    def test_equal_keys_allowed(self):
        ds = mk_dataset([obs("A", 8, 2019), obs("A", 8, 2019, ph=8.0), obs("A", 12, 2019)], sort=False)
        assert len(build_feature_rows(ds)[1]) == 3


class TestMetrics:
    def test_mse_examples(self):
        assert mse([1, 2], [1, 2]) == 0.0
        assert mse([0, 0], [1, 1]) == 1.0
        assert mse([2, 4], [3, 3]) == 1.0

    def test_mse_errors(self):
        with pytest.raises(LengthMismatch):
            mse([1], [1, 2])
        with pytest.raises(Empty):
            mse([], [])

    def test_r_squared_examples(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == 1.0
        a = np.array([1.0, 2.0, 3.0])
        assert r_squared(a, np.full(3, a.mean())) == 0.0
        assert r_squared([1, 2, 3], [1, 2, 4]) == 0.5

    def test_r_squared_on_two_points(self):
        assert r_squared([1, 3], [1, 2]) == 0.5
        assert r_squared([1, 3], [2, 2]) == 0.0

    def test_r_squared_degenerate(self):
        with pytest.raises(DegenerateActuals):
            r_squared([2, 2, 2], [1, 2, 3])

    def test_r_squared_errors(self):
        with pytest.raises(LengthMismatch):
            r_squared([1.0, 2.0], [1.0])
        with pytest.raises(Empty, match="need >= 2 points"):
            r_squared([1.0], [1.0])

    def test_r_squared_negative_for_bad_model(self):
        assert r_squared([1, 2, 3], [30, 30, 30]) < 0.0

    def test_r_squared_at_extreme_magnitudes(self):
        """Squares that would underflow to 0 or overflow to inf."""
        assert r_squared([1e-170, -1e-170], [0, 0]) == 0.0
        assert r_squared([1e160, -1e160], [0, 0]) == 0.0

    @given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)] * 2),
                    min_size=2, max_size=20),
           st.floats(0.0, 1.0))
    @example([(1e-170, 0.0), (-1e-170, 0.0)], 1.0)
    @example([(1e160, 0.0), (-1e160, 0.0)], 0.0)
    def test_r_squared_is_scale_free(self, pairs, position):
        """r_squared(s*a, s*p) == r_squared(a, p) for every power of two s
        that keeps s*a and s*p finite and normal; `position` picks s = 2**e
        in that range of e."""
        a, p = (np.array(column) for column in zip(*pairs))
        values = np.concatenate((a, p))
        exponents = np.frexp(values[values != 0])[1]  # normal |x| lies in [2**(E-1), 2**E), -1021 <= E <= 1024
        lo, hi = -1021 - int(exponents.min(initial=1024)), 1024 - int(exponents.max(initial=-1021))
        e = lo + round(position * (hi - lo))

        def outcome(actual, predicted):
            try:
                return r_squared(actual, predicted)
            except DegenerateActuals:
                return DegenerateActuals

        assert outcome(np.ldexp(a, e), np.ldexp(p, e)) == outcome(a, p)

    @pytest.mark.parametrize(
        "actual,predicted,printed,tol",
        [
            (63.253922, 69.959334, 10.6, 0.05),
            (78.969041, 83.966075, 6.3, 0.05),
            (77.549000, 81.307586, 4.8, 0.05),
            (75.058490, 67.314328, 10.4, 0.15),
            (50.570943, 52.655839, 4.1, 0.05),
        ],
    )
    def test_percentile_error_reference_rows(self, actual, predicted, printed, tol):
        assert percentile_error(actual, predicted) == pytest.approx(printed, abs=tol)

    def test_percentile_error_zero_actual(self):
        with pytest.raises(ZeroActual):
            percentile_error(0.0, 1.0)

    def test_percentile_error_exact_prediction(self):
        assert percentile_error(42.0, 42.0) == 0.0

    def test_percentile_error_of_arrays_is_elementwise(self):
        actual, predicted = np.array([63.253922, -2.5, 1e-300]), np.array([69.959334, 1.0, 0.0])
        got = percentile_error(actual, predicted)
        assert got.tolist() == [percentile_error(a, p) for a, p in zip(actual.tolist(), predicted.tolist())]
        with pytest.raises(ZeroActual):
            percentile_error(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    @given(
        st.floats(-1e6, 1e6).filter(lambda v: abs(v) > 1e-6),
        st.floats(-1e6, 1e6),
        st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-6),
    )
    def test_percentile_error_scale_invariant(self, actual, predicted, k):
        base = percentile_error(actual, predicted)
        scaled = percentile_error(actual * k, predicted * k)
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)


def _toy_task(n=40, seed=0, leak=False):
    rng = np.random.default_rng(seed)
    targets = rng.uniform(40.0, 95.0, size=n)
    values = rng.uniform(0.0, 10.0, size=(n, len(FEATURE_NAMES)))
    if leak:
        values[:, 0] = targets
    from aquagauge.forecast import SupervisedTask

    return SupervisedTask(
        features=FeatureMatrix(values, list(FEATURE_NAMES)),
        targets=targets,
        keys=np.array([(f"S{i % 8}", 1 + i % 12, 2018 + i % 3) for i in range(n)], dtype=KEY_DTYPE),
    )


class TestEvaluate:
    def test_empty_task(self):
        task = _toy_task(0)
        model = gbm_fit(np.zeros((2, len(FEATURE_NAMES))), [1.0, 2.0],
                        Hyperparams(n_trees=0))
        model.feature_names = list(FEATURE_NAMES)
        with pytest.raises(Empty, match="^evaluation task is empty$"):
            evaluate(model, task)
        model.feature_names = ["other"]  # emptiness is named before the features
        with pytest.raises(Empty, match="^evaluation task is empty$"):
            evaluate(model, task)

    def test_leaked_feature_gives_near_perfect_r2(self):
        task = _toy_task(leak=True)
        hp = Hyperparams(n_trees=120, learning_rate=0.2, max_depth=3,
                         min_samples_split=4, min_samples_leaf=2)
        model = gbm_fit(task.features, task.targets, hp)
        report = evaluate(model, task)
        assert report.r_squared > 0.99

    def test_mean_only_model_scores_zero(self):
        task = _toy_task()
        model = gbm_fit(task.features, task.targets, Hyperparams(n_trees=0))
        report = evaluate(model, task)
        assert report.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_internal_consistency(self):
        task = _toy_task()
        model = gbm_fit(task.features, task.targets,
                        Hyperparams(n_trees=10, max_depth=2, min_samples_split=4,
                                    min_samples_leaf=2))
        report = evaluate(model, task)
        assert report.mse == pytest.approx(mse(report.actual, report.predicted), rel=1e-12)
        assert task.targets.tolist() == report.actual.tolist()  # ordered by task key order

    def test_feature_mismatch(self):
        task = _toy_task()
        model = gbm_fit(np.zeros((2, 3)), [1.0, 2.0], Hyperparams(n_trees=0))
        with pytest.raises(FeatureMismatch):
            evaluate(model, task)

    def test_zero_actual_row_left_out_of_mean(self):
        task = _toy_task()
        task.targets[[3, 17]] = 0.0
        model = gbm_fit(task.features, task.targets, Hyperparams(n_trees=0))
        report = evaluate(model, task)
        assert report.zero_actuals == 2
        assert np.flatnonzero(np.isnan(report.percentile_error)).tolist() == [3, 17]
        kept = [percentile_error(a, p)
                for a, p in zip(report.actual.tolist(), report.predicted.tolist()) if a != 0.0]
        assert len(kept) == len(task) - 2
        assert report.mean_percentile_error == float(np.mean(kept))

    def test_all_zero_actuals_raise(self):
        task = _toy_task()
        task.targets[:] = 0.0
        model = gbm_fit(task.features, task.targets, Hyperparams(n_trees=0))
        with pytest.raises(ZeroActual):
            evaluate(model, task)


class TestSplitByStation:
    def test_disjoint_and_deterministic(self):
        task = _toy_task(64)
        train1, test1 = split_by_station(task, 0.25, seed=42)
        train2, test2 = split_by_station(task, 0.25, seed=42)
        assert train1.keys.tolist() == train2.keys.tolist() and test1.keys.tolist() == test2.keys.tolist()
        train_stations = {s for s, _, _ in train1.keys}
        test_stations = {s for s, _, _ in test1.keys}
        assert not train_stations & test_stations
        assert len(train1) + len(test1) == len(task)

    def test_different_seed_can_differ(self):
        task = _toy_task(64)
        picks = {frozenset(s for s, _, _ in split_by_station(task, 0.25, seed)[1].keys)
                 for seed in range(8)}
        assert len(picks) > 1

    @pytest.mark.parametrize("fraction, seed", [(0.25, 42), (0.5, 7), (0.9, 3)])
    def test_each_side_is_its_stations_rows_in_task_order(self, fraction, seed):
        task = _toy_task(64)
        # codes that differ only in a trailing NUL are distinct stations
        task.keys = np.array([(s + "\x00" * (i // 8 % 2), m, y) for i, (s, m, y) in enumerate(task.keys.tolist())],
                             dtype=KEY_DTYPE)
        stations = sorted({s for s, _, _ in task.keys})
        n_test = int(len(stations) * fraction)
        drawn = {stations[i] for i in np.random.default_rng(seed).permutation(len(stations))[:n_test]}
        train, test = split_by_station(task, fraction, seed)
        assert {s for s, _, _ in test.keys} == drawn
        for side, on_side in ((train, lambda s: s not in drawn), (test, lambda s: s in drawn)):
            keys = task.keys.tolist()
            rows = [i for i, (s, _, _) in enumerate(keys) if on_side(s)]
            assert side.keys.tolist() == [keys[i] for i in rows]
            assert np.array_equal(side.features.values, task.features.values[rows])
            assert np.array_equal(side.targets, task.targets[rows])

    def test_zero_fraction_keeps_everything(self):
        task = _toy_task(16)
        train, test = split_by_station(task, 0.0, seed=0)
        assert len(test) == 0
        assert len(train) == len(task)

    @pytest.mark.parametrize("n_stations", [2, 3])
    def test_few_stations_hold_out_exactly_one(self, n_stations):
        """0.2 of two or three stations floors to none; a positive fraction
        still holds one out."""
        task = _toy_task(n_stations)  # one example per station
        for seed in range(4):
            train, test = split_by_station(task, 0.2, seed)
            assert (len(test), len(train)) == (1, n_stations - 1)

    def test_whole_fraction_rejected(self):
        with pytest.raises(ValueError, match=r"test_fraction must be in \[0, 1\)"):
            split_by_station(_toy_task(8), 1.0, seed=0)

    @pytest.mark.parametrize("n", [0, 8])
    def test_negative_seed_rejected(self, n):
        """The seed goes to np.random.default_rng, which refuses a negative one."""
        with pytest.raises(ValueError):
            split_by_station(_toy_task(n), 0.2, seed=-1)


def test_forecast_beats_persistence(train_18k_run):
    """The booster must forecast better than persistence, the naive forecast
    "WQI in four months equals WQI now" (the feature row's wqi), on the
    benchmark's train-18k data: 2,000 generated stations x 9 periods, 1%
    missing, 30 default trees, station split 0.2 with seed 0. A model change
    that keeps every test but loses the forecast fails here. The model is
    the one ``train`` wrote, scored here through the library rather than
    read from evaluate's log. The MSE ratio was 0.815 at split seed 0 (0.811
    and 0.844 at seeds 1 and 2)."""
    model = deserialize_model(train_18k_run.model.read_text(encoding="utf-8"))
    assert (model.hyperparams.seed, len(model.trees)) == (0, 30)
    task = build_supervised(impute_missing(parse_dataset(train_18k_run.data.read_text(encoding="utf-8"))))
    train, test = split_by_station(task, 0.2, seed=0)
    assert model.f0 == init_constant(train.targets)  # fitted on this split's training side
    booster = mse(test.targets, predict_matrix(model, test.features.values))
    persistence = mse(test.targets, test.features.values[:, FEATURE_NAMES.index("wqi")])
    assert booster <= 0.9 * persistence, booster / persistence

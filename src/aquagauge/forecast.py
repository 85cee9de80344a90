"""Four-month-ahead WQI forecasting task construction and evaluation.

Each station's observations are ordered in time and every observation is
paired with the same station's observation four calendar months later
(tolerance one month; nearest wins, ties to the earlier candidate). The
feature row for an observation holds its six chemical inputs, temperature,
its own WQI, up to two prior WQI values with presence flags, and the month
and year; the target is the paired later WQI.

Feature rows are built from the dataset's columns: the WQI comes out of
:func:`wqi.score_columns`, and the lags are the WQI column shifted by one and
two rows, present where the row that many rows back is from the same
station. Samples must be sorted by (station_code, year, month), as
:func:`ingest.parse_dataset` returns them. The keys are columns too: one
structured array of :data:`KEY_DTYPE`, a (station, month, year) record per
example, which the task and the station split index as they index the
feature rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AquagaugeError, LengthMismatch
from .gbm import FeatureMatrix, GbmModel, predict_matrix
from .ingest import WQI_INPUTS, Dataset, column_median
from .wqi import NORMATIVE, score_columns

FEATURE_NAMES = [
    "ph",
    "do",
    "bod",
    "conductivity",
    "nitrate",
    "total_coliform",
    "temp",
    "wqi",
    "wqi_lag1",
    "wqi_lag1_present",
    "wqi_lag2",
    "wqi_lag2_present",
    "month",
    "year",
]

WINDOW_MONTHS = 4
WINDOW_TOLERANCE = 1
# the share of stations the station split holds out; train and evaluate both read it
HELD_OUT_FRACTION = 0.2
# a task's (station, month, year) per example; a fixed-width str field would drop trailing NULs
KEY_DTYPE = np.dtype([("station", object), ("month", np.int64), ("year", np.int64)])


class ForecastError(AquagaugeError):
    pass


class Empty(ForecastError):
    def __init__(self, what: str = "input"):
        super().__init__(f"{what} is empty")


class ZeroActual(ForecastError):
    def __init__(self):
        super().__init__("percentile error undefined for actual value 0")


class DegenerateActuals(ForecastError):
    def __init__(self):
        super().__init__("r_squared undefined: actuals have zero variance")


class FeatureMismatch(ForecastError):
    def __init__(self, expected: list[str], got: list[str]):
        super().__init__(f"model features {expected} != task features {got}")


class UnsortedSamples(ForecastError):
    def __init__(self, position: int, key: tuple[str, int, int], previous: tuple[str, int, int]):
        super().__init__(
            f"samples not in (station_code, year, month) order: {key} at {position} follows {previous}"
        )


@dataclass
class SupervisedTask:
    features: FeatureMatrix
    targets: np.ndarray
    keys: np.ndarray  # one KEY_DTYPE record per example

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class EvalReport:
    mse: float
    r_squared: float
    mean_percentile_error: float
    # one float64 entry per example, in task key order; the percentile error
    # is NaN where the actual is 0
    actual: np.ndarray
    predicted: np.ndarray
    percentile_error: np.ndarray

    @property
    def zero_actuals(self) -> int:
        """Examples without a percentile error because their actual is 0."""
        return int(np.count_nonzero(np.isnan(self.percentile_error)))


def _month_index(year: np.ndarray, month: np.ndarray) -> np.ndarray:
    return year * 12 + (month - 1)


def build_feature_rows(ds: Dataset) -> tuple[FeatureMatrix, np.ndarray, np.ndarray]:
    """Feature rows for every observation, in dataset order, with the WQI
    scored in the normative mode.

    Requires an imputed dataset (all six WQI inputs present) sorted by
    (station_code, year, month); raises UnsortedSamples otherwise. Missing
    temperature is filled with the dataset median of observed temperatures
    (0.0 when none was ever observed) so rows stay finite.
    """
    stations = ds.station_code
    month_idx = _month_index(ds.year, ds.month)
    behind = (stations[1:] < stations[:-1]) | (
        (stations[1:] == stations[:-1]) & (month_idx[1:] < month_idx[:-1]))
    if behind.any():
        i = int(np.argmax(behind)) + 1
        key = [(stations[k], int(ds.year[k]), int(ds.month[k])) for k in (i, i - 1)]
        raise UnsortedSamples(i, *key)
    cols = ds.columns((*WQI_INPUTS, "temp"))
    wqis = score_columns(cols[:, :6], NORMATIVE).wqi
    temp = cols[:, 6]
    observed_temps = temp[~np.isnan(temp)]
    temp_fill = column_median(observed_temps) if observed_temps.size else 0.0

    n = len(ds)
    values = np.zeros((n, len(FEATURE_NAMES)))
    values[:, :6] = cols[:, :6]
    values[:, 6] = np.where(np.isnan(temp), temp_fill, temp)
    values[:, 7] = wqis
    for lag, col in ((1, 8), (2, 10)):
        # Sorted by station, so a sample `lag` rows back from the same
        # station is `lag` rows back in the same run.
        present = np.zeros(n, dtype=bool)
        present[lag:] = stations[lag:] == stations[:-lag]
        values[lag:, col] = np.where(present[lag:], wqis[:-lag], 0.0)
        values[:, col + 1] = present
    values[:, 12] = ds.month
    values[:, 13] = ds.year
    keys = np.empty(n, dtype=KEY_DTYPE)
    keys["station"], keys["month"], keys["year"] = stations, ds.month, ds.year
    return FeatureMatrix(values, list(FEATURE_NAMES)), keys, wqis


def build_supervised(ds: Dataset) -> SupervisedTask:
    """Pair every observation with its station's observation ~4 months later.

    Candidates 3-5 months ahead qualify; the one nearest to 4 wins and ties
    go to the earlier candidate. Stations with a single observation
    contribute nothing. An empty task is legal.
    """
    fm, keys, wqis = build_feature_rows(ds)
    n = len(keys)
    month_idx = _month_index(ds.year, ds.month)
    # One ascending key over the sorted dataset: each station gets its own
    # band of `stride` months, wide enough that a key plus a lead of up to
    # the window stays in the station's band.
    stride = (int(np.ptp(month_idx)) if n else 0) + WINDOW_MONTHS + WINDOW_TOLERANCE + 1
    new_station = np.ones(n, dtype=bool)
    new_station[1:] = ds.station_code[1:] != ds.station_code[:-1]
    key = np.cumsum(new_station) * stride + month_idx

    target = np.full(n, -1)  # row of each row's pair, -1 for none
    leads = range(WINDOW_MONTHS - WINDOW_TOLERANCE, WINDOW_MONTHS + WINDOW_TOLERANCE + 1)
    for lead in sorted(leads, key=lambda d: (abs(d - WINDOW_MONTHS), d)):  # nearest first, then earlier
        # The first row at that month, so of equal keys the earlier row wins.
        j = np.minimum(np.searchsorted(key, key + lead), n - 1)
        found = (target < 0) & (key[j] == key + lead)
        target[found] = j[found]

    rows = np.flatnonzero(target >= 0)
    return SupervisedTask(
        features=FeatureMatrix(fm.values[rows], list(FEATURE_NAMES)),
        targets=wqis[target[rows]],
        keys=keys[rows],
    )


def mse(actual, predicted) -> float:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.size != p.size:
        raise LengthMismatch(a.size, p.size)
    if a.size == 0:
        raise Empty("metric input")
    return float(np.mean((a - p) ** 2))


def r_squared(actual, predicted) -> float:
    """1 - SS_res/SS_tot about the mean of actual; <= 1, negative when the
    model underperforms the mean predictor."""
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.size != p.size:
        raise LengthMismatch(a.size, p.size)
    if a.size < 2:
        raise Empty("metric input (need >= 2 points)")
    # Scaling both by 2**-k, k the binary exponent of the largest magnitude,
    # is exact and leaves the ratio as it is, but keeps the squares from
    # overflowing or underflowing.
    k = int(np.frexp(max(np.abs(a).max(), np.abs(p).max()))[1])
    a, p = np.ldexp(a, -k), np.ldexp(p, -k)
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateActuals()
    ss_res = float(np.sum((a - p) ** 2))
    return 1.0 - ss_res / ss_tot


def percentile_error(actual, predicted):
    """|predicted - actual| / |actual| * 100, of two floats or elementwise
    of two float64 arrays; ZeroActual if any actual is 0."""
    if np.any(np.asarray(actual) == 0):
        raise ZeroActual()
    return abs(predicted - actual) / abs(actual) * 100.0


def evaluate(model: GbmModel, task: SupervisedTask) -> EvalReport:
    """Predict every task example and assemble the metric report, ordered by
    task key order.

    An example whose actual is 0 has no percentile error and is left out of
    the mean; ZeroActual is raised only when every actual is 0.
    """
    if model.feature_names != task.features.feature_names:
        raise FeatureMismatch(model.feature_names, task.features.feature_names)
    if len(task) == 0:
        raise Empty("task")
    actual = task.targets
    predictions = predict_matrix(model, task.features.values)
    scored = actual != 0
    if not scored.any():
        raise ZeroActual()
    errors = np.full(len(task), np.nan)
    errors[scored] = percentile_error(actual[scored], predictions[scored])
    return EvalReport(
        mse=mse(actual, predictions),
        r_squared=r_squared(actual, predictions),
        mean_percentile_error=float(np.mean(errors[scored])),
        actual=actual,
        predicted=predictions,
        percentile_error=errors,
    )


def split_by_station(
    task: SupervisedTask, test_fraction: float, seed: int
) -> tuple[SupervisedTask, SupervisedTask]:
    """Seeded group split: every station's examples land wholly on one side.

    The test side receives floor(test_fraction * n_stations) stations, at
    least one when the fraction is positive and there are two or more
    stations to split. A negative seed raises ValueError.
    """
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError("test_fraction must be in [0, 1)")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    stations, station_of = np.unique(task.keys["station"], return_inverse=True)  # in Python's str order
    n_test = int(len(stations) * test_fraction)
    if n_test == 0 and test_fraction > 0.0 and len(stations) >= 2:
        n_test = 1
    rng = np.random.default_rng(seed)
    test = np.isin(station_of, rng.permutation(len(stations))[:n_test])

    def take(side: np.ndarray) -> SupervisedTask:
        return SupervisedTask(
            features=FeatureMatrix(task.features.values[side], list(task.features.feature_names)),
            targets=task.targets[side],
            keys=task.keys[side],
        )

    return take(~test), take(test)

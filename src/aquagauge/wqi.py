"""Water-quality index: banded sub-index scoring and weighted aggregation.

Each chemical parameter is scored into one of {0, 40, 60, 80, 100} by a fixed
band table, the scores are scaled by fixed per-parameter weights, and the WQI
is the sum of the six weighted scores. Bands are evaluated in table order,
first match wins, each band closed on both ends. Values covered by no band
score 0, with two refinements:

* the DO and pH tables leave small gaps between printed bands ((4, 4.1) and
  (5, 5.1) for DO, (6.9, 7) for pH); values in a gap take the score of the
  adjacent band with the larger score rather than dropping to 0;
* ``legacy_nco`` mode scores total coliform above 1000 as 40 instead of 0,
  reproducing the historical scoring some archived result tables carry.

The weights sum to 0.998, so the WQI range is [0, 99.8] (the float64 image
of the top end overshoots by ~1e-14 because 0.998 is not exactly
representable).

:func:`score_columns` scores a whole dataset from its float64 input columns
with numpy masks over the band tables; it is the only scoring code.
:func:`compute_wqi` and :class:`WqiRecord` remain only because perfbench's
``check_diagnose`` reads ``compute_wqi(sample).wqi``: a one-row call of
``score_columns``, kept until ROADMAP item 1 retargets that check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AquagaugeError, NonFinite
from .ingest import WQI_INPUTS, WaterSample

NORMATIVE = "normative"
LEGACY_NCO = "legacy_nco"
MODES = (NORMATIVE, LEGACY_NCO)

SUB_INDEX_KINDS = ("ph", "do", "bod", "ec", "na", "co")
SUB_INDEX_SCORES = (0, 40, 60, 80, 100)

WEIGHTS = {
    "ph": 0.165,
    "do": 0.281,
    "bod": 0.234,
    "ec": 0.009,
    "na": 0.028,
    "co": 0.281,
}

_INF = math.inf

# (lo, hi, score) triples, closed intervals, evaluated in printed order.
_BANDS: dict[str, tuple[tuple[float, float, int], ...]] = {
    "ph": (
        (7.0, 8.5, 100),
        (8.5, 8.6, 80),
        (6.8, 6.9, 80),
        (8.6, 8.8, 60),
        (6.7, 6.8, 60),
        (8.8, 9.0, 40),
        (6.5, 6.7, 40),
    ),
    "do": (
        (6.0, _INF, 100),
        (5.1, 6.0, 80),
        (4.1, 5.0, 60),
        (3.0, 4.0, 40),
    ),
    "co": (
        (0.0, 5.0, 100),
        (5.0, 50.0, 80),
        (50.0, 500.0, 60),
        (500.0, 1000.0, 40),
    ),
    "bod": (
        (0.0, 3.0, 100),
        (3.0, 6.0, 80),
        (6.0, 80.0, 60),
        (80.0, 125.0, 40),
    ),
    "ec": (
        (0.0, 75.0, 100),
        (75.0, 150.0, 80),
        (150.0, 225.0, 60),
        (225.0, 300.0, 40),
    ),
    "na": (
        (0.0, 20.0, 100),
        (20.0, 50.0, 80),
        (50.0, 100.0, 60),
        (100.0, 200.0, 40),
    ),
}

# Gap fills, only consulted after every printed band has missed.
_GAP_BANDS: dict[str, tuple[tuple[float, float, int], ...]] = {
    "do": ((4.0, 4.1, 60), (5.0, 5.1, 80)),
    "ph": ((6.9, 7.0, 100),),
}


class WqiError(AquagaugeError):
    pass


class MissingInput(WqiError):
    def __init__(self, fields: list[str]):
        super().__init__(f"sample is missing wqi input(s): {', '.join(fields)}")
        self.fields = fields


@dataclass
class WqiColumns:
    """Scores of many samples, one row per sample; columns in SUB_INDEX_KINDS order."""

    inputs: np.ndarray  # float64 (n, 6): the raw WQI inputs, NaN where missing
    sub: np.ndarray  # int64 (n, 6): sub-index scores
    weighted: np.ndarray  # float64 (n, 6): weighted scores
    wqi: np.ndarray  # float64 (n,)


def _score_column(kind: str, values: np.ndarray, mode: str) -> np.ndarray:
    """Score a finite column: rules are applied from the last one in table
    order to the first, so the first match wins."""
    score = np.zeros(values.shape, dtype=np.int64)
    if kind == "co" and mode == LEGACY_NCO:
        score[values > 1000.0] = 40
    for lo, hi, band_score in reversed(_BANDS[kind] + _GAP_BANDS.get(kind, ())):
        score[(lo <= values) & (values <= hi)] = band_score
    return score


def score_columns(inputs: np.ndarray, mode: str = NORMATIVE) -> WqiColumns:
    """Score every row of a (samples, 6) float64 array of the WQI inputs, in
    ``ingest.WQI_INPUTS`` order with NaN for a missing value.

    Raises ValueError for an unknown mode, then, for the first row holding a
    non-finite value, MissingInput naming its NaN inputs or NonFinite for its
    first infinite one.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != len(SUB_INDEX_KINDS):
        raise ValueError(f"expected a (samples, 6) array, got shape {inputs.shape}")
    bad = ~np.isfinite(inputs)
    if bad.any():
        row = inputs[int(np.argmax(bad.any(axis=1)))]
        missing = [name for name, value in zip(WQI_INPUTS, row) if math.isnan(value)]
        if missing:
            raise MissingInput(missing)
        j = int(np.argmax(np.isinf(row)))
        raise NonFinite(float(row[j]), context=f"{SUB_INDEX_KINDS[j]} value")
    sub = np.column_stack(
        [_score_column(kind, inputs[:, j], mode) for j, kind in enumerate(SUB_INDEX_KINDS)]
    )
    weighted, wqi = _weigh(sub)
    return WqiColumns(inputs=inputs, sub=sub, weighted=weighted, wqi=wqi)


def _weigh(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted scores of (n, 6) sub-indices and their left-to-right row sums."""
    weighted = sub * np.array([WEIGHTS[kind] for kind in SUB_INDEX_KINDS])
    wqi = weighted[:, 0].copy()
    for j in range(1, len(SUB_INDEX_KINDS)):
        wqi += weighted[:, j]
    return weighted, wqi


@dataclass
class WqiRecord:
    """One sample's WQI and its one-row columns. Kept only for perfbench's
    ``check_diagnose`` until ROADMAP item 1 retargets it."""

    wqi: float
    columns: WqiColumns


def compute_wqi(sample: WaterSample) -> WqiRecord:
    """Score one sample in the normative mode: a one-row :func:`score_columns`
    call, which reads a None input as missing. Kept only for perfbench's
    ``check_diagnose`` until ROADMAP item 1 retargets it."""
    cols = score_columns(np.array([[getattr(sample, name) for name in WQI_INPUTS]], dtype=np.float64))
    return WqiRecord(wqi=float(cols.wqi[0]), columns=cols)

"""Frozen one-sample scoring and rule matching: the oracle for the column path.

The functions here are the scalar implementations that ``score_columns`` and
``diagnose_columns`` replaced: a band loop per parameter (``loop_sub_index``),
a weighted sum written out term by term (``loop_weighted_scores``, and
``loop_reachable_wqi_values`` over every combination of sub-index scores),
and a rule matcher that reads one field at a time. Tests compare the column
code with them, never with itself. The oracle owns its records, ``Scored``
and ``Matched``; it shares with the package only constants (band tables,
weights, modes, input names) and the two exceptions it raises.
"""

import itertools
import math
from typing import NamedTuple

from aquagauge.errors import NonFinite
from aquagauge.ingest import WQI_INPUTS
from aquagauge.wqi import (
    _BANDS,
    _GAP_BANDS,
    LEGACY_NCO,
    MODES,
    NORMATIVE,
    SUB_INDEX_SCORES,
    WEIGHTS,
    MissingInput,
)


class Scored(NamedTuple):
    """One sample as the scalar code scored it: sub-indices and weighted
    scores in ``SUB_INDEX_KINDS`` order, and their sum. ``sample`` holds the
    raw inputs the rules read, or is None for a record with none."""

    sample: object
    sub: tuple[int, ...]
    weighted: tuple[float, ...]
    wqi: float


class Matched(NamedTuple):
    """What the scalar matcher gives: the first matching rule, or the default,
    and the values of the fields that rule reads."""

    disease: str
    reason: str
    suggestion: str
    priority: int
    echo: dict


def missing_wqi_inputs(sample):
    """The WQI inputs a sample lacks (None), in ``WQI_INPUTS`` order."""
    return [name for name in WQI_INPUTS if getattr(sample, name) is None]


_SAMPLE_ATTR = {
    "ph": "ph",
    "do": "dissolved_oxygen",
    "bod": "bod",
    "ec": "conductivity",
    "na": "nitrate",
    "tc": "total_coliform",
}
_SUB_ATTR = ("nph", "ndo", "nbdo", "nec", "nna", "nco")


def outcome(fn, *args):
    """What a call gives, comparable across implementations: the repr of its
    result (so NaN equals NaN and the types must agree), or the type and
    message of the exception it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def loop_sub_index(kind, value, mode=NORMATIVE):
    if kind not in _BANDS:
        raise ValueError(f"unknown sub-index kind: {kind!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    if not math.isfinite(value):
        raise NonFinite(value, context=f"{kind} value")
    for lo, hi, score in _BANDS[kind]:
        if lo <= value <= hi:
            return score
    for lo, hi, score in _GAP_BANDS.get(kind, ()):
        if lo <= value <= hi:
            return score
    if kind == "co" and mode == LEGACY_NCO and value > 1000.0:
        return 40
    return 0


def loop_weighted_scores(sub):
    nph, ndo, nbdo, nec, nna, nco = sub
    return (
        nph * WEIGHTS["ph"],
        ndo * WEIGHTS["do"],
        nbdo * WEIGHTS["bod"],
        nec * WEIGHTS["ec"],
        nna * WEIGHTS["na"],
        nco * WEIGHTS["co"],
    )


def loop_score_sample(sample, mode=NORMATIVE):
    missing = missing_wqi_inputs(sample)
    if missing:
        raise MissingInput(missing)
    sub = (
        loop_sub_index("ph", sample.ph, mode),
        loop_sub_index("do", sample.dissolved_oxygen, mode),
        loop_sub_index("bod", sample.bod, mode),
        loop_sub_index("ec", sample.conductivity, mode),
        loop_sub_index("na", sample.nitrate, mode),
        loop_sub_index("co", sample.total_coliform, mode),
    )
    wph, wdo, wbdo, wec, wna, wco = w = loop_weighted_scores(sub)
    return Scored(sample=sample, sub=sub, weighted=w, wqi=wph + wdo + wbdo + wec + wna + wco)


def loop_reachable_wqi_values():
    values = set()
    for combo in itertools.product(SUB_INDEX_SCORES, repeat=6):
        wph, wdo, wbdo, wec, wna, wco = loop_weighted_scores(combo)
        values.add(wph + wdo + wbdo + wec + wna + wco)
    return frozenset(values)


def _field_value(rec, name):
    if name == "wqi":
        return rec.wqi
    if name in _SUB_ATTR:
        return float(rec.sub[_SUB_ATTR.index(name)])
    if rec.sample is None:
        return None
    return getattr(rec.sample, _SAMPLE_ATTR[name])


def _holds(c, value):
    if value is None:
        return False
    if c.op == "<":
        return value < c.value
    if c.op == "<=":
        return value <= c.value
    if c.op == ">":
        return value > c.value
    if c.op == ">=":
        return value >= c.value
    return c.value <= value <= c.hi


def loop_diagnose(rec, rs):
    for rule in rs.rules:
        echo = {c.field: _field_value(rec, c.field) for c in rule.conditions}
        if all(_holds(c, echo[c.field]) for c in rule.conditions):
            break
    else:
        rule, echo = rs.default_rule, {}
    return Matched(
        disease=rule.name,
        reason=rule.reason,
        suggestion=rule.suggestion,
        priority=rule.priority,
        echo=echo,
    )

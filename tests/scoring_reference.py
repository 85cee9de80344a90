"""Frozen one-sample scoring and rule matching: the oracle for the column path.

``compute_wqi`` and ``diagnose`` in the package are one-row calls of
``score_columns`` and ``diagnose_columns``. The functions here are the scalar
implementations the column code replaced: a band loop per parameter
(``loop_sub_index``), a weighted sum written out term by term
(``loop_weighted_scores``, and ``loop_reachable_wqi_values`` over every
combination of sub-index scores), and a rule matcher that reads one field at
a time. Tests compare the column code with them, never with itself. Only the
band tables, the weights and the record types are shared with the package.
"""

import itertools
import math

from aquagauge.errors import NonFinite
from aquagauge.rules import Diagnosis
from aquagauge.wqi import (
    _BANDS,
    _GAP_BANDS,
    LEGACY_NCO,
    MODES,
    NORMATIVE,
    SUB_INDEX_SCORES,
    WEIGHTS,
    MissingInput,
    SubIndices,
    WeightedScores,
    WqiRecord,
)

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
    return WeightedScores(
        wph=sub.nph * WEIGHTS["ph"],
        wdo=sub.ndo * WEIGHTS["do"],
        wbdo=sub.nbdo * WEIGHTS["bod"],
        wec=sub.nec * WEIGHTS["ec"],
        wna=sub.nna * WEIGHTS["na"],
        wco=sub.nco * WEIGHTS["co"],
    )


def loop_compute_wqi(sample, mode=NORMATIVE):
    missing = sample.missing_wqi_inputs()
    if missing:
        raise MissingInput(missing)
    sub = SubIndices(
        nph=loop_sub_index("ph", sample.ph, mode),
        ndo=loop_sub_index("do", sample.dissolved_oxygen, mode),
        nbdo=loop_sub_index("bod", sample.bod, mode),
        nec=loop_sub_index("ec", sample.conductivity, mode),
        nna=loop_sub_index("na", sample.nitrate, mode),
        nco=loop_sub_index("co", sample.total_coliform, mode),
    )
    w = loop_weighted_scores(sub)
    wqi = w.wph + w.wdo + w.wbdo + w.wec + w.wna + w.wco
    return WqiRecord(sample=sample, sub=sub, weighted=w, wqi=wqi, mode=mode)


def loop_reachable_wqi_values():
    values = set()
    for combo in itertools.product(SUB_INDEX_SCORES, repeat=6):
        w = loop_weighted_scores(SubIndices(*combo))
        values.add(w.wph + w.wdo + w.wbdo + w.wec + w.wna + w.wco)
    return frozenset(values)


def _field_value(rec, name):
    if name == "wqi":
        return rec.wqi
    if name in _SUB_ATTR:
        return float(getattr(rec.sub, name))
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
    return Diagnosis(
        disease=rule.name,
        reason=rule.reason,
        suggestion=rule.suggestion,
        matched_rule_priority=rule.priority,
        inputs_echo=echo,
    )

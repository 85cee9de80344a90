"""Declarative diagnosis rules over scored water-quality records.

Rules live in a line-oriented text format ("#" starts a comment line):

    rule <priority> "<disease>" reason "<text>" suggest "<text>" \
        when <field> <op> <value> [and <field> <op> <value>]...

Fields come from a closed set (the aggregate wqi, the six sub-indices, and
the six raw inputs), ops are < <= > >= and ``between <lo> <hi>`` (inclusive).
A rule fires when every condition holds; rules are tried in descending
priority and the first match wins. Records matching nothing fall through to
the built-in default, "No Disease" / "Comfortable". A condition on a raw
field the record does not carry evaluates false, so diagnosis is total.

:func:`diagnose_columns` takes the :class:`~aquagauge.wqi.WqiColumns` of a
whole dataset and evaluates each condition once over all rows. It is the only
matcher: :func:`diagnose` takes one scored record as a one-row call of it.
"""

from __future__ import annotations

import math
import operator
import shlex
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import AquagaugeError
from .ingest import WQI_INPUTS
from .wqi import WqiColumns, WqiRecord

FIELDS = ("wqi", "nph", "ndo", "nbdo", "nec", "nna", "nco", "ph", "do", "bod", "ec", "na", "tc")
# Each operator's comparison; 'between' is the one two-bound operator.
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
OPS = (*_COMPARE, "between")

DEFAULT_RULES_RESOURCE = "default.rules"


class RulesError(AquagaugeError):
    pass


class RuleSyntaxError(RulesError):
    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: {detail}")
        self.line = line


class DuplicatePriority(RulesError):
    def __init__(self, priority: int):
        super().__init__(f"duplicate rule priority: {priority}")
        self.priority = priority


class UnknownField(RulesError):
    def __init__(self, name: str):
        super().__init__(f"unknown rule field: {name!r}")
        self.name = name


@dataclass(frozen=True)
class Condition:
    field: str
    op: str
    value: float
    hi: float | None = None  # upper bound for 'between'

    def holds(self, value):
        """Whether the condition holds for a float, or elementwise for a float
        array. A missing value (NaN) fails every condition."""
        if self.op == "between":
            return (self.value <= value) & (value <= self.hi)
        return _COMPARE[self.op](value, self.value)


@dataclass(frozen=True)
class Rule:
    name: str
    reason: str
    suggestion: str
    priority: int
    conditions: tuple[Condition, ...]


DEFAULT_RULE = Rule(
    name="No Disease",
    reason="Water quality in the comfortable range",
    suggestion="Comfortable",
    priority=-1,
    conditions=(),
)


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]  # sorted by descending priority; a list is stored as a tuple
    default_rule: Rule = DEFAULT_RULE

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))


@dataclass
class Diagnosis:
    disease: str
    reason: str
    suggestion: str
    matched_rule_priority: int
    inputs_echo: dict[str, float | None]


def _parse_rule(tokens: list[str], line_no: int) -> Rule:
    def take(expect: str | None = None) -> str:
        if not tokens:
            raise RuleSyntaxError(line_no, f"unexpected end of rule (wanted {expect or 'token'})")
        tok = tokens.pop(0)
        if expect is not None and tok != expect:
            raise RuleSyntaxError(line_no, f"expected {expect!r}, got {tok!r}")
        return tok

    def take_number(what: str) -> float:
        tok = take(None)
        try:
            value = float(tok)
        except ValueError:
            value = math.nan
        if math.isnan(value):  # NaN never compares true, so the rule could never fire
            raise RuleSyntaxError(line_no, f"{what} must be a number, got {tok!r}")
        return value

    take("rule")
    priority_tok = take(None)
    try:
        priority = int(priority_tok)
    except ValueError:
        raise RuleSyntaxError(line_no, f"priority must be an integer, got {priority_tok!r}") from None
    if priority < 0:
        raise RuleSyntaxError(line_no, "priority must be >= 0")
    name = take(None)
    take("reason")
    reason = take(None)
    take("suggest")
    suggestion = take(None)
    take("when")

    conditions: list[Condition] = []
    while True:
        fld = take(None)
        if fld not in FIELDS:
            raise UnknownField(fld)
        op = take(None)
        if op not in OPS:
            raise RuleSyntaxError(line_no, f"unknown operator {op!r}")
        if op == "between":
            lo = take_number("range low")
            hi = take_number("range high")
            if hi < lo:
                raise RuleSyntaxError(line_no, f"empty range: between {lo} {hi}")
            conditions.append(Condition(fld, op, lo, hi))
        else:
            conditions.append(Condition(fld, op, take_number("threshold")))
        if not tokens:
            break
        take("and")
    return Rule(name=name, reason=reason, suggestion=suggestion, priority=priority, conditions=tuple(conditions))


def load_rules(text: str) -> RuleSet:
    """Parse rules text into a validated RuleSet (priorities must be unique;
    a line holding a NUL character is a syntax error). One leading byte-order
    mark is ignored."""
    rules: list[Rule] = []
    seen: set[int] = set()
    for line_no, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        if "\0" in raw:  # the csv writer of Python 3.10 refuses it in a diagnose cell
            raise RuleSyntaxError(line_no, "line holds a NUL character")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = shlex.split(line, posix=True)
        except ValueError as exc:
            raise RuleSyntaxError(line_no, str(exc)) from exc
        rule = _parse_rule(tokens, line_no)
        if rule.priority in seen:
            raise DuplicatePriority(rule.priority)
        seen.add(rule.priority)
        rules.append(rule)
    rules.sort(key=lambda r: -r.priority)
    return RuleSet(rules=rules)


@lru_cache(maxsize=1)
def default_ruleset() -> RuleSet:
    """The ruleset shipped with the package."""
    return load_rules(resources.files("aquagauge.data").joinpath(DEFAULT_RULES_RESOURCE).read_text("utf-8"))


def _field_columns(cols: WqiColumns) -> dict[str, np.ndarray]:
    return dict(zip(FIELDS, (cols.wqi, *cols.sub.T, *cols.inputs.T)))


def diagnose_columns(cols: WqiColumns, rs: RuleSet) -> np.ndarray:
    """Position in ``rs.rules`` of the first rule whose conditions all hold
    on each row; ``len(rs.rules)`` where the default applies.

    A NaN raw input is a missing one and fails every condition on it.
    """
    fields = _field_columns(cols)
    n = len(cols.wqi)
    matched = np.full(n, len(rs.rules), dtype=np.intp)
    for pos in range(len(rs.rules) - 1, -1, -1):  # a higher-priority match overwrites
        hit = np.ones(n, dtype=bool)
        for c in rs.rules[pos].conditions:
            hit &= c.holds(fields[c.field])
        matched[hit] = pos
    return matched


def diagnose(rec: WqiRecord, rs: RuleSet) -> Diagnosis:
    """First matching rule wins (descending priority); default otherwise.
    The echo holds the fields the matched rule reads."""
    raw = (None if rec.sample is None else getattr(rec.sample, name) for name in WQI_INPUTS)
    row = np.array([rec.wqi, *rec.sub.as_tuple(), *(math.nan if v is None else v for v in raw)],
                   dtype=np.float64)
    # diagnose_columns reads no weighted scores; the sub-index view stands in.
    cols = WqiColumns(inputs=row[None, 7:], sub=row[None, 1:7], weighted=row[None, 1:7], wqi=row[:1])
    pos = int(diagnose_columns(cols, rs)[0])
    if pos == len(rs.rules):
        rule, echo = rs.default_rule, {}
    else:
        rule = rs.rules[pos]
        values = dict(zip(FIELDS, row.tolist()))
        echo = {c.field: values[c.field] for c in rule.conditions}
    return Diagnosis(
        disease=rule.name,
        reason=rule.reason,
        suggestion=rule.suggestion,
        matched_rule_priority=rule.priority,
        inputs_echo=echo,
    )

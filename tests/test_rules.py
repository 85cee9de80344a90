import dataclasses
import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aquagauge.rules import (
    DEFAULT_RULES_RESOURCE,
    FIELDS,
    OPS,
    Condition,
    DuplicatePriority,
    Rule,
    RuleSet,
    RulesError,
    RuleSyntaxError,
    UnknownField,
    default_ruleset,
    diagnose_columns,
    load_rules,
)
from aquagauge.wqi import WqiColumns, score_columns
from conftest import mk_sample, wqi_inputs
from scoring_reference import Scored, loop_diagnose, loop_score_sample


def record(wqi_value, sample=None, sub=(100, 100, 100, 100, 100, 80)):
    """One row of columns built directly, the way archived report rows are
    replayed: the sample's raw inputs (mk_sample(tc=30.0) by default), the
    sub-indices and the WQI as given. diagnose_columns reads no weighted
    scores."""
    return WqiColumns(inputs=wqi_inputs(sample or mk_sample(tc=30.0)), sub=np.array([sub], dtype=np.int64),
                      weighted=np.zeros((1, 6)), wqi=np.array([wqi_value], dtype=np.float64))


def matched_rule(cols, rs):
    """The rule diagnose_columns matches on a one-row WqiColumns."""
    return (*rs.rules, rs.default_rule)[int(diagnose_columns(cols, rs)[0])]


# (wqi, expected disease, expected decision) from the archived report rows
REPORT_ROWS = [
    (63.253922, "No Production", "Minimize acidity by using soda lime"),
    (78.969041, "No Disease", "Comfortable"),
    (77.549000, "No Disease", "Comfortable"),
    (75.058490, "Slow Growth", "Protein Synthesis"),
    (50.570943, "White sturgeon", "Use Potassium"),
]


class TestLoadRules:
    def test_shipped_ruleset_parses(self):
        rs = default_ruleset()
        assert len(rs.rules) >= 8
        assert rs.default_rule.name == "No Disease"
        assert rs.default_rule.suggestion == "Comfortable"
        priorities = [r.priority for r in rs.rules]
        assert priorities == sorted(priorities, reverse=True)

    def test_empty_text_gives_default_only(self):
        rs = load_rules("# nothing here\n\n")
        assert rs.rules == ()
        assert rs.default_rule.name == "No Disease"

    def test_leading_byte_order_mark_ignored(self):
        """A UTF-8 editor may save the rule file with a byte-order mark; only
        the first one is dropped."""
        text = resources.files("aquagauge.data").joinpath(DEFAULT_RULES_RESOURCE).read_text("utf-8")
        assert load_rules("\ufeff" + text) == default_ruleset()
        with pytest.raises(RuleSyntaxError, match="line 1"):
            load_rules("\ufeff\ufeff" + text)

    def test_ruleset_is_frozen(self):
        rs = default_ruleset()
        with pytest.raises(AttributeError):
            rs.rules.append(rs.default_rule)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rs.default_rule = rs.rules[0]

    def test_unknown_field(self):
        with pytest.raises(UnknownField):
            load_rules('rule 1 "X" reason "r" suggest "s" when salinity > 3')

    def test_duplicate_priority(self):
        text = (
            'rule 5 "A" reason "r" suggest "s" when wqi < 10\n'
            'rule 5 "B" reason "r" suggest "s" when wqi > 90\n'
        )
        with pytest.raises(DuplicatePriority):
            load_rules(text)

    def test_syntax_error_carries_line(self):
        with pytest.raises(RuleSyntaxError) as err:
            load_rules('# fine\nrule "missing priority" reason "r" suggest "s" when wqi < 1')
        assert err.value.line == 2

    @pytest.mark.parametrize("line", [
        'rule 1 "X\0" reason "r" suggest "s" when wqi < 1',
        'rule 1 "X" reason "r" suggest "s\0" when wqi < 1',
        '# a comment\0',
    ], ids=["name", "suggestion", "comment"])
    def test_nul_rejected(self, line):
        """The csv writer of Python 3.10 cannot write a NUL into a diagnose
        cell, so no rule line holds one."""
        with pytest.raises(RuleSyntaxError) as err:
            load_rules(f'# x\n{line}')
        assert err.value.line == 2

    def test_between_inclusive(self):
        rs = load_rules('rule 1 "X" reason "r" suggest "s" when wqi between 10 20')
        cond = rs.rules[0].conditions[0]
        assert cond.holds(10.0) and cond.holds(20.0) and cond.holds(15.0)
        assert not cond.holds(9.999) and not cond.holds(20.001)

    def test_negative_priority_rejected(self):
        """Negative priorities are the default rule's; a file cannot take one."""
        with pytest.raises(RuleSyntaxError, match="priority must be >= 0"):
            load_rules('rule -1 "X" reason "r" suggest "s" when wqi < 1')

    def test_empty_range_rejected(self):
        """between with its bounds reversed could never hold."""
        with pytest.raises(RuleSyntaxError, match=r"empty range: between 5\.0 3\.0"):
            load_rules('rule 1 "X" reason "r" suggest "s" when wqi between 5 3')

    def test_bad_operator(self):
        with pytest.raises(RuleSyntaxError):
            load_rules('rule 1 "X" reason "r" suggest "s" when wqi == 4')

    def test_conjunction_parses(self):
        rs = load_rules('rule 3 "X" reason "r" suggest "s" when ph < 7 and nph <= 0 and tc > 5')
        assert len(rs.rules[0].conditions) == 3

    @pytest.mark.parametrize("condition", [
        "ph < nan", "ph >= NaN", "wqi > -nan", "ph between nan 3", "ph between 3 nan",
        "tc between nan nan",
    ])
    def test_nan_threshold_rejected(self, condition):
        with pytest.raises(RuleSyntaxError) as err:
            load_rules(f'# x\nrule 1 "X" reason "r" suggest "s" when {condition}')
        assert err.value.line == 2

    def test_infinite_thresholds_keep_their_meaning(self):
        rs = load_rules('rule 2 "X" reason "r" suggest "s" when tc between 1000 inf\n'
                        'rule 1 "Y" reason "r" suggest "s" when ph > -inf')
        between, above = rs.rules[0].conditions[0], rs.rules[1].conditions[0]
        assert between.holds(1e300) and not between.holds(999.0)
        assert above.holds(-1e300) and not above.holds(math.nan)


_NON_FINITE_TOKENS = ["nan", "-nan", "NaN", "inf", "-inf", "1e999"]
_RULE_FUZZ_TOKENS = ["0", "-1", "3", "1e308", "", "x", '"', "rule", "when", "and", "between",
                     "<", ">=", "wqi", "tc", "#"]


@st.composite
def rule_file_mutations(draw):
    """The shipped rule file with one rule line changed: a space-separated
    token swapped (half the time one after "when", and half the time for a
    non-finite number), the whole line replaced, or the line deleted or
    doubled."""
    text = resources.files("aquagauge.data").joinpath(DEFAULT_RULES_RESOURCE).read_text("utf-8")
    lines = text.splitlines()
    i = draw(st.sampled_from([k for k, line in enumerate(lines) if line.startswith("rule ")]))
    how = draw(st.sampled_from(["token", "token", "replace", "delete", "double"]))
    if how == "token":
        parts = re.split(r"( )", lines[i])  # odd entries are the separators
        first = draw(st.sampled_from([0, parts.index("when") // 2]))
        j = 2 * draw(st.integers(first, len(parts) // 2))
        tokens = st.one_of(st.sampled_from(_NON_FINITE_TOKENS), st.sampled_from(_RULE_FUZZ_TOKENS))
        parts[j] = draw(tokens)
        lines[i] = "".join(parts)
    elif how == "replace":
        lines[i] = draw(st.text(max_size=30))
    elif how == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(rule_file_mutations())
def test_one_line_mutation_loads_valid_or_raises(text):
    try:
        rs = load_rules(text)
    except RulesError:
        return
    for rule in rs.rules:
        for c in rule.conditions:
            assert not math.isnan(c.value)
            if c.op == "between":
                assert not math.isnan(c.hi) and c.value <= c.hi


class TestDiagnose:
    @pytest.mark.parametrize("wqi_value,disease,decision", REPORT_ROWS)
    def test_report_rows_reproduced(self, wqi_value, disease, decision):
        rule = matched_rule(record(wqi_value), default_ruleset())
        assert rule.name.lower() == disease.lower()
        assert rule.suggestion == decision

    def test_comfortable_record(self):
        rule = matched_rule(record(78.97), default_ruleset())
        assert (rule.name, rule.suggestion) == ("No Disease", "Comfortable")

    def test_acid_death_from_low_ph(self):
        cols = score_columns(wqi_inputs(mk_sample(ph=5.0)))
        assert cols.sub[0, 0] == 0
        rule = matched_rule(cols, default_ruleset())
        assert rule.name == "Acid Death"
        assert rule.suggestion == "Use chemical to increase Basic Compound"

    def test_alkaline_death_from_high_ph(self):
        cols = score_columns(wqi_inputs(mk_sample(ph=9.8)))
        assert matched_rule(cols, default_ruleset()).name == "Alkaline Death"

    def test_priority_dominance(self):
        rs = RuleSet(
            rules=sorted(
                [
                    Rule("low", "r", "s-low", 1, (Condition("wqi", "<", 50.0),)),
                    Rule("high", "r", "s-high", 9, (Condition("wqi", "<", 80.0),)),
                ],
                key=lambda r: -r.priority,
            )
        )
        rule = matched_rule(record(40.0), rs)
        assert rule.name == "high"
        assert rule.priority == 9

    def test_condition_on_missing_raw_field_never_matches(self):
        rec = record(10.0, sample=mk_sample(tc=None))
        rs = load_rules('rule 1 "X" reason "r" suggest "s" when tc > 0')
        assert matched_rule(rec, rs).name == "No Disease"

    @given(
        st.floats(0.0, 99.8),
        st.tuples(*[st.sampled_from([0, 40, 60, 80, 100]) for _ in range(6)]),
    )
    def test_total_and_deterministic(self, wqi_value, sub_scores):
        rec = record(wqi_value, sub=sub_scores)
        first = matched_rule(rec, default_ruleset())
        second = matched_rule(rec, default_ruleset())
        assert first == second
        assert first.name
        assert first.suggestion


# Values shared by records and rule thresholds, so comparisons often tie.
_POOL = [0.0, 3.0, 7.0, 40.0, 55.0, 60.0, 72.0, 80.0, 100.0, 300.0, 1000.0, 3000.0]
_VALUE = st.one_of(st.sampled_from(_POOL), st.floats(-10.0, 4000.0))
_SUB = st.sampled_from([0, 40, 60, 80, 100])


@st.composite
def _rules_text(draw):
    priorities = draw(st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
    lines = []
    for p in priorities:
        conditions = []
        for _ in range(draw(st.integers(1, 3))):
            field, op = draw(st.sampled_from(FIELDS)), draw(st.sampled_from(OPS))
            if op == "between":
                lo, hi = sorted((draw(_VALUE), draw(_VALUE)))
                conditions.append(f"{field} between {lo!r} {hi!r}")
            else:
                conditions.append(f"{field} {op} {draw(_VALUE)!r}")
        lines.append(f'rule {p} "D{p}" reason "r" suggest "s{p}" when ' + " and ".join(conditions))
    return "\n".join(lines)


def _record_row(sub, raw, wqi_value):
    """The same row as the oracle's one-sample record; a NaN raw input is a
    missing one."""
    ph, do, bod, ec, na, tc = (None if math.isnan(v) else v for v in raw)
    sample = mk_sample(ph=ph, do=do, bod=bod, ec=ec, na=na, tc=tc)
    return Scored(sample=sample, sub=sub, weighted=(0.0,) * 6, wqi=wqi_value)


def _matched_priorities(rs, matched):
    outcomes = [*rs.rules, rs.default_rule]
    return [outcomes[pos].priority for pos in matched.tolist()]


class TestDiagnoseColumns:
    """Against the frozen scalar matcher, ``loop_diagnose``."""

    @given(st.lists(st.tuples(*[st.floats(0.0, 5000.0)] * 6), max_size=40),
           st.sampled_from(["normative", "legacy_nco"]))
    def test_default_ruleset_matches_diagnose(self, rows, mode):
        cols = score_columns(np.array(rows, dtype=np.float64).reshape(len(rows), 6), mode)
        rs = default_ruleset()
        want = [
            loop_diagnose(loop_score_sample(mk_sample(ph=r[0], do=r[1], bod=r[2], ec=r[3], na=r[4], tc=r[5]),
                                            mode), rs).priority
            for r in rows
        ]
        assert _matched_priorities(rs, diagnose_columns(cols, rs)) == want

    @given(
        _rules_text(),
        st.lists(
            st.tuples(
                st.tuples(*[_SUB] * 6),
                st.tuples(*[st.one_of(st.just(math.nan), _VALUE)] * 6),  # NaN: raw input missing
                _VALUE,
            ),
            max_size=30,
        ),
    )
    def test_random_rules_match_diagnose(self, text, rows):
        rs = load_rules(text)
        n = len(rows)
        cols = WqiColumns(
            inputs=np.array([raw for _, raw, _ in rows], dtype=np.float64).reshape(n, 6),
            sub=np.array([sub for sub, _, _ in rows], dtype=np.int64).reshape(n, 6),
            weighted=np.zeros((n, 6)),
            wqi=np.array([w for _, _, w in rows], dtype=np.float64),
        )
        want = [loop_diagnose(_record_row(*row), rs).priority for row in rows]
        assert _matched_priorities(rs, diagnose_columns(cols, rs)) == want

    def test_condition_holds_on_arrays(self):
        values = np.array([np.nan, 9.0, 10.0, 15.0, 20.0, 21.0])
        assert Condition("wqi", "between", 10.0, 20.0).holds(values).tolist() == [
            False, False, True, True, True, False]
        assert Condition("wqi", "<", 10.0).holds(values).tolist() == [False, True] + [False] * 4
        assert not Condition("tc", ">=", 0.0).holds(math.nan)


_RAW = st.one_of(st.none(), st.just(math.nan), _VALUE)


class TestDiagnoseMatchesReference:
    """A one-row call of diagnose_columns against the frozen scalar matcher:
    the same rule, on the shipped ruleset too, for a record with no sample
    and for a NaN WQI."""

    @given(
        st.one_of(_rules_text(), st.just(None)),  # None: the shipped ruleset
        st.one_of(st.none(), st.tuples(*[_RAW] * 6)),  # None: a record with no sample
        st.tuples(*[_SUB] * 6),
        st.one_of(st.just(math.nan), _VALUE),
    )
    @example('rule 1 "X" reason "r" suggest "s" when wqi < 50 and tc > 0', None, (100,) * 6, 10.0)
    @example('rule 2 "X" reason "r" suggest "s" when wqi < 50\n'
             'rule 1 "Y" reason "r" suggest "s" when nco >= 80 and tc > 0',
             (7.5, 6.7, 1.3, 203.0, 0.1, 30.0), (100, 100, 100, 100, 100, 80), math.nan)
    def test_same_diagnosis(self, text, raw, sub, wqi_value):
        rs = default_ruleset() if text is None else load_rules(text)
        sample = None if raw is None else mk_sample(ph=raw[0], do=raw[1], bod=raw[2], ec=raw[3], na=raw[4],
                                                     tc=raw[5])
        cols = WqiColumns(inputs=np.full((1, 6), np.nan) if sample is None else wqi_inputs(sample),
                          sub=np.array([sub], dtype=np.int64), weighted=np.zeros((1, 6)),
                          wqi=np.array([wqi_value], dtype=np.float64))
        rule = matched_rule(cols, rs)
        want = loop_diagnose(Scored(sample=sample, sub=sub, weighted=(0.0,) * 6, wqi=wqi_value), rs)
        assert (rule.name, rule.reason, rule.suggestion, rule.priority) == (
            want.disease, want.reason, want.suggestion, want.priority)

"""Behavioural tests for simple fluents: inertia, negation, exclusivity."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import Literal, Rule, parse_term
from repro.logic.terms import Compound, Constant, Variable
from repro.rtec import Event, EventDescription, EventStream, RTECEngine, simple
from repro.rtec.compile import compile_rule
from repro.rtec.errors import EvaluationError
from repro.rtec.reference import ReferenceEvaluator
from repro.rtec.store import FluentStore


def _stream(*events):
    return EventStream([Event(t, parse_term(text)) for t, text in events])


def _run(rules, events, kb_text="", **kwargs):
    engine = RTECEngine(
        EventDescription.from_text(rules),
        KnowledgeBase.from_text(kb_text) if kb_text else None,
        strict=False,
    )
    return engine.recognise(_stream(*events), **kwargs)


BASIC = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
"""


class TestInertia:
    def test_holds_between_initiation_and_termination(self):
        result = _run(BASIC, [(3, "start(v1)"), (9, "stop(v1)")])
        assert result.holds_for("f(v1)=true").as_pairs() == [(4, 9)]

    def test_persists_until_stream_end_without_termination(self):
        result = _run(BASIC, [(3, "start(v1)"), (20, "start(v2)")])
        assert result.holds_for("f(v1)=true").as_pairs() == [(4, 20)]

    def test_independent_instances(self):
        result = _run(
            BASIC,
            [(1, "start(v1)"), (2, "start(v2)"), (5, "stop(v1)"), (9, "stop(v2)")],
        )
        assert result.holds_for("f(v1)=true").as_pairs() == [(2, 5)]
        assert result.holds_for("f(v2)=true").as_pairs() == [(3, 9)]

    def test_repeated_initiations_ignored(self):
        result = _run(BASIC, [(1, "start(v1)"), (3, "start(v1)"), (7, "stop(v1)")])
        assert result.holds_for("f(v1)=true").as_pairs() == [(2, 7)]

    def test_termination_without_initiation_is_noop(self):
        result = _run(BASIC, [(5, "stop(v1)")])
        assert not result.holds_for("f(v1)=true")


class TestBodyConditions:
    def test_second_happens_at_same_timepoint(self):
        rules = """
        initiatedAt(f(V)=true, T) :-
            happensAt(start(V), T),
            happensAt(confirm(V), T).
        """
        result = _run(
            rules,
            [(3, "start(v1)"), (5, "start(v2)"), (5, "confirm(v2)"), (9, "noise(x)")],
        )
        assert not result.holds_for("f(v1)=true")
        assert result.holds_for("f(v2)=true")

    def test_negated_happens_at(self):
        rules = """
        initiatedAt(f(V)=true, T) :-
            happensAt(start(V), T),
            not happensAt(veto(V), T).
        """
        result = _run(
            rules,
            [(3, "start(v1)"), (3, "veto(v1)"), (8, "start(v2)"), (12, "noise(x)")],
        )
        assert not result.holds_for("f(v1)=true")
        assert result.holds_for("f(v2)=true").as_pairs() == [(9, 12)]

    def test_holds_at_condition_uses_lower_fluent(self):
        rules = BASIC + """
        initiatedAt(g(V)=true, T) :-
            happensAt(ping(V), T),
            holdsAt(f(V)=true, T).
        terminatedAt(g(V)=true, T) :- happensAt(stop(V), T).
        """
        result = _run(
            rules,
            [(1, "ping(v1)"), (3, "start(v1)"), (6, "ping(v1)"), (10, "stop(v1)")],
        )
        # Only the ping at 6 falls inside f's interval (3, ...].
        assert result.holds_for("g(v1)=true").as_pairs() == [(7, 10)]

    def test_negated_holds_at(self):
        rules = BASIC + """
        initiatedAt(g(V)=true, T) :-
            happensAt(ping(V), T),
            not holdsAt(f(V)=true, T).
        """
        result = _run(rules, [(2, "start(v1)"), (6, "ping(v1)"), (9, "noise(x)")])
        assert not result.holds_for("g(v1)=true")
        result = _run(rules, [(6, "ping(v1)"), (9, "noise(x)")])
        assert result.holds_for("g(v1)=true").as_pairs() == [(7, 9)]

    def test_background_and_comparison(self):
        rules = """
        initiatedAt(fast(V)=true, T) :-
            happensAt(velocity(V, Speed), T),
            thresholds(maxSpeed, Max),
            Speed > Max.
        terminatedAt(fast(V)=true, T) :-
            happensAt(velocity(V, Speed), T),
            thresholds(maxSpeed, Max),
            Speed =< Max.
        """
        result = _run(
            rules,
            [(1, "velocity(v1, 10)"), (5, "velocity(v1, 20)"), (9, "velocity(v1, 3)")],
            kb_text="thresholds(maxSpeed, 15).",
        )
        assert result.holds_for("fast(v1)=true").as_pairs() == [(6, 9)]

    def test_negated_background(self):
        rules = """
        initiatedAt(f(V)=true, T) :-
            happensAt(start(V), T),
            not special(V).
        """
        result = _run(
            rules,
            [(1, "start(v1)"), (1, "start(v2)"), (5, "noise(x)")],
            kb_text="special(v1).",
        )
        assert not result.holds_for("f(v1)=true")
        assert result.holds_for("f(v2)=true")


class TestValueExclusivity:
    RULES = """
    initiatedAt(speed(V)=low, T) :- happensAt(slow(V), T).
    initiatedAt(speed(V)=high, T) :- happensAt(fast(V), T).
    """

    def test_initiating_other_value_terminates(self):
        result = _run(self.RULES, [(1, "slow(v1)"), (5, "fast(v1)"), (9, "slow(v1)")])
        # low is cut at 5 by the initiation of high; the re-initiation of
        # low at the stream end (query time 9) has no visible points yet.
        assert result.holds_for("speed(v1)=low").as_pairs() == [(2, 5)]
        assert result.holds_for("speed(v1)=high").as_pairs() == [(6, 9)]

    def test_values_never_overlap(self):
        result = _run(self.RULES, [(1, "slow(v1)"), (5, "fast(v1)")])
        low = result.holds_for("speed(v1)=low")
        high = result.holds_for("speed(v1)=high")
        assert not set(low.points()) & set(high.points())


class TestUniversalTermination:
    RULES = """
    initiatedAt(within(V, A)=true, T) :- happensAt(enter(V, A), T).
    terminatedAt(within(V, A)=true, T) :- happensAt(gap(V), T).
    """

    def test_non_ground_termination_hits_all_instances(self):
        result = _run(
            self.RULES,
            [(1, "enter(v1, a1)"), (2, "enter(v1, a2)"), (6, "gap(v1)")],
        )
        assert result.holds_for("within(v1, a1)=true").as_pairs() == [(2, 6)]
        assert result.holds_for("within(v1, a2)=true").as_pairs() == [(3, 6)]

    def test_other_vessels_unaffected(self):
        result = _run(
            self.RULES,
            [(1, "enter(v1, a1)"), (1, "enter(v2, a1)"), (6, "gap(v1)")],
        )
        assert result.holds_for("within(v1, a1)=true").as_pairs() == [(2, 6)]
        assert result.holds_for("within(v2, a1)=true").as_pairs() == [(2, 6)]


# -- compiled programs ≡ reference oracle; vectorised seed filter ≡ chain ------

_BIG = 2**53 + 1
_VARS = {name: Variable(name) for name in ("V", "A", "B", "T", "X")}
_SEED = Literal(
    Compound("happensAt", (Compound("ev", (_VARS["V"], _VARS["A"], _VARS["B"])), _VARS["T"]))
)
#: Two facts match ``thr(k, X)``, so the hoisted prefix has two solutions
#: and firings of one event interleave across them.
_KB = KnowledgeBase.from_text("thr(k, 3). thr(k, 7.5). thr(other, 100).")
_HEAD = parse_term("initiatedAt(f(V)=true, T)")

_numbers = st.one_of(
    st.integers(-10, 10),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.5, 3.0, 7.5, _BIG, -_BIG, 2**53, 2**63, float("inf"), float("nan")]),
)
#: Mostly numbers, now and then an atom: a non-numeric column must send the
#: rule to the per-event loop, which then raises on the comparison.
_arguments = st.one_of(_numbers, _numbers, _numbers, st.just("odd")).map(Constant)
_sides = st.one_of(
    st.sampled_from([_VARS[name] for name in ("A", "B", "T", "X", "A", "B", "V")]),
    st.one_of(st.integers(-10, 10), st.sampled_from([2.5, 7.5, _BIG, float("inf")])).map(Constant),
)
_comparisons = st.builds(
    lambda op, left, right, negated: Literal(Compound(op, (left, right)), negated),
    st.sampled_from(["<", ">", "=<", ">=", "=:=", "=\\="]),
    _sides,
    _sides,
    st.booleans(),
)
_threshold_rules = st.lists(_comparisons, min_size=1, max_size=3).map(
    lambda body: Rule(_HEAD, (_SEED, Literal(parse_term("thr(k, X)"))) + tuple(body))
)
_value_streams = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 40), st.sampled_from([_BIG, 2**63])),
        st.sampled_from(["v1", "v2"]),
        _arguments,
        _arguments,
    ),
    max_size=12,
).map(
    lambda items: EventStream(
        Event(time, Compound("ev", (Constant(vessel), a, b))) for time, vessel, a, b in items
    )
)


def _firings(rule, stream, start, end):
    """The rule's firing points as a list, or the exception type it raised."""
    points = []
    try:
        simple._fire(compile_rule(rule), stream, _KB, FluentStore(), start, end, True, points)
    except Exception as error:  # noqa: BLE001 - the type is what is compared
        return points, type(error)
    return points, None


def _ev(time, a, b):
    return Event(time, Compound("ev", (Constant("v1"), Constant(a), Constant(b))))


class TestVectorFilterMatchesPerEventLoop:
    @settings(deadline=None, max_examples=300)
    @given(_threshold_rules, _value_streams, st.integers(-1, 20), st.integers(10, 45))
    # nan and inf: |a - b| > eps is not ``not math.isclose(a, b)``.
    @example(
        Rule(_HEAD, (_SEED, Literal(Compound("=\\=", (_VARS["A"], _VARS["B"]))))),
        EventStream([_ev(5, float("nan"), 1.0), _ev(6, float("inf"), float("inf"))]),
        0,
        10,
    )
    # An occurrence time no int64/float64 column holds.
    @example(
        Rule(_HEAD, (_SEED, Literal(Compound("<", (_VARS["A"], _VARS["T"]))))),
        EventStream([_ev(5, 1, 1), _ev(2**63, 1, 1)]),
        0,
        10,
    )
    def test_same_pairs_same_order_same_error(self, rule, stream, start, end):
        with telemetry.enabled() as tracer:
            vectorised = _firings(rule, stream, start, end)
        counters = tracer.counters
        assert counters.get("kernel.rule_filter.columnar", 0) + counters.get(
            "kernel.rule_filter.fallback", 0
        ) == 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simple, "_vector_candidates", lambda *args: None)
            per_event = _firings(rule, stream, start, end)
        assert vectorised == per_event


# Random event descriptions over every condition kind. ``{V}``, ``{A}``, ``{B}``
# stand for what the seed binds: a seed with a repeated variable or a constant
# substitutes it in the rest of the rule, so every rule stays well-moded.
_SEEDS = (
    ("happensAt(ev(V, A, B), T)", {}),
    ("happensAt(ev(V, A, A), T)", {"B": "A"}),  # repeated variable
    ("happensAt(ev(V, 3, B), T)", {"A": "3"}),  # constant argument
    ("happensAt(ev(v1, A, B), T)", {"V": "v1"}),  # constant entity
)
_CONDITIONS = (
    "limit({V}, L), {A} > L",  # KB lookup, first argument bound
    "kind(K, {V})",  # KB lookup, first argument unbound
    "not blocked({V})",  # negated KB
    "thr(k, X), {B} < X",  # hoisted prefix with two solutions
    "angleDiff({A}, {B}) > 2",
    "div({A}, 2) < {B}",
    "{A} =< {B}",
    "holdsAt(base({V})=true, T)",  # ground holdsAt
    "not holdsAt(base({V})=true, T)",
    "holdsAt(base(W)=true, T)",  # enumerating holdsAt
    "holdsAt(tag({V}, K2)=true, T)",
    "happensAt(mark({V}), T)",  # body happensAt, entity bound
    "happensAt(mark(W2), T)",
    "not happensAt(veto({V}), T)",
)
_FIXED_RULES = """
initiatedAt(base(V)=true, T) :- happensAt(mark(V), T).
terminatedAt(base(V)=true, T) :- happensAt(clear(V), T).
initiatedAt(tag(V, K)=true, T) :- happensAt(mark(V), T), kind(K, V).
terminatedAt(tag(V, K)=true, T) :- happensAt(veto(V), T).
terminatedAt(f(V)=true, T) :- happensAt(clear(V), T).
terminatedAt(mode(V)=low, T) :- happensAt(clear(V), T).
"""
_ORACLE_KB = KnowledgeBase.from_text(
    "limit(v1, 3). limit(v2, 7.5). kind(fast, v1). kind(slow, v1). kind(slow, v2)."
    " blocked(v2). thr(k, 3). thr(k, 7.5)."
)


@st.composite
def _simple_rules(draw, head):
    seed, bound = draw(st.sampled_from(_SEEDS))
    names = {"V": "V", "A": "A", "B": "B"}
    names.update(bound)
    body = draw(st.lists(st.sampled_from(_CONDITIONS), max_size=3, unique=True))
    return "initiatedAt(%s, T) :- %s." % (
        head.format(**names),
        ", ".join([seed] + [condition.format(**names) for condition in body]),
    )


_SAME_SHAPE = ("f(V)=true", "base(V)=true", "mode(V)=low", "mode(V)=high")


@st.composite
def _static_rules(draw, index):
    """One ``holdsFor`` rule the seed pass and the oracle ground alike: a union
    only over one schema shape, otherwise the widest shape as the base."""
    operands = draw(st.lists(st.sampled_from(_SAME_SHAPE), min_size=1, max_size=3, unique=True))
    construct = draw(st.sampled_from(["union_all", "intersect_all", "relative_complement_all"]))
    head = "s%d(V)=true" % index
    if draw(st.booleans()) and construct != "union_all":
        operands.insert(0 if construct != "intersect_all" else draw(st.integers(0, len(operands))),
                        "tag(V, K)=true")
        head = "s%d(V, K)=true" % index
    body = ["holdsFor(%s, I%d)" % (pair, n) for n, pair in enumerate(operands)]
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), "kind(slow, V)")
    intervals = ["I%d" % n for n in range(len(operands))]
    if construct == "relative_complement_all":
        body.append("relative_complement_all(I0, [%s], I)" % ", ".join(intervals[1:] or ["I0"]))
    else:
        body.append("%s([%s], I)" % (construct, ", ".join(intervals)))
    return "holdsFor(%s, I) :- %s." % (head, ", ".join(body))


_descriptions = st.tuples(
    st.lists(_simple_rules("f({V})=true"), min_size=1, max_size=2),
    st.lists(_simple_rules("mode({V})=low"), max_size=1),
    st.lists(_simple_rules("mode({V})=high"), max_size=1),
    st.tuples(_static_rules(1), _static_rules(2)),
).map(lambda parts: _FIXED_RULES + "\n".join(rule for part in parts for rule in part))

_oracle_streams = st.lists(
    st.one_of(
        st.tuples(
            st.integers(1, 14),
            st.just("ev"),
            st.sampled_from(["v1", "v2"]),
            st.sampled_from([0, 1, 3, 4, 2.5, 7.5, 9, 12]),
            st.sampled_from([0, 1, 3, 4, 2.5, 7.5, 9, 12]),
        ),
        st.tuples(
            st.integers(1, 14),
            st.sampled_from(["mark", "mark", "veto", "clear"]),
            st.sampled_from(["v1", "v2"]),
        ),
    ),
    min_size=10,
    max_size=28,
).map(
    lambda items: EventStream(
        # The oracle grounds fluent arguments over the atoms events mention.
        [Event(0, parse_term("note(fast, slow)"))]
        + [Event(item[0], parse_term("%s(%s)" % (item[1], ", ".join(map(str, item[2:]))))) for item in items]
    )
)


class TestCompiledProgramsMatchReference:
    """Every condition kind, compiled, against the point-by-point oracle."""

    @settings(deadline=None, max_examples=120)
    @given(_descriptions, _oracle_streams, st.one_of(st.none(), st.integers(3, 20)))
    def test_random_descriptions_point_by_point(self, rules, stream, window):
        description = EventDescription.from_text(rules)
        result = RTECEngine(description, _ORACLE_KB, strict=False).recognise(stream, window=window)
        oracle = ReferenceEvaluator(description, _ORACLE_KB, stream)
        pairs = {pair for pair, _intervals in result.items()}
        for key in description.defined_keys:
            pairs |= oracle.ground_instances(*key)
        for pair in sorted(pairs, key=repr):
            expected = oracle.holding_points(pair, 0, stream.max_time)
            actual = {t for t in result.holds_for(pair).points() if 0 <= t <= stream.max_time}
            assert actual == expected, "%r under\n%s" % (pair, rules)


_ERROR_BASE = """
initiatedAt(f(V)=true, T) :- happensAt(go(V), T).
initiatedAt(base(V)=true, T) :- happensAt(mark(V), T).
"""
_GO = [(1, "go(v1)"), (5, "go(v2)")]


class TestErrorParity:
    """The interpreter's errors, raised by the programs at the same point: same
    type, text and context, and the firings made before them kept."""

    CASES = [
        (
            "initiatedAt(g(V)=true, T) :- happensAt(ev(V, A, B), T), A > 3.",
            [(1, "ev(v1, 5, 0)"), (2, "ev(v2, odd, 0)"), (3, "ev(v1, 6, 0)")],
            "non-numeric constant 'odd' in arithmetic expression",
            ">(A, 3)",
        ),
        (
            "initiatedAt(g(V)=true, T) :- happensAt(ev(V, A, B), T), div(A, B) > 1.",
            [(1, "ev(v1, 5, 1)"), (2, "ev(v2, 5, 0)"), (3, "ev(v1, 6, 1)")],
            "division by zero in arithmetic expression",
            ">(div(A, B), 1)",
        ),
        (
            _ERROR_BASE
            + "holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), union_all([I1, I9], I).",
            _GO,
            "unbound interval variable 'I9'",
            "union_all(list(I1, I9), I)",
        ),
        (
            _ERROR_BASE
            + "holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), holdsFor(base(V)=true, I1),"
            " union_all([I1], I).",
            _GO,
            "interval variable 'I1' bound more than once",
            "holdsFor(=(base(V), true), I1)",
        ),
        (
            _ERROR_BASE
            + "holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), not kind(fast, V),"
            " union_all([I1], I).",
            _GO,
            "negation is not allowed in holdsFor bodies: kind(fast, V)",
            "kind(fast, V)",
        ),
    ]

    @pytest.mark.parametrize("rules, events, reason, condition", CASES)
    def test_same_error_same_context(self, rules, events, reason, condition):
        description = EventDescription.from_text(rules)
        with pytest.raises(EvaluationError) as raised:
            RTECEngine(description, strict=False).recognise(_stream(*events))
        error = raised.value
        assert error.reason == reason
        assert repr(error.condition) == condition
        assert error.rule_head.args[0] == parse_term("g(V)=true")
        assert str(error) == "%s [condition %s] [rule %r]" % (reason, condition, error.rule_head)

    @pytest.mark.parametrize("rules, events, reason, condition", CASES)
    def test_skip_errors_keeps_the_firings_before_the_error(self, rules, events, reason, condition):
        description = EventDescription.from_text(rules)
        engine = RTECEngine(description, strict=False, skip_errors=True)
        result = engine.recognise(_stream(*events))
        assert engine.runtime_warnings == [
            "skipped rule %r: %s [condition %s]" % (description.rules[-1].head, reason, condition)
        ]
        if "ev(" in rules:
            # v1's event at 1 fired before v2's raised at 2; the one at 3 is lost.
            assert result.holds_for("g(v1)=true").as_pairs() == [(2, 3)]
        else:
            assert not result.holds_for("g(v1)=true")
            assert result.holds_for("f(v1)=true").as_pairs() == [(2, 5)]

    def test_a_comparison_over_an_unbound_variable_is_rejected_when_the_rule_is_met(self):
        rules = "initiatedAt(g(V)=true, T) :- happensAt(ev(V, A, B), T), A > Z."
        engine = RTECEngine(EventDescription.from_text(rules), strict=False)  # compiles lazily
        with pytest.raises(EvaluationError, match="unbound variable 'Z' reaches comparison"):
            engine.recognise(_stream((1, "ev(v1, 5, 1)")))

"""Differential testing: the optimised engine vs the naive reference oracle.

The oracle (:mod:`repro.rtec.reference`) evaluates ``holdsAt`` point by
point straight from the Event Calculus definition — no intervals, pairing,
windows or caching. On randomly generated streams over a rule set
exercising every language feature, the engine must agree with it at every
time-point, for every candidate ground FVP, in both single-window and
sliding-window mode. Between them the rules reach every kind of statement
the rule compiler generates; a second property runs each rule's traced and
untraced program side by side.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_term
from repro.rtec import Event, EventDescription, EventStream, RTECEngine
from repro.rtec.compile import compile_rule
from repro.rtec.reference import ReferenceEvaluator
from repro.rtec.simple import _fire
from repro.rtec.static import StaticProgram
from repro.rtec.store import FluentStore

RULES = """
initiatedAt(speed(V)=low, T) :- happensAt(slow(V), T).
initiatedAt(speed(V)=high, T) :- happensAt(fast(V), T), not happensAt(veto(V), T).
terminatedAt(speed(V)=low, T) :- happensAt(halt(V), T).
terminatedAt(speed(V)=high, T) :- happensAt(halt(V), T).

initiatedAt(inside(V)=true, T) :- happensAt(enter(V), T).
terminatedAt(inside(V)=true, T) :- happensAt(leave(V), T).

initiatedAt(observed(V)=true, T) :-
    happensAt(ping(V), T),
    holdsAt(inside(V)=true, T),
    watched(V).
terminatedAt(observed(V)=true, T) :- happensAt(leave(V), T).

initiatedAt(burst(V)=true, T) :- happensAt(fast(V), T).
maxDuration(burst(V)=true, 7).

initially(inside(v1)=true).

holdsFor(moving(V)=true, I) :-
    holdsFor(speed(V)=low, I1),
    holdsFor(speed(V)=high, I2),
    union_all([I1, I2], I).

holdsFor(activeInside(V)=true, I) :-
    holdsFor(moving(V)=true, Im),
    holdsFor(inside(V)=true, Ii),
    intersect_all([Im, Ii], I).

holdsFor(strayMotion(V)=true, I) :-
    holdsFor(moving(V)=true, Im),
    holdsFor(inside(V)=true, Ii),
    holdsFor(observed(V)=true, Io),
    relative_complement_all(Im, [Ii, Io], I).

% A background enumeration with a bound first argument.
initiatedAt(near(V, W)=true, T) :- happensAt(ping(V), T), buddy(V, W).
terminatedAt(near(V, W)=true, T) :- happensAt(leave(V), T).

% A comparison over arithmetic; =:=; a hoisted prefix; negated background
% conditions, ground and enumerating.
initiatedAt(alert(V)=true, T) :- happensAt(ping(V), T), limit(V, L), minus(L, 4) > 0.
initiatedAt(alert(V)=true, T) :- happensAt(slow(V), T), limit(V, L), L =:= 3.
initiatedAt(alert(V)=true, T) :- happensAt(fast(V), T), level(high, H), limit(V, L), L < H.
terminatedAt(alert(V)=true, T) :- happensAt(halt(V), T), not muted(V).
initiatedAt(lonely(V)=true, T) :- happensAt(ping(V), T), not escort(V, W).
terminatedAt(lonely(V)=true, T) :- happensAt(enter(V), T).

% An enumerating holdsAt; a body happensAt at a bound time.
initiatedAt(seen(V)=true, T) :- happensAt(enter(V), T), holdsAt(near(V, W)=true, T).
terminatedAt(seen(V)=true, T) :- happensAt(leave(V), T).
initiatedAt(echo(V)=true, T) :- happensAt(ping(V), T), happensAt(enter(V), T).
terminatedAt(echo(V)=true, T) :- happensAt(halt(V), T).

% A holdsFor enumeration binding a variable its seed does not; a background
% condition in a holdsFor body.
holdsFor(accompanied(V)=true, I) :-
    holdsFor(inside(V)=true, I1),
    holdsFor(near(V, W)=true, I2),
    intersect_all([I1, I2], I).

holdsFor(watchedMoving(V)=true, I) :-
    holdsFor(moving(V)=true, Im),
    watched(V),
    union_all([Im], I).
"""

#: The oracle grounds fluents over the entities of the stream only, so a
#: ``buddy`` of an entity is that entity: ``near(V, W)`` never names another.
KB = KnowledgeBase.from_text(
    """
    watched(v1). watched(v2).
    buddy(v1, v1). buddy(v2, v2).
    limit(v1, 3). limit(v2, 8).
    level(high, 5).
    muted(v2).
    escort(v1, v2).
    """
)

#: Rules that pass the compiler and fail at run time, for the traced/untraced
#: property: division by zero, an interval list that is not a list.
FAULTY = """
initiatedAt(broken(V)=true, T) :- happensAt(ping(V), T), limit(V, L), div(L, minus(L, L)) > 1.
holdsFor(brokenStatic(V)=true, I) :- holdsFor(inside(V)=true, I1), union_all(I1, I).
"""

_EVENT_NAMES = ("slow", "fast", "halt", "enter", "leave", "ping", "veto")
_ENTITIES = ("v1", "v2")

_streams = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.sampled_from(_EVENT_NAMES),
        st.sampled_from(_ENTITIES),
    ),
    min_size=1,
    max_size=20,
)


def _build(raw):
    description = EventDescription.from_text(RULES)
    stream = EventStream(
        Event(t, parse_term("%s(%s)" % (name, entity))) for t, name, entity in raw
    )
    return description, stream


def _compare(description, stream, engine_result, end):
    oracle = ReferenceEvaluator(description, KB, stream)
    for key in sorted(description.defined_keys):
        for pair in sorted(oracle.ground_instances(*key), key=repr):
            oracle_points = oracle.holding_points(pair, 0, end)
            engine_points = {
                t for t in engine_result.holds_for(pair).points() if 0 <= t <= end
            }
            assert engine_points == oracle_points, (
                "%r: engine %s vs oracle %s"
                % (pair, sorted(engine_points), sorted(oracle_points))
            )


class TestEngineAgainstOracle:
    @given(raw=_streams)
    @settings(max_examples=60, deadline=None)
    def test_single_window_matches_oracle(self, raw):
        description, stream = _build(raw)
        engine = RTECEngine(description, KB, strict=False)
        result = engine.recognise(stream)
        _compare(description, stream, result, stream.max_time)

    @given(raw=_streams, window=st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_windowed_matches_oracle(self, raw, window):
        description, stream = _build(raw)
        engine = RTECEngine(description, KB, strict=False)
        result = engine.recognise(stream, window=window)
        _compare(description, stream, result, stream.max_time)

    def test_oracle_rejects_non_ground_queries(self):
        description, stream = _build([(0, "slow", "v1")])
        oracle = ReferenceEvaluator(description, KB, stream)
        with pytest.raises(ValueError):
            oracle.holds_at(parse_term("speed(V)=low"), 3)

    def test_deadline_close_at_window_boundary(self):
        # Regression (found by hypothesis): burst(v2) is initiated at 0 and
        # again at 1; maxDuration 7 closes the period at 7, exactly the end
        # of the first window (-1, 7]. The deadline close leaves no
        # termination event, so without the carried barrier the second
        # window (0, 8] — having forgotten fast@0 — re-anchors on the
        # intermediate initiation fast@1 and extends the period to 8.
        raw = [(0, "fast", "v2"), (1, "fast", "v2"), (8, "slow", "v1")]
        description, stream = _build(raw)
        engine = RTECEngine(description, KB, strict=False)
        result = engine.recognise(stream, window=8)
        _compare(description, stream, result, stream.max_time)
        burst = result.holds_for(parse_term("burst(v2)=true"))
        assert sorted(burst.points()) == [1, 2, 3, 4, 5, 6, 7]


def _outcome(run):
    """What running ``run(out)`` appended, in order, and what it raised."""
    out = []
    try:
        run(out)
    except Exception as error:  # noqa: BLE001 - type and text are compared
        return out, (type(error), str(error))
    return out, None


class TestTracedProgramsMatchUntraced:
    @given(raw=_streams)
    @settings(max_examples=40, deadline=None)
    def test_every_rule_fires_the_same_traced_and_untraced(self, raw):
        description, stream = _build(raw)
        result = RTECEngine(description, KB, strict=False).recognise(stream)
        store = FluentStore()
        for pair, intervals in result.items():
            store.set(pair, intervals)
        for rule in description.rules + EventDescription.from_text(FAULTY).rules:
            kind = rule.head.functor
            if kind == "holdsFor":
                program = StaticProgram(rule)

                def run(out):
                    program.run(KB, store, out)
            elif kind in ("initiatedAt", "terminatedAt"):
                program = compile_rule(rule)

                def run(out):
                    _fire(program, stream, KB, store, -1, stream.max_time, kind == "initiatedAt", out)
            else:
                continue
            untraced = _outcome(run)
            with telemetry.enabled():
                traced = _outcome(run)
            assert traced == untraced, rule

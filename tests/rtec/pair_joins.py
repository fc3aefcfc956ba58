"""Randomised multi-vessel inputs over a pair-join description.

Streams with several entity components that overlap pairwise: simple
fluents, a ``proximity(V1, V2)`` join, a ``maxDuration/2`` deadline and an
``initially/1`` declaration. The session tests drive them online, the
placement tests split them over sessions.
"""

from hypothesis import strategies as st

from repro.intervals import IntervalList
from repro.logic.parser import parse_term
from repro.rtec import Event, EventStream, InputFluents

#: ``build_workload`` refuses to spread ``initially/1`` over sessions.
SPLITTABLE_RULES = """
initiatedAt(moving(V)=true, T) :- happensAt(start(V), T).
terminatedAt(moving(V)=true, T) :- happensAt(stop(V), T).

initiatedAt(escort(V1, V2)=true, T) :-
    happensAt(start(V1), T),
    holdsAt(proximity(V1, V2)=true, T).
terminatedAt(escort(V1, V2)=true, T) :-
    happensAt(split(V1, V2), T).

maxDuration(moving(V)=true, 15).
"""

RULES = SPLITTABLE_RULES + "initially(moving(v1)=true).\n"

VESSELS = ("v1", "v2", "v3", "v4")
PAIRS = (("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v4"))


def build_input(raw_events, raw_proximity):
    events = []
    for time, kind, index in raw_events:
        if kind == "split":
            left, right = PAIRS[index % len(PAIRS)]
            term = parse_term("split(%s, %s)" % (left, right))
        else:
            term = parse_term("%s(%s)" % (kind, VESSELS[index % len(VESSELS)]))
        events.append(Event(time, term))
    merged = {}
    for index, start, length in raw_proximity:
        left, right = PAIRS[index % len(PAIRS)]
        pair = parse_term("proximity(%s, %s)=true" % (left, right))
        merged.setdefault(pair, []).append((start, start + length))
    fluents = InputFluents(
        {pair: IntervalList(spans) for pair, spans in merged.items()}
    )
    return EventStream(events), fluents


raw_events = st.lists(
    st.tuples(
        st.integers(0, 60),
        st.sampled_from(("start", "stop", "split")),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=25,
)
raw_proximity = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 50), st.integers(1, 20)),
    max_size=6,
)

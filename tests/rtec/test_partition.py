"""Tests for the static partitionability analysis and the stream partitioner."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import IntervalList
from repro.logic.parser import parse_term
from repro.maritime import gold_event_description
from repro.rtec import (
    Event,
    EventDescription,
    EventStream,
    InputFluents,
    analyse_partitionability,
    partition_input,
)
from tests.rtec import pair_joins

PER_VESSEL_RULES = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
"""

PAIR_RULES = """
initiatedAt(rendezVous(V1, V2)=true, T) :-
    happensAt(stopStart(V1), T),
    holdsAt(proximity(V1, V2)=true, T).
terminatedAt(rendezVous(V1, V2)=true, T) :-
    happensAt(split(V1, V2), T).
"""

#: The second initiatedAt rule places the constant ``harbour`` at the entity
#: position of f/1, so firings cannot be attributed to one entity.
NON_SHARDABLE_RULES = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
initiatedAt(f(harbour)=true, T) :- happensAt(alarm, T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
"""

#: anyActive/0 is a global fluent derived from the entity-sharded start/1
#: events: every shard would need the whole stream (C3 violation).
AGGREGATING_RULES = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
initiatedAt(anyActive=true, T) :- happensAt(start(V), T).
terminatedAt(anyActive=true, T) :- happensAt(allQuiet, T).
"""


def _event(t, text):
    return Event(t, parse_term(text))


class TestAnalysis:
    def test_per_vessel_description_is_shardable(self):
        analysis = analyse_partitionability(
            EventDescription.from_text(PER_VESSEL_RULES)
        )
        assert analysis.shardable
        assert analysis.diagnostics == ()
        assert analysis.event_positions[("start", 1)] == frozenset({0})
        assert analysis.fluent_positions[("f", 1)] == frozenset({0})

    def test_gold_description_is_shardable(self):
        analysis = gold_event_description().partitionability()
        assert analysis.shardable, analysis.diagnostics

    def test_pair_join_entities(self):
        analysis = analyse_partitionability(EventDescription.from_text(PAIR_RULES))
        assert analysis.shardable
        assert analysis.fluent_positions[("proximity", 2)] == frozenset({0, 1})
        assert analysis.fluent_positions[("rendezVous", 2)] == frozenset({0, 1})
        pair = parse_term("proximity(v1, v2)=true")
        assert analysis.fvp_entities(pair) == (
            parse_term("v1"),
            parse_term("v2"),
        )

    def test_constant_at_entity_position_is_rejected(self):
        analysis = analyse_partitionability(
            EventDescription.from_text(NON_SHARDABLE_RULES)
        )
        assert not analysis.shardable
        assert any("entity position" in d for d in analysis.diagnostics)
        assert any("harbour" in d for d in analysis.diagnostics)

    def test_global_head_over_sharded_body_is_rejected(self):
        analysis = analyse_partitionability(
            EventDescription.from_text(AGGREGATING_RULES)
        )
        assert not analysis.shardable
        assert any("global fluent" in d for d in analysis.diagnostics)

    def test_global_events_carry_no_entities(self):
        analysis = analyse_partitionability(
            EventDescription.from_text(NON_SHARDABLE_RULES)
        )
        assert analysis.event_entities(parse_term("alarm")) == ()


class TestPartitioner:
    def test_pair_fluents_shard_by_pair_key(self):
        analysis = analyse_partitionability(EventDescription.from_text(PAIR_RULES))
        stream = EventStream(
            [
                _event(5, "stopStart(v1)"),
                _event(5, "stopStart(v3)"),
                _event(9, "split(v1, v2)"),
                _event(9, "split(v3, v4)"),
            ]
        )
        fluents = InputFluents(
            {
                parse_term("proximity(v1, v2)=true"): IntervalList([(1, 20)]),
                parse_term("proximity(v3, v4)=true"): IntervalList([(1, 20)]),
            }
        )
        shards, global_events, global_fluents = partition_input(
            stream, fluents, analysis
        )
        assert len(shards) == 2
        assert not global_events and not global_fluents
        keys = sorted(frozenset(map(repr, shard.entities)) for shard in shards)
        assert keys == [
            frozenset({"v1", "v2"}),
            frozenset({"v3", "v4"}),
        ]
        for shard in shards:
            assert len(shard.events) == 2
            assert len(shard.fluents) == 1

    def test_overlapping_pairs_merge_into_one_component(self):
        analysis = analyse_partitionability(EventDescription.from_text(PAIR_RULES))
        fluents = InputFluents(
            {
                parse_term("proximity(v1, v2)=true"): IntervalList([(1, 20)]),
                parse_term("proximity(v2, v3)=true"): IntervalList([(5, 25)]),
            }
        )
        shards, _events, _fluents = partition_input(EventStream(), fluents, analysis)
        assert len(shards) == 1
        assert {repr(e) for e in shards[0].entities} == {"v1", "v2", "v3"}

    def test_extra_entities_keep_components_alive(self):
        analysis = analyse_partitionability(
            EventDescription.from_text(PER_VESSEL_RULES)
        )
        shards, _events, _fluents = partition_input(
            EventStream([_event(5, "start(v1)")]),
            InputFluents(),
            analysis,
            extra_entities=[(parse_term("v9"),)],
        )
        assert len(shards) == 2

    @given(
        raw_events=pair_joins.raw_events,
        raw_proximity=pair_joins.raw_proximity,
        raw_extra=st.lists(st.integers(0, 3), max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_carried_entities_stay_with_their_component(
        self, raw_events, raw_proximity, raw_extra
    ):
        # extra_entities are what a session carries across windows (open
        # initiations, deadline barriers): a pair a previous window initiated
        # must sit in one component with everything its closure touches,
        # even when this window's input never mentions it.
        analysis = analyse_partitionability(EventDescription.from_text(pair_joins.RULES))
        stream, fluents = pair_joins.build_input(raw_events, raw_proximity)
        extra = [
            tuple(parse_term(vessel) for vessel in pair_joins.PAIRS[index])
            for index in raw_extra
        ]
        shards, _events, _fluents = partition_input(
            stream, fluents, analysis, extra_entities=extra
        )
        for left, right in extra:
            owners = [s for s in shards if left in s.entities or right in s.entities]
            assert len(owners) == 1
            assert {left, right} <= owners[0].entities
        assert sum(len(s.events) for s in shards) == len(stream)
        for shard in shards:
            for event in shard.events:
                assert set(analysis.event_entities(event.term)) <= shard.entities
            for pair in shard.fluents:
                assert set(analysis.fvp_entities(pair)) <= shard.entities

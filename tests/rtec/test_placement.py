"""Placement: components spread over sessions, sessions spread over workers.

``build_workload`` assigns the entity components of a stream to sessions
and the router assigns sessions to workers by rendezvous hashing. The
contract of the first is byte-identity: drive every session on its own,
union the detections, and the result equals the unsplit input driven as
one session. The contract of the second is that a dead worker moves only
its own sessions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import IntervalList
from repro.maritime import build_dataset, gold_event_description
from repro.rtec import EventDescription, InputFluents, RTECEngine
from repro.rtec.partition import rendezvous_owner
from repro.serve import (
    SessionConfig,
    build_workload,
    drive_reference_session,
    reference_merged,
)
from tests.rtec import pair_joins

DESCRIPTION = EventDescription.from_text(pair_joins.SPLITTABLE_RULES)

#: The constant ``harbour`` sits at the entity position of f/1.
NON_SHARDABLE_RULES = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
initiatedAt(f(harbour)=true, T) :- happensAt(alarm, T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
"""


def _split_and_unsplit(create, description, stream, fluents, sessions, window, step):
    """Stable JSON of ``sessions`` directly driven sessions, and of one.

    A session walks its step grid from the first item it is given, and
    fluents are given first. Where the grid starts decides what a narrow
    first window still sees (gold maritime's first proximity interval opens
    at 1800: a session given it first never evaluates the events before
    900 at ω=600). That is the service's schedule, not the split's, so every
    input fluent is stretched back to one origin and all runs start their
    grids together.
    """
    origin = min([stream.min_time] + [iv.span[0] for _pair, iv in fluents.items()])
    fluents = InputFluents({
        pair: IntervalList([(origin, intervals.span[0]), *intervals])
        for pair, intervals in fluents.items()
    })
    config = SessionConfig(window=window, step=step)
    workload = build_workload(stream, fluents, description, sessions=sessions)
    split = reference_merged(create, workload, config)
    unsplit = drive_reference_session(
        create(), list(stream), fluents, window, step, end=workload.end_time
    )
    return split.to_json(), unsplit.to_json()


class TestPlacedEquivalence:
    @given(
        raw_events=pair_joins.raw_events,
        raw_proximity=pair_joins.raw_proximity,
        sessions=st.integers(1, 4),
        window=st.integers(5, 40),
        step=st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_bucket_union_matches_unsplit(
        self, raw_events, raw_proximity, sessions, window, step
    ):
        stream, fluents = pair_joins.build_input(raw_events, raw_proximity)
        split, unsplit = _split_and_unsplit(
            lambda: RTECEngine(DESCRIPTION, strict=False),
            DESCRIPTION, stream, fluents, sessions, window, step,
        )
        assert split == unsplit

    def test_gold_maritime_over_four_sessions(self):
        dataset = build_dataset(seed=0, scale=0.05)
        gold = gold_event_description()
        split, unsplit = _split_and_unsplit(
            lambda: RTECEngine(gold, dataset.kb, dataset.vocabulary),
            gold, dataset.stream, dataset.input_fluents, 4, 600, 300,
        )
        assert split == unsplit
        assert "trawling(trawler2)=true" in split


class TestWhatCannotBeSplit:
    def test_initially_declarations_are_refused(self):
        stream, fluents = pair_joins.build_input([(2, "start", 0)], [])
        with pytest.raises(ValueError, match="initially/1"):
            build_workload(
                stream, fluents, EventDescription.from_text(pair_joins.RULES), sessions=2
            )

    def test_non_shardable_is_refused_naming_the_rule(self):
        stream, fluents = pair_joins.build_input([(2, "start", 0)], [])
        with pytest.raises(ValueError, match=r"not entity-shardable.*rule for f/1.*harbour"):
            build_workload(
                stream, fluents, EventDescription.from_text(NON_SHARDABLE_RULES), sessions=2
            )


class TestPlacementPrimitives:
    def test_rendezvous_only_moves_the_dead_nodes_keys(self):
        nodes = ["w0", "w1", "w2", "w3"]
        keys = ["k%d" % index for index in range(64)]
        before = {key: rendezvous_owner(key, nodes) for key in keys}
        survivors = [node for node in nodes if node != "w2"]
        after = {key: rendezvous_owner(key, survivors) for key in keys}
        for key in keys:
            if before[key] == "w2":
                assert after[key] in survivors
            else:
                assert after[key] == before[key]

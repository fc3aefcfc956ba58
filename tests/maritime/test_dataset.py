"""Tests for the synthetic dataset builder and thresholds."""


from repro.logic.parser import parse_term
from repro.maritime import build_dataset
from repro.maritime.dataset import build_knowledge_base
from repro.maritime.ais import Vessel
from repro.maritime.geometry import default_geography
from repro.maritime.thresholds import DEFAULT_THRESHOLDS


class TestThresholds:
    def test_as_facts_parse(self):
        from repro.logic.knowledge import KnowledgeBase

        kb = KnowledgeBase.from_text(DEFAULT_THRESHOLDS.as_facts())
        assert kb.holds(parse_term("thresholds(hcNearCoastMax, 15.0)"))

    def test_items_cover_all_fields(self):
        names = {name for name, _value in DEFAULT_THRESHOLDS.items()}
        assert {"movingMin", "hcNearCoastMax", "trawlspeedMin", "adriftAngThr"} <= names


class TestKnowledgeBase:
    def test_area_and_vessel_facts(self):
        kb = build_knowledge_base(
            [Vessel("v1", "fishing"), Vessel("t1", "tug")], default_geography()
        )
        assert kb.holds(parse_term("areaType(fishingGulf, fishing)"))
        assert kb.holds(parse_term("vesselType(v1, fishing)"))
        assert kb.holds(parse_term("vesselSpeedRange(v1, 4.0, 12.0)"))

    def test_pair_predicates_in_sorted_order(self):
        kb = build_knowledge_base(
            [Vessel("v1", "fishing"), Vessel("t1", "tug"), Vessel("p1", "pilot")],
            default_geography(),
        )
        assert kb.holds(parse_term("oneIsTug(t1, v1)"))
        assert not kb.holds(parse_term("oneIsTug(v1, t1)"))  # sorted order only
        assert kb.holds(parse_term("oneIsPilot(p1, t1)"))
        assert kb.holds(parse_term("oneIsPilot(p1, v1)"))

    def test_threshold_facts_included(self):
        kb = build_knowledge_base([], default_geography())
        assert kb.holds(parse_term("thresholds(movingMin, 0.5)"))


class TestDataset:
    def test_reproducible_from_seed(self):
        first = build_dataset(seed=3, scale=0.1, traffic=1)
        second = build_dataset(seed=3, scale=0.1, traffic=1)
        assert first.messages == second.messages

    def test_different_seeds_differ(self):
        first = build_dataset(seed=3, scale=0.1, traffic=1)
        second = build_dataset(seed=4, scale=0.1, traffic=1)
        assert first.messages != second.messages

    def test_contains_all_scenario_vessels(self, small_dataset):
        ids = {vessel.vessel_id for vessel in small_dataset.vessels}
        assert {
            "trawler1",
            "speeder1",
            "anchored1",
            "moored1",
            "tug1",
            "barge1",
            "pilot1",
            "tanker2",
            "loiterer1",
            "sar1",
            "drifter1",
            "gapper1",
        } <= ids

    def test_stream_covers_input_vocabulary(self, small_dataset):
        functors = {name for name, _ in small_dataset.stream.functors()}
        assert {
            "velocity",
            "entersArea",
            "leavesArea",
            "gap_start",
            "gap_end",
            "stop_start",
            "stop_end",
            "slow_motion_start",
            "change_in_heading",
        } <= functors

    def test_proximity_covers_tug_and_pilot_pairs(self, small_dataset):
        assert parse_term("proximity(barge1, tug1)=true") in small_dataset.input_fluents
        assert parse_term("proximity(pilot1, tanker2)=true") in small_dataset.input_fluents

    def test_seed_zero_proximity_intervals(self):
        # Pinned when numpy became a first-use import of the detector.
        dataset = build_dataset(seed=0, scale=0.1)
        assert {
            pair: intervals.as_pairs() for pair, intervals in dataset.input_fluents.items()
        } == {
            parse_term("proximity(barge1, tug1)=true"): [(1800, 11919)],
            parse_term("proximity(pilot1, tanker2)=true"): [(4220, 4419)],
        }

    def test_traffic_parameter(self):
        dataset = build_dataset(seed=0, scale=0.1, traffic=3)
        traffic_ids = [v.vessel_id for v in dataset.vessels if v.vessel_id.startswith("traffic")]
        assert len(traffic_ids) == 3

    def test_duration_positive(self, small_dataset):
        assert small_dataset.duration > 0

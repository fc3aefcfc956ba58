"""Tests for the fleet-management domain (the paper's further-work transfer)."""

import pytest

from repro.fleet import (
    FLEET_ACTIVITY_GROUPS,
    FLEET_COMPOSITE_ACTIVITIES,
    FLEET_VOCABULARY,
    build_fleet_dataset,
    fleet_domain_spec,
    fleet_gold_event_description,
    generate_fleet,
)
from repro.llm import FEW_SHOT, CHAIN_OF_THOUGHT
from repro.llm.prompts import prompt_r
from repro.rtec import RTECEngine
from repro.similarity import event_description_similarity


@pytest.fixture(scope="module")
def dataset():
    return build_fleet_dataset()


@pytest.fixture(scope="module")
def gold():
    return fleet_gold_event_description()


@pytest.fixture(scope="module")
def recognition(dataset, gold):
    engine = RTECEngine(gold, dataset.kb, dataset.vocabulary)
    return engine.recognise(dataset.stream, dataset.input_fluents)


class TestGold:
    def test_validates_cleanly(self, gold):
        assert gold.validate(FLEET_VOCABULARY) == []

    def test_uses_max_duration_declaration(self, gold):
        assert gold.max_durations
        from repro.logic.parser import parse_term

        assert gold.max_duration_for(parse_term("unsafeManoeuvre(bus1)=true")) == 60

    def test_has_both_fluent_kinds(self, gold):
        assert len(gold.simple_fluents) == 5
        assert len(gold.static_fluents) == 3


class TestRecognition:
    def test_all_composites_detected(self, recognition):
        for activity in FLEET_COMPOSITE_ACTIVITIES:
            assert list(recognition.instances(activity)), activity

    def test_unsafe_manoeuvre_window_is_bounded(self, recognition):
        intervals = recognition.holds_for("unsafeManoeuvre(bus1)=true")
        assert intervals
        for interval in intervals:
            assert interval.duration <= 60

    def test_school_zone_overspeeding(self, recognition):
        assert recognition.holds_for("overSpeeding(bus1)=true")
        # The bus never exceeds the urban limit (50 km/h).
        assert not recognition.holds_at("overSpeeding(bus1)=true", 300)

    def test_depot_activity_excluded_from_dangerous_driving(self, recognition):
        assert not recognition.holds_for("dangerousDriving(van1)=true")

    def test_school_stop_is_authorised(self, recognition):
        # bus1 stops inside the school zone: not an unauthorised stop.
        assert not recognition.holds_for("unauthorisedStop(bus1)=true")

    def test_street_stop_is_unauthorised(self, recognition):
        assert recognition.holds_for("unauthorisedStop(van2)=true")

    def test_idling_requires_engine_on(self, recognition):
        idling = recognition.holds_for("idling(van1)=true")
        engine_on = recognition.holds_for("engineOn(van1)=true")
        assert set(idling.points()) <= set(engine_on.points())


class TestGeneration:
    def test_prompt_r_is_reused_verbatim(self):
        # Section 6: "Prompt R may be re-used as it is."
        spec = fleet_domain_spec()
        assert prompt_r() == prompt_r()  # domain-independent by construction
        assert spec.name == "Fleet"

    def test_o1_transfers_perfectly(self, gold):
        generated = generate_fleet("o1", FEW_SHOT)
        assert event_description_similarity(generated.to_event_description(), gold) == 1.0

    def test_weak_profile_degrades(self, gold):
        generated = generate_fleet("gemma-2", CHAIN_OF_THOUGHT)
        similarity = event_description_similarity(generated.to_event_description(), gold)
        assert similarity < 1.0

    def test_generated_description_runs(self, dataset, gold, recognition):
        generated = generate_fleet("gemma-2", CHAIN_OF_THOUGHT)
        engine = RTECEngine(
            generated.to_event_description(),
            dataset.kb,
            dataset.vocabulary,
            strict=False,
            skip_errors=True,
        )
        result = engine.recognise(dataset.stream, dataset.input_fluents)
        # unaffected activities still match the gold detections
        assert result.holds_for("unauthorisedStop(van2)=true") == recognition.holds_for(
            "unauthorisedStop(van2)=true"
        )

    def test_generation_covers_all_groups(self):
        generated = generate_fleet("o1", FEW_SHOT)
        assert len(generated.activities) == len(FLEET_ACTIVITY_GROUPS)
        assert not generated.parse_errors


class TestFleetServingLoadsNoNumpy:
    def test_cli_worker_and_a_driven_gold_session(self):
        """What a router and a fleet worker import and run: 12 MB and 0.24 s a
        process when numpy rides along (``maritime`` uses it, lazily)."""
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import sys\n"
            "import repro.cli, repro.serve.cluster.worker, repro.fleet\n"
            "from repro.rtec import RTECEngine\n"
            "from repro.serve.replay import drive_reference_session\n"
            "dataset = repro.fleet.build_fleet_dataset()\n"
            "engine = RTECEngine(repro.fleet.fleet_gold_event_description(),\n"
            "                    dataset.kb, dataset.vocabulary)\n"
            "result = drive_reference_session(engine, list(dataset.stream),\n"
            "                                 dataset.input_fluents, 600, 300, incremental=True)\n"
            "assert len(result) > 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()


"""Tests for the gold-domain records (one per domain, looked up by name)."""

import pytest

from repro.domain import GOLD_NAMES, gold_domain
from repro.fleet import FLEET
from repro.llm import FEW_SHOT, GenerationPipeline, SimulatedLLM
from repro.llm.prompts import prompt_g, prompt_r
from repro.maritime import MARITIME
from repro.maritime.gold import ACTIVITY_GROUPS


class TestLookup:
    def test_every_gold_name_has_a_record(self):
        assert [gold_domain(name) for name in GOLD_NAMES] == [MARITIME, FLEET]
        assert [domain.name.lower() for domain in (MARITIME, FLEET)] == list(GOLD_NAMES)

    def test_unknown_gold_rejected(self):
        with pytest.raises(ValueError, match="unknown gold"):
            gold_domain("caviar")

    def test_pipeline_asks_for_the_domains_groups(self):
        pipeline = GenerationPipeline(SimulatedLLM("o1", MARITIME), FEW_SHOT, MARITIME)
        generated = pipeline.run()
        assert [a.group for a in generated.activities] == list(ACTIVITY_GROUPS)
        assert generated.domain is MARITIME


class TestFleetDomain:
    def test_prompt_r_identical_across_domains(self):
        # Section 6: "Prompt R may be re-used as it is."
        maritime = GenerationPipeline(SimulatedLLM("o1", MARITIME), FEW_SHOT, MARITIME)
        fleet = GenerationPipeline(SimulatedLLM("o1", FLEET), FEW_SHOT, FLEET)
        assert maritime._teaching_prompts()[0] == fleet._teaching_prompts()[0]
        assert maritime._teaching_prompts()[0] == prompt_r()

    def test_prompt_e_and_t_customised(self):
        fleet = GenerationPipeline(SimulatedLLM("o1", FLEET), FEW_SHOT, FLEET)
        prompts = fleet._teaching_prompts()
        assert "ignition_on(Vehicle)" in prompts[2]  # prompt E
        assert "Input Fluent" not in prompts[2]  # fleet has no input fluents
        assert "unsafeManoeuvreWindow" in prompts[3]  # prompt T
        assert "zoneType(Zone, ZoneType)" in prompts[3]

    def test_prompt_g_carries_domain_label(self):
        text = prompt_g("Idling: something.", FLEET.name)
        assert "fleet activity description" in text
        assert "Fleet Composite Activity Description - " in text


class TestRecordValue:
    def test_frozen(self):
        with pytest.raises(Exception):
            MARITIME.name = "Other"  # type: ignore[misc]

    def test_outputs_are_every_group_fluent(self):
        # a support fluent of an activity group is an output too
        assert {"trawlSpeed", "trawlingMovement", "trawling"} <= MARITIME.outputs
        assert "unsafeManoeuvre" in FLEET.outputs and "trawling" not in FLEET.outputs

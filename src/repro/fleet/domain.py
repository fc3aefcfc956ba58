"""The fleet gold domain: the paper's further-work transfer (Section 6).

Prompt R is reused verbatim, prompts E and T carry the fleet vocabulary and
thresholds, and the G prompts the fleet descriptions. The simulated models
get fleet error profiles in the same four categories as the maritime ones.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.domain import GoldDomain
from repro.fleet.dataset import FleetDataset, build_fleet_dataset
from repro.fleet.gold import (
    FLEET_ACTIVITY_GROUPS,
    FLEET_BACKGROUND_NOTE,
    FLEET_EVENT_MEANINGS,
    FLEET_THRESHOLD_MEANINGS,
    FLEET_VOCABULARY,
    FleetThresholds,
    fleet_gold_event_description,
)
from repro.llm.errors import (
    AddCondition,
    DropRule,
    RenameFunctor,
    ReplaceRules,
    SwapOperator,
)
from repro.llm.profiles import Profile
from repro.llm.prompts import CHAIN_OF_THOUGHT, FEW_SHOT

__all__ = ["FLEET", "FLEET_PROFILES"]

# Gemma-2's signature wrong-fluent-type error, transplanted to the fleet
# domain: dangerousDriving as a simple fluent.
_GEMMA_DANGEROUS_DRIVING = """
initiatedAt(dangerousDriving(Vehicle)=true, T) :-
    happensAt(sharp_turn(Vehicle), T).

terminatedAt(dangerousDriving(Vehicle)=true, T) :-
    happensAt(ignition_off(Vehicle), T).
"""

_STRONG: Profile = {
    # Minor, correctable naming divergence plus one redundant condition.
    "overSpeeding": [RenameFunctor("speed", "speedReport")],
    "dangerousDriving": [
        AddCondition(0, "holdsFor(engineOn(Vehicle)=true, Ien)", position=3),
    ],
}

_WEAK: Profile = {
    "overSpeeding": [RenameFunctor("speed", "speedReport"), DropRule(2)],
    "dangerousDriving": [ReplaceRules(_GEMMA_DANGEROUS_DRIVING)],
    "idling": [SwapOperator("intersect_all", "union_all")],
    "unsafeManoeuvre": [DropRule(3)],
}

#: Per-scheme fleet profiles per model: the strong models transfer well,
#: the weak ones repeat their maritime failure modes.
FLEET_PROFILES: Dict[str, Dict[str, Profile]] = {
    "o1": {FEW_SHOT: {}, CHAIN_OF_THOUGHT: _STRONG},
    "gpt-4o": {FEW_SHOT: _WEAK, CHAIN_OF_THOUGHT: _STRONG},
    "llama-3": {FEW_SHOT: _STRONG, CHAIN_OF_THOUGHT: _WEAK},
    "gpt-4": {FEW_SHOT: _STRONG, CHAIN_OF_THOUGHT: _WEAK},
    "mistral": {FEW_SHOT: _WEAK, CHAIN_OF_THOUGHT: _WEAK},
    "gemma-2": {FEW_SHOT: _WEAK, CHAIN_OF_THOUGHT: _WEAK},
}


def _profile(model: str, scheme: str) -> Profile:
    """There is no zero-shot fleet profile: a zero-shot reply is undegraded."""
    return FLEET_PROFILES[model].get(scheme, {})


def _dataset(**_ignored: Any) -> FleetDataset:
    """The scripted dataset: seed, scale and traffic do not apply."""
    return build_fleet_dataset()


FLEET = GoldDomain(
    name="Fleet",
    groups=FLEET_ACTIVITY_GROUPS,
    vocabulary=FLEET_VOCABULARY,
    gold=fleet_gold_event_description,
    event_meanings=FLEET_EVENT_MEANINGS,
    fluent_meanings={},
    thresholds=FleetThresholds(),
    threshold_meanings=FLEET_THRESHOLD_MEANINGS,
    background_note=FLEET_BACKGROUND_NOTE,
    profile=_profile,
    dataset=_dataset,
    manual_renames={},
)

"""Vehicle fleet management: the paper's further-work domain.

Section 6 of the paper: "our approach may be used in other domains, such
as composite activity recognition for vehicle fleet management [34].
Prompt R may be re-used as it is, while the prompts F, E, and T may be
customised with domain-specific knowledge." This package provides that
instantiation: a fleet vocabulary, a gold-standard event description (with
a ``maxDuration/2`` deadline for unsafe manoeuvres), a scripted telematics
dataset, simulated-model error profiles, and the
:class:`~repro.domain.GoldDomain` record that bundles them (``FLEET``):
generation, repair and serving take it as they take the maritime one.
"""

from repro.fleet.dataset import FleetDataset, build_fleet_dataset, build_fleet_knowledge_base
from repro.fleet.domain import FLEET, FLEET_PROFILES
from repro.fleet.gold import (
    FLEET_ACTIVITY_GROUPS,
    FLEET_COMPOSITE_ACTIVITIES,
    FLEET_VOCABULARY,
    FleetThresholds,
    fleet_gold_event_description,
    fleet_gold_rules_text,
)

__all__ = [
    "FleetDataset",
    "build_fleet_dataset",
    "build_fleet_knowledge_base",
    "FLEET",
    "FLEET_PROFILES",
    "FLEET_ACTIVITY_GROUPS",
    "FLEET_COMPOSITE_ACTIVITIES",
    "FLEET_VOCABULARY",
    "FleetThresholds",
    "fleet_gold_event_description",
    "fleet_gold_rules_text",
]

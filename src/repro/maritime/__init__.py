"""The maritime situational-awareness substrate.

Everything the paper's empirical analysis (Section 5) needs from the
maritime domain: the geography of areas and ports, a synthetic AIS
trajectory simulator replacing the Brest dataset, the critical-event
detector that turns AIS messages into RTEC input, the hand-crafted
gold-standard event description, the dataset builder, and the
:class:`~repro.domain.GoldDomain` record that bundles them (``MARITIME``).
"""

from repro.maritime.ais import AISMessage, Vessel, VESSEL_SPEED_RANGES
from repro.maritime.critical_events import CriticalEventDetector, DetectedStream
from repro.maritime.dataset import MaritimeDataset, build_dataset, build_knowledge_base
from repro.maritime.domain import MARITIME
from repro.maritime.geometry import CircleArea, Geography, RectArea, default_geography
from repro.maritime.gold import (
    ACTIVITY_GROUPS,
    ACTIVITY_SHORT_LABELS,
    COMPOSITE_ACTIVITIES,
    MARITIME_VOCABULARY,
    ActivityGroup,
    activity_rules_text,
    gold_event_description,
    gold_rules_text,
)
from repro.maritime.thresholds import DEFAULT_THRESHOLDS, DETECTOR_SETTINGS, Thresholds
from repro.maritime.trajectories import Phase, leg_towards, simulate_vessel

__all__ = [
    "AISMessage",
    "Vessel",
    "VESSEL_SPEED_RANGES",
    "CriticalEventDetector",
    "DetectedStream",
    "MARITIME",
    "MaritimeDataset",
    "build_dataset",
    "build_knowledge_base",
    "CircleArea",
    "RectArea",
    "Geography",
    "default_geography",
    "ActivityGroup",
    "ACTIVITY_GROUPS",
    "ACTIVITY_SHORT_LABELS",
    "COMPOSITE_ACTIVITIES",
    "MARITIME_VOCABULARY",
    "activity_rules_text",
    "gold_event_description",
    "gold_rules_text",
    "DEFAULT_THRESHOLDS",
    "DETECTOR_SETTINGS",
    "Thresholds",
    "Phase",
    "leg_towards",
    "simulate_vessel",
]

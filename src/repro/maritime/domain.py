"""The maritime gold domain: the paper's evaluation (Section 5)."""

from repro.domain import GoldDomain
from repro.llm.profiles import profile_for
from repro.maritime.dataset import MaritimeDataset, build_dataset
from repro.maritime.gold import (
    ACTIVITY_GROUPS,
    BACKGROUND_NOTE,
    INPUT_EVENT_MEANINGS,
    INPUT_FLUENT_MEANINGS,
    MARITIME_VOCABULARY,
    THRESHOLD_MEANINGS,
    gold_event_description,
)
from repro.maritime.thresholds import DEFAULT_THRESHOLDS

__all__ = ["MARITIME"]


def _dataset(**parameters) -> MaritimeDataset:
    """``build_dataset`` looked up at call time, so a wrapper bound over
    this module's name (a tracer's, say) sees every build."""
    return build_dataset(**parameters)


MARITIME = GoldDomain(
    name="Maritime",
    groups=ACTIVITY_GROUPS,
    vocabulary=MARITIME_VOCABULARY,
    gold=gold_event_description,
    event_meanings=INPUT_EVENT_MEANINGS,
    fluent_meanings=INPUT_FLUENT_MEANINGS,
    thresholds=DEFAULT_THRESHOLDS,
    threshold_meanings=THRESHOLD_MEANINGS,
    background_note=BACKGROUND_NOTE,
    profile=profile_for,
    dataset=_dataset,
)

"""Per-activity and whole-description similarity of generated definitions.

Figure 2a/2b of the paper report, per composite activity, the similarity
between its LLM-generated and hand-crafted definitions, plus an average
over all activity definitions. Per-activity similarity compares the rules
defining the activity's *headline* fluent (e.g. ``trawling/1``) — this is
what makes a wrong-fluent-type definition score exactly 0, as the paper
observes for Gemma-2's trawling — while the average is taken over the
full rule groups of every activity in the event description.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.llm.pipeline import GeneratedEventDescription
from repro.logic.parser import Rule
from repro.maritime.gold import ACTIVITY_GROUPS, activity_group
from repro.rtec.description import fluent_key, head_fvp
from repro.similarity import event_description_similarity

__all__ = [
    "headline_rules",
    "activity_similarity",
    "per_activity_similarities",
    "average_similarity",
]


def headline_rules(rules: Sequence[Rule], headline: str) -> List[Rule]:
    """The rules of ``rules`` whose head defines the fluent named ``headline``."""
    selected: List[Rule] = []
    for rule in rules:
        try:
            fluent, _value = head_fvp(rule)
        except ValueError:
            continue
        if fluent_key(fluent)[0] == headline:
            selected.append(rule)
    return selected


def activity_similarity(generated: GeneratedEventDescription, group_name: str) -> float:
    """Similarity of one activity's headline-fluent definition to the gold one."""
    group = activity_group(group_name)
    headline = group.fluents[-1][0]
    gold_subset = headline_rules(group.rules, headline)
    generated_subset = headline_rules(generated.rules_for(group_name), headline)
    return event_description_similarity(generated_subset, gold_subset)


def per_activity_similarities(
    generated: GeneratedEventDescription,
    group_names: Sequence[str] = None,
) -> Dict[str, float]:
    """Headline similarities for the given groups (default: all groups)."""
    if group_names is None:
        group_names = [group.name for group in ACTIVITY_GROUPS]
    return {name: activity_similarity(generated, name) for name in group_names}


def average_similarity(generated: GeneratedEventDescription) -> float:
    """The 'all' bar of Figure 2a: mean full-group similarity over every
    activity definition in the event description."""
    scores: List[float] = []
    for group in ACTIVITY_GROUPS:
        scores.append(event_description_similarity(generated.rules_for(group.name), group.rules))
    return sum(scores) / len(scores)

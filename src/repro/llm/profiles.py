"""Per-model, per-scheme error profiles for the simulated LLMs.

A profile maps each activity group to the transformations the simulated
model applies to its internal knowledge of the definition (the gold rules)
before emitting it. The profiles are calibrated to reproduce the paper's
observations (Section 5.2 and Figure 2):

* **o1 (few-shot best)** — near-gold output; renames the constant
  ``fishing`` to ``trawlingArea`` (the correction discussed for o1■), adds
  one redundant condition to the trawling rule, and formalises loitering in
  a syntactically different but semantically equivalent way (perfect
  f1-score despite imperfect similarity).
* **GPT-4o (chain-of-thought best)** — models ``movingSpeed`` with a
  statically determined fluent instead of a simple one (wrong fluent
  type), confuses ``union_all`` with ``intersect_all`` in loitering (a rule
  that is never satisfied), weakens pilot boarding, and introduces minor
  correctable naming divergences.
* **Llama-3 (few-shot best)** — confuses ``union_all`` with
  ``intersect_all`` in loitering, drops the pilot-vessel type constraint in
  pilot boarding, plus correctable naming divergences.
* **GPT-4 (few-shot best)** — a trawling definition that matches none of
  the gold conditions and references an undefined activity; dropped rules
  and weakened definitions elsewhere.
* **Mistral (chain-of-thought best)** — malformed and mismatched
  definitions for several statically determined activities.
* **Gemma-2 (chain-of-thought best)** — expresses trawling (and other
  statically determined activities) as simple fluents: similarity 0 for
  trawling, as in the paper.

The weaker scheme of each model is the strong profile plus extra
degradations, so the best-scheme selection of Figure 2a picks the
documented scheme.
"""

from __future__ import annotations

from typing import Dict, List

from repro.llm.errors import (
    AddCondition,
    CorruptSyntax,
    DropCondition,
    DropRule,
    RenameConstant,
    RenameFunctor,
    RenameVariable,
    ReplaceRules,
    SwapArguments,
    SwapOperator,
    Transformation,
    TruncateRules,
)
from repro.llm.prompts import CHAIN_OF_THOUGHT, FEW_SHOT, ZERO_SHOT

__all__ = ["MODEL_NAMES", "BEST_SCHEME", "profile_for", "Profile"]

#: The six models of the paper's evaluation.
MODEL_NAMES = ("gpt-4", "gpt-4o", "o1", "llama-3", "mistral", "gemma-2")

#: The prompting scheme with the highest similarity per model (Figure 2a):
#: square = few-shot, triangle = chain-of-thought.
BEST_SCHEME: Dict[str, str] = {
    "gpt-4": FEW_SHOT,
    "gpt-4o": CHAIN_OF_THOUGHT,
    "o1": FEW_SHOT,
    "llama-3": FEW_SHOT,
    "mistral": CHAIN_OF_THOUGHT,
    "gemma-2": CHAIN_OF_THOUGHT,
}

Profile = Dict[str, List[Transformation]]

# ---------------------------------------------------------------------------
# Alternative formalisations emitted wholesale (error category 2)
# ---------------------------------------------------------------------------

# o1: loitering through the already-defined lowSpeedOrStopped fluent —
# not syntactically equivalent to the gold rule, but the same meaning.
_O1_LOITERING = """
holdsFor(loitering(Vessel)=true, I) :-
    holdsFor(lowSpeedOrStopped(Vessel)=true, Ils),
    holdsFor(anchoredOrMoored(Vessel)=true, Ia),
    relative_complement_all(Ils, [Ia], I).
"""

# GPT-4o: movingSpeed as a statically determined fluent (the paper's
# example of the wrong-fluent-type error). Acyclic but semantically wrong.
_GPT4O_MOVING_SPEED = """
holdsFor(movingSpeed(Vessel)=below, I) :-
    holdsFor(lowSpeed(Vessel)=true, Il),
    union_all([Il], I).

holdsFor(movingSpeed(Vessel)=normal, I) :-
    holdsFor(changingSpeed(Vessel)=true, Ic),
    holdsFor(lowSpeed(Vessel)=true, Il),
    holdsFor(stopped(Vessel)=nearPorts, Isn),
    holdsFor(stopped(Vessel)=farFromPorts, Isf),
    union_all([Il, Isn, Isf], Islow),
    relative_complement_all(Ic, [Islow], I).
"""

# GPT-4: a verbose trawling re-formalisation matching none of the gold
# conditions, with an undefined 'fishingOperation' activity (category 3).
_GPT4_TRAWLING = """
initiatedAt(trawlSpeed(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(trawlspeedMin, TrawlspeedMin),
    Speed >= TrawlspeedMin,
    holdsAt(fishingOperation(Vessel)=true, T).

terminatedAt(trawlSpeed(Vessel)=true, T) :-
    happensAt(stop_start(Vessel), T).

holdsFor(trawling(Vessel)=true, I) :-
    holdsFor(trawlSpeed(Vessel)=true, Is),
    holdsFor(withinArea(Vessel, natura)=true, Iw),
    holdsFor(underWay(Vessel)=true, Iu),
    holdsFor(changingSpeed(Vessel)=true, Ic),
    holdsFor(lowSpeed(Vessel)=true, Il),
    intersect_all([Is, Iw, Iu], Ia),
    union_all([Ia, Ic, Il], I).
"""

# GPT-4: search and rescue without the movement component.
_GPT4_SAR = """
initiatedAt(sarSpeed(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    vesselType(Vessel, sar),
    thresholds(sarMinSpeed, SarMinSpeed),
    Speed >= SarMinSpeed.

terminatedAt(sarSpeed(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(sarMinSpeed, SarMinSpeed),
    Speed < SarMinSpeed.

holdsFor(searchAndRescue(Vessel)=true, I) :-
    holdsFor(sarSpeed(Vessel)=true, Is),
    union_all([Is], I).
"""

# Mistral: trawling with happensAt/holdsAt conditions inside a holdsFor
# rule — a malformed definition that "cannot be used in practice".
_MISTRAL_TRAWLING = """
holdsFor(trawling(Vessel)=true, I) :-
    holdsFor(withinArea(Vessel, fishing)=true, I),
    happensAt(change_in_heading(Vessel), T),
    holdsAt(movingSpeed(Vessel)=below, T),
    vesselType(Vessel, fishing).
"""

# Mistral: loitering as a simple fluent (wrong type).
_MISTRAL_LOITERING = """
initiatedAt(loitering(Vessel)=true, T) :-
    happensAt(slow_motion_start(Vessel), T),
    not holdsAt(withinArea(Vessel, nearPorts)=true, T).

terminatedAt(loitering(Vessel)=true, T) :-
    happensAt(slow_motion_end(Vessel), T).
"""

# Gemma-2: trawling as a simple fluent — the similarity-0 case of Fig. 2a.
_GEMMA_TRAWLING = """
initiatedAt(trawling(Vessel)=true, T) :-
    happensAt(entersArea(Vessel, Area), T),
    areaType(Area, fishing),
    vesselType(Vessel, fishing).

terminatedAt(trawling(Vessel)=true, T) :-
    happensAt(leavesArea(Vessel, Area), T),
    areaType(Area, fishing).
"""

# Gemma-2: tugging as a simple fluent referencing an undefined event.
_GEMMA_TUGGING = """
initiatedAt(tugging(Vessel1, Vessel2)=true, T) :-
    happensAt(towingStart(Vessel1, Vessel2), T),
    oneIsTug(Vessel1, Vessel2).

terminatedAt(tugging(Vessel1, Vessel2)=true, T) :-
    happensAt(towingEnd(Vessel1, Vessel2), T).
"""

# Gemma-2: search and rescue as a simple fluent.
_GEMMA_SAR = """
initiatedAt(searchAndRescue(Vessel)=true, T) :-
    happensAt(change_in_heading(Vessel), T),
    vesselType(Vessel, sar).

terminatedAt(searchAndRescue(Vessel)=true, T) :-
    happensAt(stop_start(Vessel), T).
"""

# Gemma-2: anchoredOrMoored as a simple fluent.
_GEMMA_ANCHORED = """
initiatedAt(anchoredOrMoored(Vessel)=true, T) :-
    happensAt(stop_start(Vessel), T),
    holdsAt(withinArea(Vessel, anchorage)=true, T).

terminatedAt(anchoredOrMoored(Vessel)=true, T) :-
    happensAt(stop_end(Vessel), T).
"""

#: The redundant-but-harmless condition added to the trawling rule by the
#: three strongest models ("introducing only one redundant condition").
_REDUNDANT_TRAWLING = AddCondition(
    rule_index=8,
    condition="holdsFor(underWay(Vessel)=true, Iu)",
    position=2,
)

# ---------------------------------------------------------------------------
# Best-scheme profiles
# ---------------------------------------------------------------------------

_O1_BEST: Profile = {
    "withinArea": [RenameVariable("Area", "AreaID")],
    "movingSpeed": [RenameVariable("Vessel", "Vl")],
    "trawling": [RenameConstant("fishing", "trawlingArea"), _REDUNDANT_TRAWLING],
    "loitering": [ReplaceRules(_O1_LOITERING)],
    "changingSpeed": [DropRule(2)],  # forgotten gap termination
    "highSpeedNearCoast": [
        AddCondition(0, "holdsAt(underWay(Vessel)=true, T)"),  # redundant
    ],
}

_GPT4O_BEST: Profile = {
    "movingSpeed": [ReplaceRules(_GPT4O_MOVING_SPEED)],
    "loitering": [SwapOperator("union_all", "intersect_all", rule_index=0)],
    "pilotBoarding": [SwapOperator("intersect_all", "union_all", rule_index=1)],
    "trawling": [
        _REDUNDANT_TRAWLING,
        RenameFunctor("change_in_heading", "changeInHeading"),
    ],
    "highSpeedNearCoast": [RenameConstant("nearCoast", "nearcoast")],
    "tugging": [RenameVariable("Vessel", "V")],
    "stopped": [DropRule(5)],  # forgotten gap termination (farFromPorts)
}

_LLAMA3_BEST: Profile = {
    "loitering": [SwapOperator("union_all", "intersect_all", rule_index=0)],
    "pilotBoarding": [DropCondition(rule_index=1, condition_index=1)],  # oneIsPilot
    "trawling": [_REDUNDANT_TRAWLING, RenameConstant("fishing", "fisheries")],
    "communicationGap": [RenameFunctor("gap_end", "gapEnd")],
    "stopped": [DropRule(4), RenameFunctor("stop_end", "stopEnd")],
    "tugging": [RenameFunctor("gap_start", "gapStart")],
    "searchAndRescue": [RenameFunctor("change_in_heading", "changeInHeading")],
    "drifting": [DropRule(2)],
    "movingSpeed": [RenameVariable("Vessel", "Vl")],
    # Correctable naming divergences (camel-case variants of the input
    # event names): large similarity hit, no effect after correction.
    "lowSpeed": [
        RenameFunctor("slow_motion_start", "slowMotionStart"),
        RenameFunctor("slow_motion_end", "slowMotionEnd"),
    ],
    "changingSpeed": [
        RenameFunctor("change_in_speed_start", "changeInSpeedStart"),
        RenameFunctor("change_in_speed_end", "changeInSpeedEnd"),
    ],
    "withinArea": [RenameFunctor("entersArea", "entersarea")],
}

_GPT4_BEST: Profile = {
    "trawling": [ReplaceRules(_GPT4_TRAWLING)],
    "searchAndRescue": [ReplaceRules(_GPT4_SAR)],
    "anchoredOrMoored": [SwapOperator("intersect_all", "union_all", rule_index=0)],
    "pilotBoarding": [
        DropCondition(rule_index=1, condition_index=0),  # proximity
        RenameFunctor("lowSpeedOrStopped", "slowOrIdle"),
    ],
    "stopped": [
        AddCondition(0, "holdsAt(atBerth(Vessel)=true, T)"),  # undefined activity
        DropRule(5),
    ],
    "movingSpeed": [DropRule(7), DropRule(6)],
    "highSpeedNearCoast": [DropRule(2), RenameFunctor("velocity", "speedReport")],
    "drifting": [DropCondition(rule_index=0, condition_index=3)],  # underWay check
    "loitering": [DropCondition(rule_index=0, condition_index=3)],
    "communicationGap": [SwapArguments("withinArea")],
    "underWay": [SwapOperator("union_all", "intersect_all", rule_index=0)],
    "tugging": [
        DropCondition(rule_index=4, condition_index=1),  # oneIsTug
        DropRule(3),
        RenameFunctor("gap_start", "transmissionLost"),
    ],
    "lowSpeed": [DropRule(2), DropRule(1)],
    "withinArea": [RenameFunctor("leavesArea", "exitsRegion")],
}

_MISTRAL_BEST: Profile = {
    "trawling": [ReplaceRules(_MISTRAL_TRAWLING)],
    "loitering": [ReplaceRules(_MISTRAL_LOITERING)],
    "tugging": [
        DropRule(3),
        DropCondition(rule_index=4, condition_index=1),  # oneIsTug
        RenameFunctor("proximity", "closeTo"),
    ],
    "pilotBoarding": [
        SwapOperator("union_all", "intersect_all", rule_index=0),
        AddCondition(1, "holdsFor(boarding(Vessel1)=true, Ib)", position=3),  # undefined
    ],
    "searchAndRescue": [
        AddCondition(6, "holdsFor(patrolling(Vessel)=true, Ip)", position=2),  # undefined
        DropRule(5),
        DropRule(2),
    ],
    "movingSpeed": [DropRule(8), DropRule(7), DropRule(6), DropRule(5)],
    "highSpeedNearCoast": [DropRule(3), RenameConstant("nearCoast", "coastalZone")],
    "anchoredOrMoored": [DropCondition(rule_index=0, condition_index=3)],
    "drifting": [RenameFunctor("angleDiff", "headingDelta")],
    "stopped": [DropRule(5), DropRule(4)],
    "changingSpeed": [DropRule(2), DropRule(1)],
    "underWay": [SwapOperator("union_all", "intersect_all", rule_index=0)],
    "lowSpeed": [DropRule(2)],
}

_GEMMA2_BEST: Profile = {
    "trawling": [ReplaceRules(_GEMMA_TRAWLING)],
    "tugging": [ReplaceRules(_GEMMA_TUGGING)],
    "searchAndRescue": [ReplaceRules(_GEMMA_SAR)],
    "anchoredOrMoored": [ReplaceRules(_GEMMA_ANCHORED)],
    "loitering": [SwapOperator("union_all", "intersect_all", rule_index=0)],
    "pilotBoarding": [
        DropCondition(rule_index=1, condition_index=1),
        RenameFunctor("proximity", "nearEachOther"),
    ],
    "movingSpeed": [DropRule(8), DropRule(7), DropRule(6), DropRule(4), DropRule(3)],
    "highSpeedNearCoast": [
        DropRule(3),
        DropRule(2),
        AddCondition(0, "holdsAt(speeding(Vessel)=true, T)"),  # undefined
    ],
    "drifting": [DropRule(3), DropRule(2), RenameFunctor("velocity", "velocityReport")],
    "stopped": [DropRule(5), DropRule(4), DropRule(3)],
    "communicationGap": [RenameFunctor("gap_start", "gapBegins")],
    "lowSpeed": [DropRule(2)],
}

# ---------------------------------------------------------------------------
# Degradations applied to the weaker scheme of each model
# ---------------------------------------------------------------------------

_O1_WEAK_EXTRA: Profile = {
    "trawling": [DropRule(4)],
    "drifting": [DropRule(3)],
    "tugging": [RenameFunctor("proximity", "vicinity")],
    "stopped": [DropRule(5)],
}

_GPT4O_WEAK_EXTRA: Profile = {
    "trawling": [ReplaceRules(_GPT4_TRAWLING)],
    "searchAndRescue": [DropRule(5), DropRule(4)],
    "anchoredOrMoored": [DropCondition(rule_index=0, condition_index=3)],
    "drifting": [DropRule(3)],
}

_LLAMA3_WEAK_EXTRA: Profile = {
    "trawling": [DropRule(7), DropRule(4)],
    "anchoredOrMoored": [SwapOperator("intersect_all", "union_all", rule_index=0)],
    "highSpeedNearCoast": [DropRule(3)],
    "searchAndRescue": [DropRule(5)],
}

_GPT4_WEAK_EXTRA: Profile = {
    "tugging": [ReplaceRules(_GEMMA_TUGGING)],
    "lowSpeed": [DropRule(2)],
    "withinArea": [DropRule(2)],
    "changingSpeed": [DropRule(2)],
}

_MISTRAL_WEAK_EXTRA: Profile = {
    "anchoredOrMoored": [ReplaceRules(_GEMMA_ANCHORED)],
    "drifting": [DropRule(3), DropRule(2)],
    "withinArea": [RenameFunctor("entersArea", "enterArea")],
    "communicationGap": [DropRule(3)],
}

_GEMMA2_WEAK_EXTRA: Profile = {
    "loitering": [ReplaceRules(_MISTRAL_LOITERING)],
    "pilotBoarding": [DropRule(0)],
    "withinArea": [DropRule(2), RenameFunctor("entersArea", "areaEntry")],
    "underWay": [SwapOperator("union_all", "intersect_all", rule_index=0)],
    "changingSpeed": [DropRule(2), DropRule(1)],
}


def _merge(base: Profile, extra: Profile) -> Profile:
    merged: Profile = {name: list(transformations) for name, transformations in base.items()}
    for name, transformations in extra.items():
        merged.setdefault(name, [])
        merged[name] = merged[name] + list(transformations)
    return merged


_BEST_PROFILES: Dict[str, Profile] = {
    "o1": _O1_BEST,
    "gpt-4o": _GPT4O_BEST,
    "llama-3": _LLAMA3_BEST,
    "gpt-4": _GPT4_BEST,
    "mistral": _MISTRAL_BEST,
    "gemma-2": _GEMMA2_BEST,
}

_WEAK_EXTRAS: Dict[str, Profile] = {
    "o1": _O1_WEAK_EXTRA,
    "gpt-4o": _GPT4O_WEAK_EXTRA,
    "llama-3": _LLAMA3_WEAK_EXTRA,
    "gpt-4": _GPT4_WEAK_EXTRA,
    "mistral": _MISTRAL_WEAK_EXTRA,
    "gemma-2": _GEMMA2_WEAK_EXTRA,
}


def _zero_shot_profile(model: str) -> Profile:
    """Zero-shot degradation: without the worked examples of prompt F the
    model has never seen either fluent kind, so it sketches a single rule
    per activity and frequently breaks the syntax (the paper found
    zero-shot prompting "produced poor results").
    """
    from repro.maritime.gold import ACTIVITY_GROUPS

    profile = _merge(_BEST_PROFILES[model], _WEAK_EXTRAS[model])
    for index, group in enumerate(ACTIVITY_GROUPS):
        extra: List[Transformation] = [TruncateRules(1)]
        # A deterministic third of the replies are syntactically broken,
        # picked by model index: a str hash would change with PYTHONHASHSEED.
        if (MODEL_NAMES.index(model) + index) % 3 == 0:
            extra.append(CorruptSyntax("drop-final-period"))
        profile.setdefault(group.name, [])
        profile[group.name] = profile[group.name] + extra
    return profile


def profile_for(model: str, scheme: str) -> Profile:
    """The error profile of ``model`` under prompting ``scheme``."""
    if model not in _BEST_PROFILES:
        raise KeyError("unknown model %r; known: %s" % (model, MODEL_NAMES))
    if scheme == ZERO_SHOT:
        return _zero_shot_profile(model)
    if scheme not in (FEW_SHOT, CHAIN_OF_THOUGHT):
        raise ValueError("unknown prompting scheme %r" % scheme)
    best = _BEST_PROFILES[model]
    if scheme == BEST_SCHEME[model]:
        return {name: list(transformations) for name, transformations in best.items()}
    return _merge(best, _WEAK_EXTRAS[model])

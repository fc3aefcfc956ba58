"""The hand-crafted gold-standard event description (after Pitsikalis et al. 2019).

This is the reproduction's stand-in for the publicly available event
description of [33] that the paper uses as the gold standard: RTEC
definitions for the eight composite maritime activities of Figure 2 —
``highSpeedNearCoast`` (h), ``anchoredOrMoored`` (aM), ``trawling`` (tr),
``tugging`` (tu), ``pilotBoarding`` (p), ``loitering`` (l),
``searchAndRescue`` (s) and ``drifting`` (d) — together with the
lower-level activities they depend on, forming the activity hierarchy that
RTEC caches bottom-up.

Each activity comes with the natural-language description that is fed to
the LLM in prompt G (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

from repro.logic.parser import Rule, parse_program
from repro.rtec.description import EventDescription, FluentKey, Vocabulary

__all__ = [
    "ActivityGroup",
    "ACTIVITY_GROUPS",
    "COMPOSITE_ACTIVITIES",
    "ACTIVITY_SHORT_LABELS",
    "MARITIME_VOCABULARY",
    "INPUT_EVENT_MEANINGS",
    "INPUT_FLUENT_MEANINGS",
    "THRESHOLD_MEANINGS",
    "gold_event_description",
    "gold_rules_text",
    "activity_group",
    "activity_rules_text",
]


@dataclass(frozen=True)
class ActivityGroup:
    """One unit of generation: an activity with its natural-language
    description, the fluent schemas its definition introduces, and its
    gold-standard rules."""

    name: str
    description: str
    fluents: Tuple[FluentKey, ...]
    rules_text: str
    kind: str  # 'simple' | 'static' — the kind of the top-level fluent

    @cached_property
    def rules(self) -> Tuple[Rule, ...]:
        """``rules_text`` parsed once per group, shared by every reader
        (``cached_property`` writes ``__dict__``, which a frozen dataclass allows)."""
        return tuple(parse_program(self.rules_text))


# ---------------------------------------------------------------------------
# Support activities (lower levels of the hierarchy)
# ---------------------------------------------------------------------------

_WITHIN_AREA = ActivityGroup(
    name="withinArea",
    description=(
        "Within area: this activity starts when a vessel enters an area of "
        "interest and ends when the vessel leaves the area that it had "
        "entered. When there is a gap in signal transmissions, we can no "
        "longer assume that the vessel remains in the same area."
    ),
    fluents=(("withinArea", 2),),
    kind="simple",
    rules_text="""
initiatedAt(withinArea(Vessel, AreaType)=true, T) :-
    happensAt(entersArea(Vessel, Area), T),
    areaType(Area, AreaType).

terminatedAt(withinArea(Vessel, AreaType)=true, T) :-
    happensAt(leavesArea(Vessel, Area), T),
    areaType(Area, AreaType).

terminatedAt(withinArea(Vessel, AreaType)=true, T) :-
    happensAt(gap_start(Vessel), T).
""",
)

_GAP = ActivityGroup(
    name="communicationGap",
    description=(
        "Communication gap: a communication gap starts when we stop "
        "receiving messages from a vessel. We would like to distinguish the "
        "cases where a communication gap starts (i) near some port and (ii) "
        "far from all ports. A communication gap ends when we resume "
        "receiving messages from a vessel."
    ),
    fluents=(("gap", 1),),
    kind="simple",
    rules_text="""
initiatedAt(gap(Vessel)=nearPorts, T) :-
    happensAt(gap_start(Vessel), T),
    holdsAt(withinArea(Vessel, nearPorts)=true, T).

initiatedAt(gap(Vessel)=farFromPorts, T) :-
    happensAt(gap_start(Vessel), T),
    not holdsAt(withinArea(Vessel, nearPorts)=true, T).

terminatedAt(gap(Vessel)=nearPorts, T) :-
    happensAt(gap_end(Vessel), T).

terminatedAt(gap(Vessel)=farFromPorts, T) :-
    happensAt(gap_end(Vessel), T).
""",
)

_STOPPED = ActivityGroup(
    name="stopped",
    description=(
        "Stopped: a vessel is stopped while it is idle, i.e. from the "
        "moment its movement stops until the moment its movement resumes. "
        "We would like to distinguish the cases where the vessel is stopped "
        "(i) near some port and (ii) far from all ports. When a "
        "communication gap starts we can no longer assume that the vessel "
        "is stopped."
    ),
    fluents=(("stopped", 1),),
    kind="simple",
    rules_text="""
initiatedAt(stopped(Vessel)=nearPorts, T) :-
    happensAt(stop_start(Vessel), T),
    holdsAt(withinArea(Vessel, nearPorts)=true, T).

initiatedAt(stopped(Vessel)=farFromPorts, T) :-
    happensAt(stop_start(Vessel), T),
    not holdsAt(withinArea(Vessel, nearPorts)=true, T).

terminatedAt(stopped(Vessel)=nearPorts, T) :-
    happensAt(stop_end(Vessel), T).

terminatedAt(stopped(Vessel)=farFromPorts, T) :-
    happensAt(stop_end(Vessel), T).

terminatedAt(stopped(Vessel)=nearPorts, T) :-
    happensAt(gap_start(Vessel), T).

terminatedAt(stopped(Vessel)=farFromPorts, T) :-
    happensAt(gap_start(Vessel), T).
""",
)

_LOW_SPEED = ActivityGroup(
    name="lowSpeed",
    description=(
        "Low speed: a vessel sails at low speed from the moment its slow "
        "motion starts until the moment its slow motion ends. When a "
        "communication gap starts we can no longer assume that the vessel "
        "sails at low speed."
    ),
    fluents=(("lowSpeed", 1),),
    kind="simple",
    rules_text="""
initiatedAt(lowSpeed(Vessel)=true, T) :-
    happensAt(slow_motion_start(Vessel), T).

terminatedAt(lowSpeed(Vessel)=true, T) :-
    happensAt(slow_motion_end(Vessel), T).

terminatedAt(lowSpeed(Vessel)=true, T) :-
    happensAt(gap_start(Vessel), T).
""",
)

_CHANGING_SPEED = ActivityGroup(
    name="changingSpeed",
    description=(
        "Changing speed: a vessel is changing its speed from the moment a "
        "change in speed starts until the moment the change in speed ends. "
        "When a communication gap starts we can no longer assume that the "
        "vessel is changing its speed."
    ),
    fluents=(("changingSpeed", 1),),
    kind="simple",
    rules_text="""
initiatedAt(changingSpeed(Vessel)=true, T) :-
    happensAt(change_in_speed_start(Vessel), T).

terminatedAt(changingSpeed(Vessel)=true, T) :-
    happensAt(change_in_speed_end(Vessel), T).

terminatedAt(changingSpeed(Vessel)=true, T) :-
    happensAt(gap_start(Vessel), T).
""",
)

_MOVING_SPEED = ActivityGroup(
    name="movingSpeed",
    description=(
        "Moving speed: while a vessel is moving, i.e. sailing at or above "
        "the minimum moving speed, we would like to know whether it moves "
        "(i) below the typical service speed range of the vessel, (ii) "
        "within that range, i.e. at normal speed, or (iii) above that "
        "range. The service speed range of each vessel is part of the "
        "background knowledge. The activity ends when the vessel's speed "
        "drops below the minimum moving speed, or when a communication gap "
        "starts."
    ),
    fluents=(("movingSpeed", 1),),
    kind="simple",
    rules_text="""
initiatedAt(movingSpeed(Vessel)=below, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(movingMin, MovingMin),
    Speed >= MovingMin,
    vesselSpeedRange(Vessel, MinSpeed, MaxSpeed),
    Speed < MinSpeed.

initiatedAt(movingSpeed(Vessel)=normal, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    vesselSpeedRange(Vessel, MinSpeed, MaxSpeed),
    Speed >= MinSpeed,
    Speed =< MaxSpeed.

initiatedAt(movingSpeed(Vessel)=above, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    vesselSpeedRange(Vessel, MinSpeed, MaxSpeed),
    Speed > MaxSpeed.

terminatedAt(movingSpeed(Vessel)=below, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(movingMin, MovingMin),
    Speed < MovingMin.

terminatedAt(movingSpeed(Vessel)=normal, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(movingMin, MovingMin),
    Speed < MovingMin.

terminatedAt(movingSpeed(Vessel)=above, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(movingMin, MovingMin),
    Speed < MovingMin.

terminatedAt(movingSpeed(Vessel)=below, T) :-
    happensAt(gap_start(Vessel), T).

terminatedAt(movingSpeed(Vessel)=normal, T) :-
    happensAt(gap_start(Vessel), T).

terminatedAt(movingSpeed(Vessel)=above, T) :-
    happensAt(gap_start(Vessel), T).
""",
)

_UNDER_WAY = ActivityGroup(
    name="underWay",
    description="Under way: this activity lasts as long as a vessel is moving, at any moving speed.",
    fluents=(("underWay", 1),),
    kind="static",
    rules_text="""
holdsFor(underWay(Vessel)=true, I) :-
    holdsFor(movingSpeed(Vessel)=below, I1),
    holdsFor(movingSpeed(Vessel)=normal, I2),
    holdsFor(movingSpeed(Vessel)=above, I3),
    union_all([I1, I2, I3], I).
""",
)

# ---------------------------------------------------------------------------
# The eight composite activities of Figure 2
# ---------------------------------------------------------------------------

_HIGH_SPEED_NC = ActivityGroup(
    name="highSpeedNearCoast",
    description=(
        "High speed near coast: a vessel sails at high speed near the "
        "coast from the moment its speed, while it is in a coastal area, "
        "exceeds the maximum safe coastal sailing speed. The activity ends "
        "when the vessel's speed no longer exceeds that threshold, when the "
        "vessel leaves the coastal area, or when a communication gap "
        "starts."
    ),
    fluents=(("highSpeedNearCoast", 1),),
    kind="simple",
    rules_text="""
initiatedAt(highSpeedNearCoast(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(hcNearCoastMax, HcNearCoastMax),
    Speed > HcNearCoastMax,
    holdsAt(withinArea(Vessel, nearCoast)=true, T).

terminatedAt(highSpeedNearCoast(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(hcNearCoastMax, HcNearCoastMax),
    Speed =< HcNearCoastMax.

terminatedAt(highSpeedNearCoast(Vessel)=true, T) :-
    happensAt(leavesArea(Vessel, Area), T),
    areaType(Area, nearCoast).

terminatedAt(highSpeedNearCoast(Vessel)=true, T) :-
    happensAt(gap_start(Vessel), T).
""",
)

_ANCHORED_OR_MOORED = ActivityGroup(
    name="anchoredOrMoored",
    description=(
        "Anchored or moored: a vessel is anchored when it is stopped far "
        "from all ports while within an anchorage area; a vessel is moored "
        "when it is stopped near some port. The activity lasts as long as "
        "the vessel is anchored or moored."
    ),
    fluents=(("anchoredOrMoored", 1),),
    kind="static",
    rules_text="""
holdsFor(anchoredOrMoored(Vessel)=true, I) :-
    holdsFor(stopped(Vessel)=farFromPorts, Isf),
    holdsFor(withinArea(Vessel, anchorage)=true, Ia),
    intersect_all([Isf, Ia], Isfa),
    holdsFor(stopped(Vessel)=nearPorts, Isn),
    union_all([Isfa, Isn], I).
""",
)

_TRAWLING = ActivityGroup(
    name="trawling",
    description=(
        "Trawling: trawling is performed by fishing vessels inside fishing "
        "areas. A fishing vessel sails at trawling speed from the moment "
        "its speed, while it is in a fishing area, enters the typical "
        "trawling speed range, until its speed leaves that range, the "
        "vessel leaves the fishing area, or a communication gap starts. "
        "Moreover, a vessel exhibits trawling movement from the moment it "
        "changes its heading while in a fishing area until it leaves the "
        "fishing area or a communication gap starts. A vessel is trawling "
        "for as long as it sails at trawling speed and exhibits trawling "
        "movement at the same time."
    ),
    fluents=(("trawlSpeed", 1), ("trawlingMovement", 1), ("trawling", 1)),
    kind="static",
    rules_text="""
initiatedAt(trawlSpeed(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    vesselType(Vessel, fishing),
    thresholds(trawlspeedMin, TrawlspeedMin),
    thresholds(trawlspeedMax, TrawlspeedMax),
    Speed >= TrawlspeedMin,
    Speed =< TrawlspeedMax,
    holdsAt(withinArea(Vessel, fishing)=true, T).

terminatedAt(trawlSpeed(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(trawlspeedMin, TrawlspeedMin),
    Speed < TrawlspeedMin.

terminatedAt(trawlSpeed(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(trawlspeedMax, TrawlspeedMax),
    Speed > TrawlspeedMax.

terminatedAt(trawlSpeed(Vessel)=true, T) :-
    happensAt(leavesArea(Vessel, Area), T),
    areaType(Area, fishing).

terminatedAt(trawlSpeed(Vessel)=true, T) :-
    happensAt(gap_start(Vessel), T).

initiatedAt(trawlingMovement(Vessel)=true, T) :-
    happensAt(change_in_heading(Vessel), T),
    holdsAt(withinArea(Vessel, fishing)=true, T).

terminatedAt(trawlingMovement(Vessel)=true, T) :-
    happensAt(leavesArea(Vessel, Area), T),
    areaType(Area, fishing).

terminatedAt(trawlingMovement(Vessel)=true, T) :-
    happensAt(gap_start(Vessel), T).

holdsFor(trawling(Vessel)=true, I) :-
    holdsFor(trawlSpeed(Vessel)=true, Is),
    holdsFor(trawlingMovement(Vessel)=true, Im),
    intersect_all([Is, Im], I).
""",
)

_TUGGING = ActivityGroup(
    name="tugging",
    description=(
        "Tugging: a vessel sails at tugging speed from the moment its "
        "speed enters the typical tugging speed range until its speed "
        "leaves that range or a communication gap starts. Two vessels, one "
        "of which is a tug boat, are engaged in tugging for as long as "
        "they are in close proximity and both sail at tugging speed."
    ),
    fluents=(("tuggingSpeed", 1), ("tugging", 2)),
    kind="static",
    rules_text="""
initiatedAt(tuggingSpeed(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(tuggingMin, TuggingMin),
    thresholds(tuggingMax, TuggingMax),
    Speed >= TuggingMin,
    Speed =< TuggingMax.

terminatedAt(tuggingSpeed(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(tuggingMin, TuggingMin),
    Speed < TuggingMin.

terminatedAt(tuggingSpeed(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(tuggingMax, TuggingMax),
    Speed > TuggingMax.

terminatedAt(tuggingSpeed(Vessel)=true, T) :-
    happensAt(gap_start(Vessel), T).

holdsFor(tugging(Vessel1, Vessel2)=true, I) :-
    holdsFor(proximity(Vessel1, Vessel2)=true, Ip),
    oneIsTug(Vessel1, Vessel2),
    holdsFor(tuggingSpeed(Vessel1)=true, I1),
    holdsFor(tuggingSpeed(Vessel2)=true, I2),
    intersect_all([Ip, I1, I2], I).
""",
)

_PILOT_BOARDING = ActivityGroup(
    name="pilotBoarding",
    description=(
        "Pilot boarding: a vessel is at low speed or stopped for as long "
        "as it sails at low speed or it is stopped far from all ports. Two "
        "vessels, one of which is a pilot vessel, are engaged in pilot "
        "boarding for as long as they are in close proximity and both are "
        "at low speed or stopped."
    ),
    fluents=(("lowSpeedOrStopped", 1), ("pilotBoarding", 2)),
    kind="static",
    rules_text="""
holdsFor(lowSpeedOrStopped(Vessel)=true, I) :-
    holdsFor(lowSpeed(Vessel)=true, Il),
    holdsFor(stopped(Vessel)=farFromPorts, Is),
    union_all([Il, Is], I).

holdsFor(pilotBoarding(Vessel1, Vessel2)=true, I) :-
    holdsFor(proximity(Vessel1, Vessel2)=true, Ip),
    oneIsPilot(Vessel1, Vessel2),
    holdsFor(lowSpeedOrStopped(Vessel1)=true, I1),
    holdsFor(lowSpeedOrStopped(Vessel2)=true, I2),
    intersect_all([Ip, I1, I2], I).
""",
)

_LOITERING = ActivityGroup(
    name="loitering",
    description=(
        "Loitering: a vessel is loitering for as long as it sails at low "
        "speed or it is stopped far from all ports, excluding the periods "
        "during which it is anchored or moored."
    ),
    fluents=(("loitering", 1),),
    kind="static",
    rules_text="""
holdsFor(loitering(Vessel)=true, I) :-
    holdsFor(lowSpeed(Vessel)=true, Il),
    holdsFor(stopped(Vessel)=farFromPorts, Is),
    union_all([Il, Is], Ils),
    holdsFor(anchoredOrMoored(Vessel)=true, Ia),
    relative_complement_all(Ils, [Ia], I).
""",
)

_SAR = ActivityGroup(
    name="searchAndRescue",
    description=(
        "Search and rescue: search-and-rescue operations are performed by "
        "dedicated SAR vessels. A SAR vessel sails at SAR speed from the "
        "moment its speed exceeds the minimum SAR speed until its speed "
        "drops below that threshold or a communication gap starts. A SAR "
        "vessel exhibits SAR movement from the moment it changes its "
        "heading while sailing at SAR speed, until its movement stops or a "
        "communication gap starts. A vessel is engaged in search and "
        "rescue for as long as it sails at SAR speed and exhibits SAR "
        "movement at the same time."
    ),
    fluents=(("sarSpeed", 1), ("sarMovement", 1), ("searchAndRescue", 1)),
    kind="static",
    rules_text="""
initiatedAt(sarSpeed(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    vesselType(Vessel, sar),
    thresholds(sarMinSpeed, SarMinSpeed),
    Speed >= SarMinSpeed.

terminatedAt(sarSpeed(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(sarMinSpeed, SarMinSpeed),
    Speed < SarMinSpeed.

terminatedAt(sarSpeed(Vessel)=true, T) :-
    happensAt(gap_start(Vessel), T).

initiatedAt(sarMovement(Vessel)=true, T) :-
    happensAt(change_in_heading(Vessel), T),
    holdsAt(sarSpeed(Vessel)=true, T).

terminatedAt(sarMovement(Vessel)=true, T) :-
    happensAt(stop_start(Vessel), T).

terminatedAt(sarMovement(Vessel)=true, T) :-
    happensAt(gap_start(Vessel), T).

holdsFor(searchAndRescue(Vessel)=true, I) :-
    holdsFor(sarSpeed(Vessel)=true, Is),
    holdsFor(sarMovement(Vessel)=true, Im),
    intersect_all([Is, Im], I).
""",
)

_DRIFTING = ActivityGroup(
    name="drifting",
    description=(
        "Drifting: a vessel is drifting from the moment the difference "
        "between its course over ground and its true heading, while it is "
        "under way, exceeds the drift angle threshold. The activity ends "
        "when this difference no longer exceeds the threshold, when the "
        "vessel's movement stops, or when a communication gap starts."
    ),
    fluents=(("drifting", 1),),
    kind="simple",
    rules_text="""
initiatedAt(drifting(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(adriftAngThr, AdriftAngThr),
    angleDiff(CourseOverGround, TrueHeading) > AdriftAngThr,
    holdsAt(underWay(Vessel)=true, T).

terminatedAt(drifting(Vessel)=true, T) :-
    happensAt(velocity(Vessel, Speed, CourseOverGround, TrueHeading), T),
    thresholds(adriftAngThr, AdriftAngThr),
    angleDiff(CourseOverGround, TrueHeading) =< AdriftAngThr.

terminatedAt(drifting(Vessel)=true, T) :-
    happensAt(stop_start(Vessel), T).

terminatedAt(drifting(Vessel)=true, T) :-
    happensAt(gap_start(Vessel), T).
""",
)

# ---------------------------------------------------------------------------
# Public structures
# ---------------------------------------------------------------------------

#: Generation order: lower levels of the activity hierarchy first, so a
#: definition may use "any of the activities formalised so far" (prompt G).
ACTIVITY_GROUPS: Tuple[ActivityGroup, ...] = (
    _WITHIN_AREA,
    _GAP,
    _STOPPED,
    _LOW_SPEED,
    _CHANGING_SPEED,
    _MOVING_SPEED,
    _UNDER_WAY,
    _HIGH_SPEED_NC,
    _ANCHORED_OR_MOORED,
    _TRAWLING,
    _TUGGING,
    _PILOT_BOARDING,
    _LOITERING,
    _SAR,
    _DRIFTING,
)

#: The eight composite activities of Figure 2, in plotting order.
COMPOSITE_ACTIVITIES: Tuple[str, ...] = (
    "highSpeedNearCoast",
    "anchoredOrMoored",
    "trawling",
    "tugging",
    "pilotBoarding",
    "loitering",
    "searchAndRescue",
    "drifting",
)

#: Short axis labels used in Figure 2 of the paper.
ACTIVITY_SHORT_LABELS: Dict[str, str] = {
    "highSpeedNearCoast": "h",
    "anchoredOrMoored": "aM",
    "trawling": "tr",
    "tugging": "tu",
    "pilotBoarding": "p",
    "loitering": "l",
    "searchAndRescue": "s",
    "drifting": "d",
}

MARITIME_VOCABULARY = Vocabulary(
    input_events=frozenset(
        {
            ("velocity", 4),
            ("change_in_speed_start", 1),
            ("change_in_speed_end", 1),
            ("change_in_heading", 1),
            ("stop_start", 1),
            ("stop_end", 1),
            ("slow_motion_start", 1),
            ("slow_motion_end", 1),
            ("gap_start", 1),
            ("gap_end", 1),
            ("entersArea", 2),
            ("leavesArea", 2),
        }
    ),
    input_fluents=frozenset({("proximity", 2)}),
    background=frozenset(
        {
            ("areaType", 2),
            ("vesselType", 2),
            ("vesselSpeedRange", 3),
            ("thresholds", 2),
            ("oneIsTug", 2),
            ("oneIsPilot", 2),
        }
    ),
)

#: Meanings shown in prompt E (input events and fluents).
INPUT_EVENT_MEANINGS: Dict[str, str] = {
    "velocity(Vessel, Speed, CourseOverGround, TrueHeading)": (
        "'Vessel' reported its speed (knots), course over ground and true "
        "heading (degrees)."
    ),
    "change_in_speed_start(Vessel)": "'Vessel' started changing its speed.",
    "change_in_speed_end(Vessel)": "'Vessel' stopped changing its speed.",
    "change_in_heading(Vessel)": "'Vessel' changed its heading.",
    "stop_start(Vessel)": "'Vessel' stopped moving.",
    "stop_end(Vessel)": "'Vessel' resumed moving.",
    "slow_motion_start(Vessel)": "'Vessel' started moving at low speed.",
    "slow_motion_end(Vessel)": "'Vessel' stopped moving at low speed.",
    "gap_start(Vessel)": "We stopped receiving messages from 'Vessel'.",
    "gap_end(Vessel)": "We resumed receiving messages from 'Vessel'.",
    "entersArea(Vessel, Area)": "'Vessel' entered the area 'Area'.",
    "leavesArea(Vessel, Area)": "'Vessel' left the area 'Area'.",
}

INPUT_FLUENT_MEANINGS: Dict[str, str] = {
    "proximity(Vessel1, Vessel2)=true": (
        "The intervals during which 'Vessel1' and 'Vessel2' are in close "
        "proximity; vessel pairs are given in lexicographic order."
    ),
}

THRESHOLD_MEANINGS: Dict[str, str] = {
    "movingMin": "The minimum speed at which a vessel counts as moving.",
    "hcNearCoastMax": (
        "The maximum sailing speed that is safe for a vessel to have in a "
        "coastal area."
    ),
    "trawlspeedMin": "The minimum typical trawling speed.",
    "trawlspeedMax": "The maximum typical trawling speed.",
    "tuggingMin": "The minimum typical tugging speed.",
    "tuggingMax": "The maximum typical tugging speed.",
    "sarMinSpeed": "The minimum speed during a search-and-rescue operation.",
    "adriftAngThr": (
        "The minimum difference between course over ground and true heading "
        "indicating that a vessel is adrift."
    ),
}


def gold_rules_text() -> str:
    """The complete gold-standard event description as RTEC text."""
    return "\n".join(group.rules_text.strip() + "\n" for group in ACTIVITY_GROUPS)


def gold_event_description() -> EventDescription:
    """The complete gold-standard event description, parsed and classified."""
    return EventDescription.from_text(gold_rules_text())


def activity_group(name: str) -> ActivityGroup:
    """The activity group called ``name``."""
    for group in ACTIVITY_GROUPS:
        if group.name == name:
            return group
    raise KeyError("unknown activity group %r" % name)


def activity_rules_text(name: str) -> str:
    """The gold rules of one activity group (by group name)."""
    return activity_group(name).rules_text.strip() + "\n"

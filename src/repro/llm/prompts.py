"""Prompt builders for the pipeline of Figure 1 (Section 3).

The pipeline teaches the LLM the RTEC language (prompt R), the two kinds of
composite activity definition via few-shot or chain-of-thought examples
(prompts F*/F), the items of the input stream (prompt E), the domain
thresholds (prompt T), and finally asks for each composite activity
definition from its natural-language description (prompt G).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.domain import GoldDomain

__all__ = [
    "FEW_SHOT",
    "CHAIN_OF_THOUGHT",
    "PROMPT_SCHEMES",
    "prompt_r",
    "prompt_f",
    "prompt_e",
    "prompt_t",
    "prompt_g",
    "prompt_repair",
    "REPAIR_MARKER",
]

FEW_SHOT = "few-shot"
CHAIN_OF_THOUGHT = "chain-of-thought"
#: Zero-shot prompting skips prompt F entirely. The paper evaluated it and
#: found it "produced poor results, and thus we do not include it in our
#: pipeline" — it is supported here so that claim can be reproduced.
ZERO_SHOT = "zero-shot"

#: The schemes of the paper's pipeline (Figure 1).
PROMPT_SCHEMES = (FEW_SHOT, CHAIN_OF_THOUGHT)

#: All supported schemes, including the excluded zero-shot baseline.
ALL_PROMPT_SCHEMES = (FEW_SHOT, CHAIN_OF_THOUGHT, ZERO_SHOT)

_WITHIN_AREA_RULE_1 = """initiatedAt(withinArea(Vessel, AreaType)=true, T) :-
    happensAt(entersArea(Vessel, Area), T),
    areaType(Area, AreaType)."""

_WITHIN_AREA_RULE_2 = """terminatedAt(withinArea(Vessel, AreaType)=true, T) :-
    happensAt(leavesArea(Vessel, Area), T),
    areaType(Area, AreaType)."""

_WITHIN_AREA_RULE_3 = """terminatedAt(withinArea(Vessel, AreaType)=true, T) :-
    happensAt(gap_start(Vessel), T)."""

_UNDER_WAY_RULE = """holdsFor(underWay(Vessel)=true, I) :-
    holdsFor(movingSpeed(Vessel)=below, I1),
    holdsFor(movingSpeed(Vessel)=normal, I2),
    holdsFor(movingSpeed(Vessel)=above, I3),
    union_all([I1, I2, I3], I)."""


def prompt_r() -> str:
    """Prompt R: the syntax of the RTEC language (Definitions 2.2 and 2.4)."""
    return (
        "You will write composite activity definitions in the language of "
        "RTEC, the Run-Time Event Calculus. RTEC uses a linear time-line "
        "with non-negative integer time-points. happensAt(E, T) signifies "
        "that event E occurs at time-point T. A fluent-value pair F=V "
        "denotes that fluent F has value V. initiatedAt(F=V, T) (resp. "
        "terminatedAt(F=V, T)) expresses that a period during which F=V "
        "holds continuously is initiated (terminated) at T. holdsAt(F=V, T) "
        "states that F has value V at T, while holdsFor(F=V, I) expresses "
        "that F=V holds continuously in the maximal intervals of list I.\n\n"
        "The body of an initiatedAt or terminatedAt rule starts with a "
        "positive happensAt predicate, followed by a possibly empty set of "
        "positive or negative happensAt and holdsAt predicates, atemporal "
        "background predicates, and comparisons; negation-by-failure is "
        "written with the prefix 'not'. All predicates are evaluated on the "
        "same time-point T.\n\n"
        "The body of a holdsFor rule contains holdsFor predicates over "
        "fluent-value pairs other than the one in the head, atemporal "
        "background predicates, and the interval manipulation constructs "
        "union_all(L, I), intersect_all(L, I) and "
        "relative_complement_all(I', L, I), where L is a list of interval "
        "lists computed earlier in the body. Rules end with a full stop."
    )


def prompt_f(scheme: str) -> str:
    """Prompt F (chain-of-thought) or F* (few-shot): simple vs statically
    determined fluents, with two worked example definitions."""
    if scheme not in PROMPT_SCHEMES:
        raise ValueError("unknown prompting scheme %r" % scheme)
    parts = [
        "There are two ways in which a composite activity may be defined in "
        "the language of RTEC. In the first case, a composite activity "
        "definition may be specified by means of rules with "
        "initiatedAt(F=V, T) or terminatedAt(F=V, T) in their head. This is "
        "called a simple fluent definition.",
        "",
        "Example 1: Given a composite maritime activity description, "
        "provide the rules in the language of RTEC. Composite Maritime "
        "Activity Description: 'withinArea'. This activity starts when a "
        "vessel enters an area of interest. The activity ends when the "
        "vessel leaves the area that it had entered. When there is a gap "
        "in signal transmissions, we can no longer assume that the vessel "
        "remains in the same area.",
        "",
    ]
    if scheme == CHAIN_OF_THOUGHT:
        parts += [
            "Answer: The activity 'withinArea' is expressed as a simple "
            "fluent. This activity starts when a vessel enters an area of "
            "interest. We use an 'initiatedAt' rule to express this "
            "initiation condition. The output is a boolean fluent named "
            "'withinArea' with two arguments, i.e. 'Vessel' and 'AreaType'.",
            "",
        ]
    parts += [_WITHIN_AREA_RULE_1, ""]
    if scheme == CHAIN_OF_THOUGHT:
        parts += [
            "The activity 'withinArea' ends when a vessel leaves the area "
            "that it had entered. We use a 'terminatedAt' rule to describe "
            "this termination condition.",
            "",
        ]
    parts += [_WITHIN_AREA_RULE_2, ""]
    if scheme == CHAIN_OF_THOUGHT:
        parts += [
            "The activity 'withinArea' ends when a communication gap "
            "starts. We use a 'terminatedAt' rule to express this "
            "termination condition.",
            "",
        ]
    parts += [
        _WITHIN_AREA_RULE_3,
        "",
        "A composite activity definition may also be specified by means of "
        "one rule with holdsFor(F=V, I) in its head. This is called a "
        "statically determined fluent definition.",
        "",
        "Example 2: Given a composite maritime activity description, "
        "provide the rules in the language of RTEC. Composite Maritime "
        "Activity Description: 'underWay'. This activity lasts as long as "
        "a vessel is not stopped.",
        "",
    ]
    if scheme == CHAIN_OF_THOUGHT:
        parts += [
            "Answer: The activity 'underWay' is expressed as a statically "
            "determined fluent. We express 'underWay' as the disjunction of "
            "the three values of 'movingSpeed', i.e. 'below', 'normal' and "
            "'above'. Disjunction in 'holdsFor' rules is expressed by means "
            "of 'union_all'.",
            "",
        ]
    parts += [_UNDER_WAY_RULE]
    return "\n".join(parts)


def prompt_e(domain: "GoldDomain") -> str:
    """Prompt E: the input events and input fluents of the domain."""
    lines = ["You may use the following input events:", ""]
    for index, (signature, meaning) in enumerate(domain.event_meanings.items(), start=1):
        lines.append("Input Event %d: %s" % (index, signature))
        lines.append("Meaning: %s" % meaning)
        lines.append("")
    lines.append("You may use the following input fluents:")
    lines.append("")
    for index, (signature, meaning) in enumerate(domain.fluent_meanings.items(), start=1):
        lines.append("Input Fluent %d: %s" % (index, signature))
        lines.append("Meaning: %s" % meaning)
        lines.append("")
    return "\n".join(lines).rstrip()


def prompt_t(domain: "GoldDomain") -> str:
    """Prompt T: the domain thresholds, via the ``thresholds/2`` predicate,
    and the domain's atemporal background predicates."""
    lines = [
        "You may use a predicate named 'thresholds' with two arguments. "
        "The first argument refers to the threshold type and the second "
        "one to the threshold value. Threshold values can be used to "
        "perform mathematical operations and comparisons. " + domain.background_note,
        "",
    ]
    for index, (name, value) in enumerate(domain.thresholds.items(), start=1):
        camel = name[0].upper() + name[1:]
        lines.append("Threshold %d: thresholds(%s, %s)" % (index, name, camel))
        meaning = domain.threshold_meanings.get(name, "")
        if meaning:
            lines.append("Meaning: %s (default value %s)" % (meaning, value))
        lines.append("")
    return "\n".join(lines).rstrip()


def prompt_g(description: str, domain: str) -> str:
    """Prompt G: ask for one composite activity definition.

    ``domain`` labels the request (:attr:`repro.domain.GoldDomain.name`,
    "Maritime" in the paper's evaluation; other domains reuse the same
    prompt, per Section 6).
    """
    return (
        "Given a composite %s activity description, provide the "
        "rules in RTEC formalization. You may use any of the "
        "aforementioned input events and fluents, and threshold values. "
        "You may use any of the output fluents that you have already "
        "learned.\n\n"
        "%s Composite Activity Description - %s"
        % (domain.lower(), domain, description)
    )


#: The sentence opening a repair prompt; clients (and the simulated model)
#: recognise a repair round by its presence in the last user message.
REPAIR_MARKER = "Repair request - "


def prompt_repair(
    description: str,
    current_text: str,
    diagnostics_text: str,
    domain: str,
) -> str:
    """The repair prompt: current definition plus analyser diagnostics.

    Built by the repair loop (:mod:`repro.analysis.repair`) for each
    activity whose diagnostics could not be fixed mechanically. The prompt
    restates the activity description in the same ``Composite Activity
    Description -`` framing as prompt G so the model knows which activity
    to re-derive, quotes the current (possibly auto-fixed) definition, and
    renders the unresolved diagnostics verbatim.
    """
    return (
        "%sThe definition you provided for the following composite "
        "activity was checked by a static analyser and problems remain. "
        "Provide corrected rules in RTEC formalization, fixing every "
        "reported problem while keeping the parts that are already "
        "correct.\n\n"
        "%s Composite Activity Description - %s\n\n"
        "Your current definition:\n\n%s\n\n"
        "Analyser diagnostics:\n\n%s"
        % (REPAIR_MARKER, domain, description, current_text, diagnostics_text)
    )

"""The prompting pipeline of Figure 1.

:class:`GenerationPipeline` drives any :class:`~repro.llm.interface.LLMClient`
through the paper's prompt sequence — RTEC syntax (R), fluent kinds with
few-shot or chain-of-thought examples (F*/F), input events and fluents (E),
thresholds (T) — and then requests one definition per composite activity
(G), accumulating the conversation so that later definitions may build on
earlier ones ("you may use any of the output fluents that you have already
learned"). Each reply is parsed; parse failures are recorded, not raised —
LLM output is data, not trusted code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro import telemetry
from repro.llm.interface import ChatMessage, LLMClient
from repro.llm.prompts import (
    ALL_PROMPT_SCHEMES,
    ZERO_SHOT,
    prompt_e,
    prompt_f,
    prompt_g,
    prompt_r,
    prompt_t,
)
from repro.logic.parser import ParseError, Rule, parse_program
from repro.logic.pretty import program_to_str
from repro.rtec.description import EventDescription

if TYPE_CHECKING:
    from repro.domain import GoldDomain
    from repro.maritime.gold import ActivityGroup

__all__ = [
    "GeneratedActivity",
    "GeneratedEventDescription",
    "GenerationPipeline",
]


@dataclass
class GeneratedActivity:
    """The LLM's output for one activity description."""

    group: "ActivityGroup"
    raw_text: str
    rules: List[Rule] = field(default_factory=list)
    parse_error: Optional[str] = None

    @property
    def name(self) -> str:
        return self.group.name

    @property
    def headline(self) -> str:
        """The functor of the top-level fluent this activity defines."""
        return self.group.fluents[-1][0]


@dataclass
class GeneratedEventDescription:
    """A full event description generated by one model under one scheme,
    one activity per group of its domain."""

    model: str
    scheme: str
    activities: List[GeneratedActivity]
    domain: "GoldDomain"

    def all_rules(self) -> List[Rule]:
        rules: List[Rule] = []
        for activity in self.activities:
            rules.extend(activity.rules)
        return rules

    def rules_for(self, group_name: str) -> List[Rule]:
        for activity in self.activities:
            if activity.name == group_name:
                return list(activity.rules)
        raise KeyError("no generated activity named %r" % group_name)

    def activity(self, group_name: str) -> GeneratedActivity:
        for activity in self.activities:
            if activity.name == group_name:
                return activity
        raise KeyError("no generated activity named %r" % group_name)

    def activity_of(self, rule_index: Optional[int]) -> Optional[int]:
        """The index of the activity owning rule ``rule_index`` of
        :meth:`all_rules` (the rule indices diagnostics carry)."""
        if rule_index is None:
            return None
        offset = 0
        for index, activity in enumerate(self.activities):
            if rule_index < offset + len(activity.rules):
                return index
            offset += len(activity.rules)
        return None

    def to_event_description(self) -> EventDescription:
        return EventDescription(self.all_rules())

    def to_text(self) -> str:
        return program_to_str(self.all_rules())

    @property
    def parse_errors(self) -> Dict[str, str]:
        return {
            activity.name: activity.parse_error
            for activity in self.activities
            if activity.parse_error
        }


class GenerationPipeline:
    """Drives an LLM client through prompts R, F/F*, E, T and G."""

    def __init__(self, client: LLMClient, scheme: str, domain: "GoldDomain") -> None:
        if scheme not in ALL_PROMPT_SCHEMES:
            raise ValueError(
                "unknown prompting scheme %r; expected one of %s"
                % (scheme, ALL_PROMPT_SCHEMES)
            )
        self.client = client
        self.scheme = scheme
        self.domain = domain

    def _teaching_prompts(self) -> List[str]:
        prompts = [prompt_r()]
        if self.scheme != ZERO_SHOT:
            # Zero-shot prompting skips the fluent-kind examples of prompt F
            # (Section 3: excluded from the paper's pipeline for poor results).
            prompts.append(prompt_f(self.scheme))
        prompts.append(prompt_e(self.domain))
        prompts.append(prompt_t(self.domain))
        return prompts

    def run(self) -> GeneratedEventDescription:
        """Run the full pipeline and collect the generated event description."""
        with telemetry.span(
            "llm.pipeline", model=self.client.model_name, scheme=self.scheme
        ) as sp:
            conversation: List[ChatMessage] = []
            for teaching_prompt in self._teaching_prompts():
                conversation.append(ChatMessage("user", teaching_prompt))
                reply = self.client.complete(conversation)
                conversation.append(ChatMessage("assistant", reply))
                sp.count("prompt_rounds")
                sp.count("teaching_rounds")
            activities: List[GeneratedActivity] = []
            for group in self.domain.groups:
                conversation.append(
                    ChatMessage("user", prompt_g(group.description, self.domain.name))
                )
                reply = self.client.complete(conversation)
                conversation.append(ChatMessage("assistant", reply))
                sp.count("prompt_rounds")
                sp.count("activity_rounds")
                activity = self._parse_reply(group, reply)
                if activity.parse_error:
                    sp.count("parse_failures")
                activities.append(activity)
            return GeneratedEventDescription(
                model=self.client.model_name,
                scheme=self.scheme,
                activities=activities,
                domain=self.domain,
            )

    @staticmethod
    def _parse_reply(group: "ActivityGroup", reply: str) -> GeneratedActivity:
        try:
            rules = parse_program(reply)
        except ParseError as exc:
            return GeneratedActivity(
                group=group, raw_text=reply, rules=[], parse_error=str(exc)
            )
        return GeneratedActivity(group=group, raw_text=reply, rules=rules)

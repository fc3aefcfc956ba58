"""Simulated LLMs with calibrated error profiles.

No network access is available in this environment, so the six models of
the paper's evaluation (GPT-4, GPT-4o, o1, Llama-3, Mistral, Gemma-2) are
substituted by :class:`SimulatedLLM`: a chat backend that consumes the
*same prompt pipeline* (R, F/F*, E, T, G) as a real model and responds to
each generation request with an event description derived from its
internal "knowledge" of the domain (the gold-standard rules) distorted by
its error profile — the simulated counterpart of a pre-trained model
reproducing a formalisation imperfectly.

The simulation is honest about its interface: it learns the prompting
scheme from the F prompt it is shown (chain-of-thought prompts carry
worked "Answer:" explanations; few-shot prompts do not) and identifies the
requested activity purely from the natural-language description inside the
G prompt. It never inspects pipeline internals.

The domain is a parameter (a :class:`~repro.domain.GoldDomain`): its
activity groups are what the model "has seen during pre-training", and its
``profile(model, scheme)`` the errors it makes. Nothing in a reply is
drawn at random.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.llm.errors import CorruptSyntax, Transformation, apply_all
from repro.llm.interface import ChatMessage
from repro.llm.profiles import MODEL_NAMES, Profile
from repro.llm.prompts import CHAIN_OF_THOUGHT, FEW_SHOT, REPAIR_MARKER, ZERO_SHOT
from repro.logic.pretty import program_to_str

if TYPE_CHECKING:
    from repro.domain import GoldDomain
    from repro.maritime.gold import ActivityGroup

__all__ = ["SimulatedLLM"]

_GENERIC_MARKER = "Composite Activity Description - "
_COT_MARKER = "Answer: The activity 'withinArea' is expressed"
_F_MARKER = "There are two ways in which a composite activity may be defined"
_DIAGNOSTICS_HEADER = "Analyser diagnostics:"
_SYNTAX_HINTS = ("RTEC001", "syntax", "parse")


class SimulatedLLM:
    """A profile-driven stand-in for one of the paper's LLMs.

    Parameters
    ----------
    model:
        One of the paper's model names (``MODEL_NAMES``).
    domain:
        The gold domain whose activities the model can formalise, and whose
        ``profile(model, scheme)`` maps each group name to the model's
        transformations.
    """

    def __init__(self, model: str, domain: "GoldDomain") -> None:
        if model not in MODEL_NAMES:
            raise ValueError("unknown model %r; known: %s" % (model, MODEL_NAMES))
        self._model = model
        self._domain = domain
        # (scheme, activity name) -> transformations the model has "learned"
        # to avoid after being shown analyser diagnostics implicating them.
        self._repaired: Dict[Tuple[str, str], Set[Transformation]] = {}

    @property
    def model_name(self) -> str:
        return self._model

    def complete(self, conversation: Sequence[ChatMessage]) -> str:
        """Reply to the last user message of the conversation."""
        last_user = self._last_user_message(conversation)
        if REPAIR_MARKER in last_user.content:
            return self._repair_definition(conversation, last_user.content)
        if _GENERIC_MARKER in last_user.content:
            return self._generate_definition(conversation, last_user.content)
        return "Understood."

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _last_user_message(conversation: Sequence[ChatMessage]) -> ChatMessage:
        for message in reversed(conversation):
            if message.role == "user":
                return message
        raise ValueError("conversation contains no user message")

    @staticmethod
    def _detect_scheme(conversation: Sequence[ChatMessage]) -> str:
        """Infer the prompting scheme from the F prompt seen so far.

        Chain-of-thought F prompts carry worked "Answer:" explanations; a
        conversation with no F prompt at all is a zero-shot interaction.
        """
        saw_f_prompt = False
        for message in conversation:
            if message.role != "user":
                continue
            if _COT_MARKER in message.content:
                return CHAIN_OF_THOUGHT
            if _F_MARKER in message.content:
                saw_f_prompt = True
        return FEW_SHOT if saw_f_prompt else ZERO_SHOT

    def _match_activity(self, request: str) -> Optional["ActivityGroup"]:
        """Identify the requested activity from its natural-language
        description inside the G prompt."""
        _prefix, _sep, description = request.partition(_GENERIC_MARKER)
        description = description.strip()
        for group in self._domain.groups:
            if group.description.strip() == description:
                return group
        # Tolerate minor whitespace differences and prefix matches.
        for group in self._domain.groups:
            head = group.description.split(":", 1)[0].strip().lower()
            if description.lower().startswith(head):
                return group
        return None

    def _active_transformations(
        self, scheme: str, group: "ActivityGroup"
    ) -> List[Transformation]:
        """The profile's transformations minus the ones repaired away."""
        profile: Profile = self._domain.profile(self._model, scheme)
        transformations = profile.get(group.name, [])
        suppressed = self._repaired.get((scheme, group.name), set())
        return [t for t in transformations if t not in suppressed]

    def _render(self, group: "ActivityGroup", transformations: Sequence[Transformation]) -> str:
        rule_level = [t for t in transformations if not isinstance(t, CorruptSyntax)]
        text_level = [t for t in transformations if isinstance(t, CorruptSyntax)]
        rules = apply_all(group.rules, rule_level)
        text = program_to_str(rules)
        for corruption in text_level:
            text = corruption.corrupt(text)
        return text

    def _generate_definition(
        self, conversation: Sequence[ChatMessage], request: str
    ) -> str:
        group = self._match_activity(request)
        if group is None:
            return "% I do not know how to formalise this activity."
        scheme = self._detect_scheme(conversation)
        return self._render(group, self._active_transformations(scheme, group))

    def _repair_definition(
        self, conversation: Sequence[ChatMessage], request: str
    ) -> str:
        """Respond to a repair prompt (see :func:`repro.llm.prompts.prompt_repair`).

        The model reads the quoted analyser diagnostics and drops every
        profile transformation *implicated* by them: a transformation is
        implicated when one of its :meth:`~repro.llm.errors.Transformation.introduced_names`
        occurs as a whole word in the diagnostics text (syntax corruptions
        are implicated by any syntax/parse-error diagnostic). Dropped
        transformations stay dropped for the rest of the conversation —
        the simulated counterpart of a model incorporating feedback — while
        unimplicated ones persist, so a repair round only fixes what the
        diagnostics actually describe.
        """
        group = self._match_activity(request)
        if group is None:
            return "% I do not know how to formalise this activity."
        scheme = self._detect_scheme(conversation)
        _prefix, _sep, diagnostics_text = request.partition(_DIAGNOSTICS_HEADER)
        active = self._active_transformations(scheme, group)
        suppressed = self._repaired.setdefault((scheme, group.name), set())
        for transformation in active:
            if isinstance(transformation, CorruptSyntax):
                if any(hint in diagnostics_text for hint in _SYNTAX_HINTS):
                    suppressed.add(transformation)
                continue
            names = transformation.introduced_names(group.rules)
            if any(
                re.search(r"\b%s\b" % re.escape(name), diagnostics_text)
                for name in names
            ):
                suppressed.add(transformation)
        return self._render(group, self._active_transformations(scheme, group))

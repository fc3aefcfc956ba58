"""Diagnostic-driven iterative repair of generated event descriptions.

This module closes the static-analysis feedback cycle of the paper's
pipeline: instead of a *single* mechanical correction pass (Section 5.2's
"minimum required changes"), :func:`repair_event_description` runs the full
analyser (:func:`repro.analysis.analyzer.analyse`) over a generated event
description, applies every machine-applicable fix, renders the diagnostics
it cannot fix into structured repair prompts
(:func:`repro.llm.prompts.prompt_repair`) fed back to the model, and
iterates until the description is clean — or provably cannot improve.

Repair plan
-----------
Each iteration builds a plan from the analyser report:

* diagnostics whose registry entry (:data:`repro.analysis.registry.LINT_RULES`)
  says ``repair == "auto"`` *and* that carry a
  :class:`~repro.analysis.diagnostics.Fix` are applied mechanically through
  the shared fixer machinery (:mod:`repro.analysis.fixers`), with
  cross-diagnostic conflict detection: conflicting renames of the same name
  are resolved by sorted order (and reported);
* the remaining repairable diagnostics (``repair == "prompt"``, plus
  parse errors recorded on individual activities) are grouped per activity
  and rendered into repair prompts; the model's replies replace those
  activities' definitions.

Termination guard
-----------------
The loop keeps the *signature* (rendered rule text, or raw text for
unparseable activities) of every state it has visited. After each
iteration the new signature is compared against the history:

* equal to the immediately preceding signature — nothing changed; no
  further iteration can change anything either (the plan is a
  deterministic function of the state), so the loop stops at a
  **fixpoint** with diagnostics remaining;
* equal to an older signature — the loop is **oscillating** (e.g. two
  fixes that undo each other, or a model that keeps re-introducing a fixed
  error); the loop stops and reports the cycle;
* otherwise the signature is strictly new, and since at most ``budget``
  iterations run, the loop terminates after at most ``budget`` analyser
  runs in every case.

Hence the loop provably terminates: every iteration either ends in a
terminal status (``converged``/``fixpoint``/``oscillating``) or visits a
fresh state, of which at most ``budget`` are explored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.analysis.diagnostics import Diagnostic, LintReport
from repro.analysis.fixers import fix_maps, rewrite_rules
from repro.analysis.registry import LINT_RULES
from repro.llm.interface import ChatMessage
from repro.generation.metrics import average_similarity
from repro.llm.pipeline import (
    GeneratedActivity,
    GeneratedEventDescription,
    GenerationPipeline,
)
from repro.llm.prompts import prompt_repair
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import ParseError, parse_program
from repro.logic.pretty import program_to_str
from repro.rtec.description import Vocabulary

__all__ = [
    "RepairAction",
    "RepairIteration",
    "RepairResult",
    "repair_mode",
    "repair_event_description",
]

#: Terminal statuses of a repair run.
STATUSES = ("clean", "converged", "fixpoint", "oscillating", "budget-exhausted")


def repair_mode(diagnostic: Diagnostic) -> Optional[str]:
    """How the repair loop handles one diagnostic.

    ``"auto"`` — the registry marks the code auto-repairable and the
    diagnostic carries a fix; ``"prompt"`` — the code is repairable but
    only by re-prompting (including auto codes whose fix could not be
    computed); ``None`` — not repairable (informational lints).
    """
    rule = LINT_RULES.get(diagnostic.code)
    if rule is None or rule.repair is None:
        return None
    if rule.repair == "auto" and diagnostic.fix is None:
        return "prompt"
    return rule.repair


@dataclass(frozen=True)
class RepairAction:
    """One mechanically applied fix."""

    code: str
    description: str
    rule_index: Optional[int] = None
    condition_index: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "description": self.description,
            "rule_index": self.rule_index,
            "condition_index": self.condition_index,
        }


@dataclass
class RepairIteration:
    """The per-iteration report of the repair loop."""

    index: int
    codes_before: List[str]
    codes_after: List[str]
    actions: List[RepairAction]
    conflicts: List[str]
    prompted_activities: List[str]
    similarity: float

    @property
    def fixed_codes(self) -> List[str]:
        """Codes present before this iteration and gone after it."""
        return sorted(set(self.codes_before) - set(self.codes_after))

    @property
    def regressed_codes(self) -> List[str]:
        """Codes absent before this iteration and present after it."""
        return sorted(set(self.codes_after) - set(self.codes_before))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "codes_before": list(self.codes_before),
            "codes_after": list(self.codes_after),
            "fixed_codes": self.fixed_codes,
            "regressed_codes": self.regressed_codes,
            "actions": [action.to_dict() for action in self.actions],
            "conflicts": list(self.conflicts),
            "prompted_activities": list(self.prompted_activities),
            "similarity": self.similarity,
        }


@dataclass
class RepairResult:
    """The outcome of a repair run."""

    status: str
    iterations: List[RepairIteration] = field(default_factory=list)
    initial_similarity: float = 0.0
    final_similarity: float = 0.0
    initial_codes: List[str] = field(default_factory=list)
    final_codes: List[str] = field(default_factory=list)
    oscillation: Optional[str] = None
    generated: Optional[GeneratedEventDescription] = None
    final_report: Optional[LintReport] = None

    @property
    def converged(self) -> bool:
        """Whether the final state has no repairable diagnostics left."""
        return self.status in ("clean", "converged")

    @property
    def similarity_delta(self) -> float:
        return self.final_similarity - self.initial_similarity

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "iterations": [iteration.to_dict() for iteration in self.iterations],
            "initial_similarity": self.initial_similarity,
            "final_similarity": self.final_similarity,
            "similarity_delta": self.similarity_delta,
            "initial_codes": list(self.initial_codes),
            "final_codes": list(self.final_codes),
            "oscillation": self.oscillation,
        }


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


def _analyse(
    generated: GeneratedEventDescription,
    vocabulary: Optional[Vocabulary],
    kb: Optional[KnowledgeBase],
) -> LintReport:
    from repro.analysis.analyzer import analyse

    return analyse(generated.to_event_description(), vocabulary=vocabulary, kb=kb)


def _actionable_codes(
    generated: GeneratedEventDescription, report: LintReport
) -> List[str]:
    """The repairable diagnostic codes of a state (sorted, with duplicates).

    Parse errors recorded on individual activities do not appear in the
    analyser report (unparseable text contributes no rules), so each one
    counts as an ``RTEC001``.
    """
    codes = [d.code for d in report.diagnostics if repair_mode(d) is not None]
    codes.extend("RTEC001" for a in generated.activities if a.parse_error)
    return sorted(codes)


def _signature(generated: GeneratedEventDescription) -> str:
    parts: List[str] = []
    for activity in generated.activities:
        if activity.parse_error:
            parts.append("!" + activity.raw_text)
        else:
            parts.append(program_to_str(activity.rules))
    return "\n%%\n".join(parts)


def _detect_conflicts(auto: Sequence[Diagnostic]) -> List[str]:
    """Cross-diagnostic conflicts in a batch of auto-fixes (for the report).

    The fixer machinery already resolves these deterministically (sorted
    rename pairs win); this records what was overridden so the iteration
    report can show it.
    """
    conflicts: List[str] = []
    by_old: Dict[Tuple[str, str], Set[str]] = {}
    for diagnostic in auto:
        fix = diagnostic.fix
        if fix is not None:
            by_old.setdefault((fix.kind, fix.old), set()).add(fix.new)
    for (kind, old), news in sorted(by_old.items()):
        if len(news) > 1:
            keep = sorted(news)[0]
            conflicts.append(
                "conflicting %s fixes for %r: kept %r, skipped %s"
                % (kind, old, keep, ", ".join(repr(n) for n in sorted(news - {keep})))
            )
    return conflicts


def _apply_auto(
    generated: GeneratedEventDescription, auto: Sequence[Diagnostic]
) -> GeneratedEventDescription:
    """Apply a batch of auto-fix diagnostics: renames are global, so every
    activity's rules are rewritten with the same maps."""
    functor_map, constant_map = fix_maps(auto)
    activities = [
        GeneratedActivity(
            group=activity.group,
            raw_text=activity.raw_text,
            rules=rewrite_rules(activity.rules, functor_map, constant_map),
            parse_error=activity.parse_error,
        )
        for activity in generated.activities
    ]
    return GeneratedEventDescription(
        model=generated.model,
        scheme=generated.scheme,
        activities=activities,
        domain=generated.domain,
    )


def _promptable_batches(
    generated: GeneratedEventDescription, report: LintReport
) -> Dict[int, List[str]]:
    """Group unresolved repairable diagnostics into per-activity prompt text.

    Diagnostics with a rule span go to the activity owning the rule;
    global diagnostics (no span — e.g. dependency cycles) are broadcast to
    every prompted activity, or to every activity with any rules when no
    activity-specific diagnostic exists. Activities with parse errors are
    always prompted, with a synthesised syntax diagnostic.
    """
    batches: Dict[int, List[str]] = {}
    global_lines: List[str] = []
    for diagnostic in report.diagnostics:
        if repair_mode(diagnostic) != "prompt":
            continue
        activity_index = generated.activity_of(diagnostic.rule_index)
        if activity_index is None:
            global_lines.append(str(diagnostic))
        else:
            batches.setdefault(activity_index, []).append(str(diagnostic))
    for index, activity in enumerate(generated.activities):
        if activity.parse_error:
            batches.setdefault(index, []).append(
                "[RTEC001 syntax] the definition failed to parse: %s"
                % activity.parse_error
            )
    if global_lines:
        targets = sorted(batches) or [
            index
            for index, activity in enumerate(generated.activities)
            if activity.rules
        ]
        for index in targets:
            batches.setdefault(index, []).extend(global_lines)
    return batches


def _teaching_conversation(
    client, generated: GeneratedEventDescription
) -> List[ChatMessage]:
    """The pipeline's teaching context, with stand-in acknowledgements.

    Repair prompts are issued in a conversation that carries the same R,
    F/F*, E and T prompts as the original generation, so a client that
    infers the prompting scheme from its context (as the simulated models
    do) sees the same scheme during repair.
    """
    pipeline = GenerationPipeline(client, generated.scheme, generated.domain)
    conversation: List[ChatMessage] = []
    for teaching_prompt in pipeline._teaching_prompts():
        conversation.append(ChatMessage("user", teaching_prompt))
        conversation.append(ChatMessage("assistant", "Understood."))
    return conversation


def _prompt_repairs(
    client,
    conversation: List[ChatMessage],
    generated: GeneratedEventDescription,
    batches: Dict[int, List[str]],
) -> GeneratedEventDescription:
    """Feed each activity's unresolved diagnostics back to the model."""
    activities = list(generated.activities)
    for index in sorted(batches):
        activity = activities[index]
        current_text = (
            program_to_str(activity.rules) if activity.rules else activity.raw_text
        )
        prompt = prompt_repair(
            activity.group.description,
            current_text.rstrip(),
            "\n".join(batches[index]),
            domain=generated.domain.name,
        )
        conversation.append(ChatMessage("user", prompt))
        reply = client.complete(conversation)
        conversation.append(ChatMessage("assistant", reply))
        try:
            rules = parse_program(reply)
            activities[index] = GeneratedActivity(
                group=activity.group, raw_text=reply, rules=rules
            )
        except ParseError as exc:
            activities[index] = GeneratedActivity(
                group=activity.group, raw_text=reply, rules=[], parse_error=str(exc)
            )
    return GeneratedEventDescription(
        model=generated.model,
        scheme=generated.scheme,
        activities=activities,
        domain=generated.domain,
    )


def repair_event_description(
    generated: GeneratedEventDescription,
    vocabulary: Optional[Vocabulary] = None,
    kb: Optional[KnowledgeBase] = None,
    client=None,
    budget: int = 5,
) -> RepairResult:
    """Iterate analyse -> auto-fix -> re-prompt to a fixpoint or the budget.

    ``client`` is any LLM client (``complete(conversation) -> str``); with
    ``client=None`` only mechanical fixes are applied, and the loop stops
    at the first state they cannot improve. See the module docstring for
    the termination guarantee.
    """
    with telemetry.span(
        "analysis.repair", model=generated.model, scheme=generated.scheme
    ) as span:
        current = generated
        report = _analyse(current, vocabulary, kb)
        codes = _actionable_codes(current, report)
        initial_similarity = average_similarity(current)
        result = RepairResult(
            status="clean",
            initial_similarity=initial_similarity,
            final_similarity=initial_similarity,
            initial_codes=list(codes),
            final_codes=list(codes),
            generated=current,
            final_report=report,
        )
        if not codes:
            return result
        signatures = [_signature(current)]
        conversation: Optional[List[ChatMessage]] = None
        result.status = "budget-exhausted"
        while len(result.iterations) < budget:
            span.count("iterations")
            codes_before = codes
            auto = [d for d in report.diagnostics if repair_mode(d) == "auto"]
            conflicts = _detect_conflicts(auto)
            actions = [
                RepairAction(
                    d.code, d.fix.describe(), d.rule_index, d.condition_index
                )
                for d in auto
                if d.fix is not None
            ]
            if auto:
                current = _apply_auto(current, auto)
                span.count("auto_fixes", len(auto))
            prompted_names: List[str] = []
            if client is not None:
                mid_report = _analyse(current, vocabulary, kb)
                batches = _promptable_batches(current, mid_report)
                if batches:
                    if conversation is None:
                        conversation = _teaching_conversation(client, current)
                    prompted_names = [
                        current.activities[index].name for index in sorted(batches)
                    ]
                    current = _prompt_repairs(client, conversation, current, batches)
                    span.count("repair_prompts", len(batches))
            report = _analyse(current, vocabulary, kb)
            codes = _actionable_codes(current, report)
            similarity = average_similarity(current)
            result.iterations.append(
                RepairIteration(
                    index=len(result.iterations) + 1,
                    codes_before=list(codes_before),
                    codes_after=list(codes),
                    actions=actions,
                    conflicts=conflicts,
                    prompted_activities=prompted_names,
                    similarity=similarity,
                )
            )
            result.generated = current
            result.final_report = report
            result.final_similarity = similarity
            result.final_codes = list(codes)
            signature = _signature(current)
            if not codes:
                result.status = "converged"
                break
            if signature == signatures[-1]:
                result.status = "fixpoint"
                break
            if signature in signatures:
                first = signatures.index(signature)
                cycle = len(signatures) - first
                result.status = "oscillating"
                result.oscillation = (
                    "iteration %d reproduced the state of iteration %d "
                    "(cycle length %d)" % (len(result.iterations), first, cycle)
                )
                break
            signatures.append(signature)
        if span.enabled:
            span.set(status=result.status)
        return result

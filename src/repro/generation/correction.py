"""Minimal syntactic correction of generated event descriptions.

Section 5.2 of the paper: the best event descriptions "cannot be used
directly by RTEC, as they include minor syntactic errors, such as incorrect
names for constants and predicates"; the authors perform "the minimum
required changes", turning e.g. GPT-4o△ into GPT-4o▲. This module
automates the mechanical part of that step and accepts an explicit
reviewer-supplied rename map for the judgement calls (such as o1's
``trawlingArea`` -> ``fishing``, which no string metric can find).

The name resolution itself lives in :mod:`repro.analysis`: the linter's
naming pass (RTEC016) computes the same close-variant renames and attaches
them to diagnostics as machine-applicable fixes; this module applies those
fixes and reports what changed. After correction the result is linted again
(:func:`repro.analysis.analyse`) and the report is attached as
``CorrectionReport.post_lint``, so callers can gate on residual
error-severity diagnostics — the semantic errors correction deliberately
does not touch.

What it fixes (error category 1 only):

* event, fluent, and background-predicate names that normalise to a known
  vocabulary name (case/underscore variants, e.g. ``gapEnd`` ->
  ``gap_end``) or are within a small edit distance of exactly one;
* unknown constants close to a known constant of the knowledge base;
* anything listed in the reviewer's rename maps.

What it deliberately does NOT fix: wrong fluent types, wrong interval
operators (``intersect_all`` vs ``union_all``), dropped conditions,
undefined activities with no close known name — the semantic errors that
Figure 2c then measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro import telemetry
from repro.analysis.diagnostics import Diagnostic, LintReport
from repro.analysis.fixers import rewrite_rule
from repro.analysis.names import levenshtein
from repro.analysis.passes import compute_name_fixes
from repro.llm.pipeline import GeneratedActivity, GeneratedEventDescription
from repro.logic.knowledge import KnowledgeBase
from repro.rtec.description import Vocabulary

__all__ = ["CorrectionReport", "correct_event_description", "levenshtein"]


@dataclass
class CorrectionReport:
    """What the correction step changed, and what it could not fix."""

    functor_renames: Dict[str, str] = field(default_factory=dict)
    constant_renames: Dict[str, str] = field(default_factory=dict)
    unresolved: List[str] = field(default_factory=list)
    #: Lint report of the *corrected* description (the analyser re-run after
    #: the renames). ``post_lint.has_errors`` flags descriptions that still
    #: cannot execute — the gate for downstream use.
    post_lint: Optional[LintReport] = None
    #: Outcome of the iterative repair loop, when correction ran with
    #: ``repair=True`` (:mod:`repro.analysis.repair`); ``None`` otherwise.
    repair: Optional[object] = None

    @property
    def total_changes(self) -> int:
        return len(self.functor_renames) + len(self.constant_renames)

    @property
    def semantic_diagnostics(self) -> List["Diagnostic"]:
        """Semantic-layer findings surviving correction (RTEC018-023).

        Renames fix the paper's naming errors (category 1); what the
        semantic layer still flags afterwards — references to values no
        rule produces, unreachable fluents and outputs — are residual
        semantic errors of the kind Figure 2c measures, so callers can gate
        or report on them.
        """
        if self.post_lint is None:
            return []
        return [
            d
            for d in self.post_lint.diagnostics
            if d.code is not None and "RTEC018" <= d.code <= "RTEC023"
        ]


def correct_event_description(
    generated: GeneratedEventDescription,
    vocabulary: Vocabulary,
    kb: KnowledgeBase,
    manual_functor_renames: Optional[Mapping[str, str]] = None,
    manual_constant_renames: Optional[Mapping[str, str]] = None,
    repair: bool = False,
    client=None,
    repair_budget: int = 5,
    outputs=None,
) -> Tuple[GeneratedEventDescription, CorrectionReport]:
    """Return a corrected copy of ``generated`` plus a report of the changes.

    With ``repair=True`` the one-shot rename correction is followed by the
    iterative diagnostic repair loop of :mod:`repro.analysis.repair`:
    analyser diagnostics are auto-fixed where possible and otherwise fed
    back to ``client`` (any LLM client; ``None`` restricts the loop to
    mechanical fixes) until the description is clean, a fixpoint or an
    oscillation is reached, or ``repair_budget`` iterations have run. The
    loop's outcome is attached as ``report.repair`` and ``post_lint`` is
    the final state's report.
    """
    span = telemetry.span(
        "llm.correction", model=generated.model, scheme=generated.scheme
    )
    with span:
        corrected, report = _correct(
            generated,
            vocabulary,
            kb,
            manual_functor_renames,
            manual_constant_renames,
            span,
        )
    if repair:
        from repro.analysis.repair import repair_event_description

        result = repair_event_description(
            corrected,
            vocabulary,
            kb,
            client=client,
            budget=repair_budget,
            outputs=outputs,
        )
        corrected = result.generated
        report.repair = result
        report.post_lint = result.final_report
    return corrected, report


def _correct(
    generated: GeneratedEventDescription,
    vocabulary: Vocabulary,
    kb: KnowledgeBase,
    manual_functor_renames: Optional[Mapping[str, str]],
    manual_constant_renames: Optional[Mapping[str, str]],
    span,
) -> Tuple[GeneratedEventDescription, CorrectionReport]:
    from repro.analysis.analyzer import analyse

    report = CorrectionReport()

    functor_map: Dict[str, str] = dict(manual_functor_renames or {})
    constant_map: Dict[str, str] = dict(manual_constant_renames or {})
    report.functor_renames.update(functor_map)
    report.constant_renames.update(constant_map)

    fixes = compute_name_fixes(
        generated.to_event_description(),
        vocabulary,
        kb,
        skip_functors=functor_map,
        skip_constants=constant_map,
    )
    span.count(
        "attempts",
        len(fixes.functor_renames) + len(fixes.constant_renames) + len(fixes.unresolved),
    )
    functor_map.update(fixes.functor_renames)
    constant_map.update(fixes.constant_renames)
    report.functor_renames.update(fixes.functor_renames)
    report.constant_renames.update(fixes.constant_renames)
    report.unresolved.extend("%s %r" % (kind, name) for kind, name in fixes.unresolved)

    corrected_activities: List[GeneratedActivity] = []
    for activity in generated.activities:
        corrected_activities.append(
            GeneratedActivity(
                group=activity.group,
                raw_text=activity.raw_text,
                rules=[
                    rewrite_rule(rule, functor_map, constant_map)
                    for rule in activity.rules
                ],
                parse_error=activity.parse_error,
            )
        )
    corrected = GeneratedEventDescription(
        model=generated.model,
        scheme=generated.scheme,
        activities=corrected_activities,
        domain=generated.domain,
    )
    report.post_lint = analyse(
        corrected.to_event_description(), vocabulary, kb=kb
    )
    if span.enabled:
        span.count("functor_renames", len(report.functor_renames))
        span.count("constant_renames", len(report.constant_renames))
        span.count("unresolved", len(report.unresolved))
        span.count("post_lint_errors", len(report.post_lint.errors))
        span.count("post_lint_semantic", len(report.semantic_diagnostics))
    return corrected, report

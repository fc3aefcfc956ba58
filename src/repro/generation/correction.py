"""Minimal syntactic correction of generated event descriptions.

Section 5.2 of the paper: the best event descriptions "cannot be used
directly by RTEC, as they include minor syntactic errors, such as incorrect
names for constants and predicates"; the authors perform "the minimum
required changes", turning e.g. GPT-4o△ into GPT-4o▲. This module
automates the mechanical part of that step and accepts an explicit
reviewer-supplied rename map for the judgement calls (such as o1's
``trawlingArea`` -> ``fishing``, which no string metric can find; each gold
domain keeps its own in ``GoldDomain.manual_renames``).

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
* the reviewer's constant renames, which the caller passes in.

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
from repro.analysis.fixers import rewrite_rules
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
    manual_constant_renames: Optional[Mapping[str, str]] = None,
) -> Tuple[GeneratedEventDescription, CorrectionReport]:
    """Return a corrected copy of ``generated`` plus a report of the changes.

    ``manual_constant_renames`` are the reviewer's judgement calls, applied
    as given; every other rename is found by the analyser's naming pass.
    The iterative repair loop (:func:`repro.analysis.repair.repair_event_description`)
    takes the corrected copy from here.
    """
    span = telemetry.span(
        "llm.correction", model=generated.model, scheme=generated.scheme
    )
    with span:
        return _correct(generated, vocabulary, kb, manual_constant_renames, span)


def _correct(
    generated: GeneratedEventDescription,
    vocabulary: Vocabulary,
    kb: KnowledgeBase,
    manual_constant_renames: Optional[Mapping[str, str]],
    span,
) -> Tuple[GeneratedEventDescription, CorrectionReport]:
    from repro.analysis.analyzer import analyse

    constant_map: Dict[str, str] = dict(manual_constant_renames or {})
    fixes = compute_name_fixes(
        generated.to_event_description(),
        vocabulary,
        kb,
        skip_constants=constant_map,
    )
    span.count(
        "attempts",
        len(fixes.functor_renames) + len(fixes.constant_renames) + len(fixes.unresolved),
    )
    constant_map.update(fixes.constant_renames)
    corrected = GeneratedEventDescription(
        model=generated.model,
        scheme=generated.scheme,
        activities=[
            GeneratedActivity(
                group=activity.group,
                raw_text=activity.raw_text,
                rules=rewrite_rules(activity.rules, fixes.functor_renames, constant_map),
                parse_error=activity.parse_error,
            )
            for activity in generated.activities
        ],
        domain=generated.domain,
    )
    post_lint = analyse(corrected.to_event_description(), vocabulary, kb=kb)
    report = CorrectionReport(
        functor_renames=dict(fixes.functor_renames),
        constant_renames=dict(constant_map),
        unresolved=["%s %r" % (kind, name) for kind, name in fixes.unresolved],
        post_lint=post_lint,
    )
    if span.enabled:
        span.count("functor_renames", len(report.functor_renames))
        span.count("constant_renames", len(report.constant_renames))
        span.count("unresolved", len(report.unresolved))
        span.count("post_lint_errors", len(post_lint.errors))
        span.count("post_lint_semantic", len(report.semantic_diagnostics))
    return corrected, report

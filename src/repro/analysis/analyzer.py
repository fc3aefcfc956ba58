"""The multi-pass analyser driver.

:func:`analyse` runs every pass over an :class:`EventDescription` and
returns a :class:`~repro.analysis.diagnostics.LintReport`. Pass order is
significant only for readability of the report: the structural pass runs
first so that legacy consumers (e.g. the engine's strict mode) see the
familiar diagnostics in their familiar order, followed by the dataflow,
arity, consistency, dependency, partition, naming and semantic passes.
The two certification passes (:mod:`repro.analysis.certify`) come last and
run only when no earlier pass reported an error.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.certify import delta_pass, memory_pass
from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.passes import (
    AnalysisContext,
    arity_pass,
    binding_pass,
    consistency_pass,
    dependency_pass,
    naming_pass,
    partition_pass,
    structural_pass,
)
from repro.analysis.semantics import semantic_pass
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import ParseError, clause_lines
from repro.rtec.description import EventDescription, Vocabulary

__all__ = ["CERTIFICATION_PASSES", "PASSES", "analyse", "analyse_text"]

Pass = Callable[[AnalysisContext], List[Diagnostic]]

PASSES: Tuple[Pass, ...] = (
    structural_pass,
    binding_pass,
    arity_pass,
    consistency_pass,
    dependency_pass,
    partition_pass,
    naming_pass,
    semantic_pass,
)

#: Run after :data:`PASSES`, and only when those reported no error: the
#: delta-safety and memory-boundedness proofs need rules that compile and
#: names that resolve. ``memory_pass`` reads what ``semantic_pass`` inferred.
CERTIFICATION_PASSES: Tuple[Pass, ...] = (delta_pass, memory_pass)


def analyse(
    description: EventDescription,
    vocabulary: Optional[Vocabulary] = None,
    kb: Optional[KnowledgeBase] = None,
    outputs: Optional[Sequence[str]] = None,
    text: Optional[str] = None,
    source: Optional[str] = None,
) -> LintReport:
    """Run all passes over ``description`` (the certification passes only
    when the others report no error).

    ``vocabulary`` enables the vocabulary-level checks and the naming pass;
    ``kb`` additionally enables constant-name fixes; ``outputs`` (the names
    of the fluents the recognition task reports) enables the dead-rule
    check; ``text`` (the source the description was parsed from) maps rule
    indices to source lines; ``source`` labels the report.
    """
    ctx = AnalysisContext(
        description=description, vocabulary=vocabulary, kb=kb, outputs=outputs
    )
    diagnostics: List[Diagnostic] = []
    for pass_fn in PASSES:
        diagnostics.extend(pass_fn(ctx))
    if not any(d.severity == Severity.ERROR for d in diagnostics):
        for pass_fn in CERTIFICATION_PASSES:
            diagnostics.extend(pass_fn(ctx))
    rule_lines = clause_lines(text) if text is not None else None
    return LintReport(diagnostics, source=source, rule_lines=rule_lines)


def analyse_text(
    text: str,
    vocabulary: Optional[Vocabulary] = None,
    kb: Optional[KnowledgeBase] = None,
    outputs: Optional[Sequence[str]] = None,
    source: Optional[str] = None,
) -> LintReport:
    """Parse and analyse; a parse failure yields a single RTEC001 diagnostic
    instead of raising (erroneous descriptions must be inspectable)."""
    try:
        description = EventDescription.from_text(text)
    except ParseError as exc:
        return LintReport(
            [Diagnostic("syntax", str(exc))],
            source=source,
        )
    return analyse(
        description,
        vocabulary=vocabulary,
        kb=kb,
        outputs=outputs,
        text=text,
        source=source,
    )

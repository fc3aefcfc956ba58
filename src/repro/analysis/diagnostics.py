"""The diagnostic currency of the static analyser.

Every problem the analyser (and the legacy ``EventDescription.validate``)
can report is a :class:`Diagnostic`: a category (a stable kebab-case name),
a lint code (``RTEC001``-style), a severity, a message, and an optional
span (rule index, condition index) plus an optional machine-applicable
:class:`Fix`.

This module is a *leaf*: it must not import anything from :mod:`repro`,
because :mod:`repro.rtec.errors` aliases its legacy ``ValidationIssue``
type to :class:`Diagnostic` and is imported very early in the package
initialisation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Severity",
    "Fix",
    "Diagnostic",
    "LintReport",
    "CATEGORY_CODES",
]


class Severity(IntEnum):
    """Diagnostic severity; comparable (``ERROR`` > ``WARNING`` > ``INFO``)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


#: category -> (code, default severity). The single source of truth tying
#: the legacy ``validate`` categories and the analyser's new passes to the
#: coded lint registry (:mod:`repro.analysis.registry` adds titles and the
#: paper's error-taxonomy mapping on top of this table).
CATEGORY_CODES: Dict[str, Tuple[str, Severity]] = {
    "syntax": ("RTEC001", Severity.ERROR),
    "malformed-rule": ("RTEC002", Severity.ERROR),
    "undefined-event": ("RTEC003", Severity.ERROR),
    "undefined-fluent": ("RTEC004", Severity.ERROR),
    "undefined-background": ("RTEC005", Severity.ERROR),
    "cycle": ("RTEC006", Severity.ERROR),
    "unbound-variable": ("RTEC007", Severity.ERROR),
    "unsafe-head": ("RTEC008", Severity.ERROR),
    "wrong-arity": ("RTEC009", Severity.ERROR),
    "never-terminated": ("RTEC010", Severity.WARNING),
    "never-initiated": ("RTEC011", Severity.WARNING),
    "dead-rule": ("RTEC012", Severity.WARNING),
    "duplicate-rule": ("RTEC013", Severity.WARNING),
    "contradictory-rules": ("RTEC014", Severity.WARNING),
    "non-shardable": ("RTEC015", Severity.INFO),
    "naming": ("RTEC016", Severity.WARNING),
    # Semantic layer (repro.analysis.semantics).
    "impossible-value": ("RTEC018", Severity.WARNING),
    "unreachable-fluent": ("RTEC022", Severity.WARNING),
    "unreachable-output": ("RTEC023", Severity.WARNING),
    # Certification layer (repro.analysis.certify).
    "delta-unsafe-condition": ("RTEC025", Severity.WARNING),
    "delta-unsafe-head": ("RTEC026", Severity.WARNING),
    "leaky-fluent": ("RTEC027", Severity.WARNING),
    "leaky-interval-flow": ("RTEC028", Severity.WARNING),
}

#: Fallback for categories outside the table (kept permissive so ad-hoc
#: diagnostics constructed by callers never crash).
_UNKNOWN = ("RTEC000", Severity.ERROR)


@dataclass(frozen=True)
class Fix:
    """A machine-applicable repair attached to a diagnostic.

    ``kind`` is ``"rename-functor"`` or ``"rename-constant"``; ``old``
    and ``new`` are the names. :mod:`repro.analysis.fixers` applies fixes
    to rule sets; :mod:`repro.generation.correction` uses them as auto-fix
    candidates.
    """

    kind: str
    old: str
    new: str

    def describe(self) -> str:
        return "%s %r -> %r" % (self.kind.replace("-", " "), self.old, self.new)


@dataclass(frozen=True)
class Diagnostic:
    """One problem found in an event description.

    Constructible exactly like the legacy ``ValidationIssue`` —
    ``Diagnostic(category, message, rule_index)`` — with ``code`` and
    ``severity`` derived from the category when not given explicitly.
    """

    category: str
    message: str
    rule_index: Optional[int] = None
    condition_index: Optional[int] = None
    code: str = ""
    severity: Optional[Severity] = None
    fix: Optional[Fix] = None

    def __post_init__(self) -> None:
        default_code, default_severity = CATEGORY_CODES.get(self.category, _UNKNOWN)
        if not self.code:
            object.__setattr__(self, "code", default_code)
        if self.severity is None:
            object.__setattr__(self, "severity", default_severity)

    @property
    def span(self) -> Tuple[Optional[int], Optional[int]]:
        """(rule index, condition index) — either may be unknown."""
        return (self.rule_index, self.condition_index)

    def __str__(self) -> str:
        where = ""
        if self.rule_index is not None:
            where = "rule %d" % self.rule_index
            if self.condition_index is not None:
                where += ", condition %d" % self.condition_index
            where += ": "
        return "[%s %s] %s%s" % (self.code, self.category, where, self.message)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "code": self.code,
            "category": self.category,
            "severity": str(self.severity),
            "message": self.message,
            "rule_index": self.rule_index,
            "condition_index": self.condition_index,
        }
        if self.fix is not None:
            data["fix"] = {"kind": self.fix.kind, "old": self.fix.old, "new": self.fix.new}
        return data


@dataclass
class LintReport:
    """The result of one analyser run over an event description.

    ``rule_lines`` maps rule index -> 1-based source line (when the source
    text was available); ``source`` is a display label such as a file path
    or ``"<gold:maritime>"``.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    source: Optional[str] = None
    rule_lines: Optional[Sequence[int]] = None

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.INFO]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == Severity.ERROR for d in self.diagnostics)

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def at_or_above(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= severity]

    def line_for(self, rule_index: Optional[int]) -> Optional[int]:
        """The 1-based source line of a rule, when known."""
        if (
            rule_index is None
            or self.rule_lines is None
            or rule_index >= len(self.rule_lines)
        ):
            return None
        return self.rule_lines[rule_index]

    def summary(self) -> str:
        return "%d error(s), %d warning(s), %d info(s)" % (
            len(self.errors),
            len(self.warnings),
            len(self.infos),
        )

    def format_text(self) -> str:
        """Human-readable listing, one diagnostic per line plus a summary."""
        lines: List[str] = []
        for diagnostic in self.diagnostics:
            location = ""
            line = self.line_for(diagnostic.rule_index)
            if line is not None:
                location = "%s:%d: " % (self.source or "<input>", line)
            elif self.source:
                location = "%s: " % self.source
            lines.append("%s%-7s %s" % (location, str(diagnostic.severity), diagnostic))
            if diagnostic.fix is not None:
                lines.append("        fix: %s" % diagnostic.fix.describe())
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

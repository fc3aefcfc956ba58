"""SARIF 2.1.0 output for CI consumption.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
is the interchange format GitHub code scanning (and most CI lint viewers)
ingest. One :class:`~repro.analysis.diagnostics.LintReport` maps to one
run of the ``repro-lint`` tool; the rule metadata comes from the registry.

When the analysed source text is supplied, machine-applicable fixes are
additionally rendered as SARIF ``fixes`` objects (``artifactChanges`` with
whole-rule ``replacements``), so SARIF-aware viewers can offer one-click
application. The replacement text is each affected rule re-rendered after
applying that diagnostic's rename alone.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.registry import LINT_RULES

__all__ = ["to_sarif"]

_SARIF_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _rule_regions(
    source_text: str, rule_lines: Sequence[int]
) -> List[Tuple[int, int]]:
    """Per-rule ``(startLine, endLine)`` (1-based, inclusive) text regions.

    Each rule runs from its recorded start line to the last non-blank line
    before the next rule (or the end of the text).
    """
    lines = source_text.splitlines()
    regions: List[Tuple[int, int]] = []
    for index, start in enumerate(rule_lines):
        if index + 1 < len(rule_lines):
            end = rule_lines[index + 1] - 1
        else:
            end = len(lines)
        while end > start and (end - 1 >= len(lines) or not lines[end - 1].strip()):
            end -= 1
        regions.append((start, end))
    return regions


def _replacement(region: Tuple[int, int], text: str) -> Dict[str, Any]:
    return {
        "deletedRegion": {"startLine": region[0], "endLine": region[1]},
        "insertedContent": {"text": text},
    }


def _fix_object(
    diagnostic: Diagnostic,
    rules,
    regions: List[Tuple[int, int]],
    artifact: str,
) -> Optional[Dict[str, Any]]:
    """The SARIF ``fix`` object of one diagnostic, if it rewrites any rule."""
    from repro.analysis.fixers import fix_maps, rewrite_rule
    from repro.logic.pretty import rule_to_str

    fix = diagnostic.fix
    assert fix is not None
    functor_map, constant_map = fix_maps([diagnostic])
    replacements: List[Dict[str, Any]] = []
    for index, rule in enumerate(rules):
        rewritten = rewrite_rule(rule, functor_map, constant_map)
        if rewritten != rule:
            replacements.append(_replacement(regions[index], rule_to_str(rewritten)))
    if not replacements:
        return None
    return {
        "description": {"text": fix.describe()},
        "artifactChanges": [
            {
                "artifactLocation": {"uri": artifact},
                "replacements": replacements,
            }
        ],
    }


def to_sarif(
    report: LintReport,
    tool_version: str = "1.0.0",
    source_text: Optional[str] = None,
) -> Dict[str, Any]:
    """Render a lint report as a SARIF 2.1.0 log (a JSON-serialisable dict).

    With ``source_text`` (the analysed rule text), fixable diagnostics gain
    SARIF ``fixes`` objects whose replacements rewrite whole rules.
    """
    rules: List[Dict[str, Any]] = [
        {
            "id": rule.code,
            "name": rule.category,
            "shortDescription": {"text": rule.title},
            "fullDescription": {"text": rule.explanation},
            "helpUri": rule.help_uri,
            "defaultConfiguration": {"level": _SARIF_LEVELS[rule.severity]},
            "properties": {"repair": rule.repair, "fixable": rule.fixable},
        }
        for rule in sorted(LINT_RULES.values(), key=lambda r: r.code)
    ]
    rule_indices = {rule["id"]: index for index, rule in enumerate(rules)}
    artifact = report.source or "<input>"

    parsed_rules = None
    regions: List[Tuple[int, int]] = []
    if source_text is not None and report.rule_lines:
        from repro.logic.parser import ParseError, parse_program

        try:
            parsed_rules = parse_program(source_text)
        except ParseError:
            parsed_rules = None
        if parsed_rules is not None and len(parsed_rules) == len(report.rule_lines):
            regions = _rule_regions(source_text, report.rule_lines)
        else:
            parsed_rules = None

    results: List[Dict[str, Any]] = []
    for diagnostic in report.diagnostics:
        result: Dict[str, Any] = {
            "ruleId": diagnostic.code,
            "level": _SARIF_LEVELS.get(diagnostic.severity or Severity.ERROR, "error"),
            "message": {"text": diagnostic.message},
        }
        if diagnostic.code in rule_indices:
            result["ruleIndex"] = rule_indices[diagnostic.code]
        location: Dict[str, Any] = {
            "physicalLocation": {"artifactLocation": {"uri": artifact}}
        }
        line = report.line_for(diagnostic.rule_index)
        if line is not None:
            location["physicalLocation"]["region"] = {"startLine": line}
        result["locations"] = [location]
        if diagnostic.fix is not None:
            result["properties"] = {"fix": diagnostic.fix.describe()}
            if parsed_rules is not None:
                fix_object = _fix_object(diagnostic, parsed_rules, regions, artifact)
                if fix_object is not None:
                    result["fixes"] = [fix_object]
        results.append(result)
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://github.com/aartikis/RTEC",
                        "version": tool_version,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }

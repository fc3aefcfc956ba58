"""Static analysis ("linting") of RTEC event descriptions.

A multi-pass analyser with a registry of coded lint rules
(``RTEC001``-style): binding-order dataflow, dependency/stratification
analysis, consistency checks, partitionability lints and naming fixes.
See :mod:`repro.analysis.analyzer` for the driver and
:mod:`repro.analysis.registry` for the code registry.

The package initialiser is *lazy* (PEP 562): :mod:`repro.rtec.errors`
imports :mod:`repro.analysis.diagnostics` while :mod:`repro.rtec` is still
initialising, so importing the analyser (which itself imports
:mod:`repro.rtec.description`) eagerly here would create a cycle.
"""

from typing import List

_EXPORTS = {
    "Severity": "diagnostics",
    "Fix": "diagnostics",
    "Diagnostic": "diagnostics",
    "LintReport": "diagnostics",
    "CATEGORY_CODES": "diagnostics",
    "LintRule": "registry",
    "LINT_RULES": "registry",
    "rule_for": "registry",
    "levenshtein": "names",
    "normalise": "names",
    "closest": "names",
    "BindingIssue": "binding",
    "check_rule": "binding",
    "analyse": "analyzer",
    "analyse_text": "analyzer",
    "PASSES": "analyzer",
    "apply_fixes": "fixers",
    "normalise_rename_map": "fixers",
    "to_sarif": "sarif",
    "RepairAction": "repair",
    "RepairIteration": "repair",
    "RepairResult": "repair",
    "repair_event_description": "repair",
    "SemanticFacts": "semantics",
    "analyse_semantics": "semantics",
    "semantic_pass": "semantics",
    "AnalysisCertificate": "certify",
    "certify_description": "certify",
    "prove_rule_delta_safety": "certify",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import importlib

    module = importlib.import_module("repro.analysis." + module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))

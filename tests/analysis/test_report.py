"""Diagnostic/LintReport/registry/SARIF behaviour."""

import json

from repro.analysis import (
    CATEGORY_CODES,
    Diagnostic,
    Fix,
    LintReport,
    Severity,
    analyse_text,
    rule_for,
    to_sarif,
)


class TestRegistry:
    def test_every_category_has_a_rule(self):
        for category, (code, severity) in CATEGORY_CODES.items():
            rule = rule_for(code)
            assert rule.category == category
            assert rule.severity == severity

    def test_codes_are_unique_and_formatted(self):
        codes = [code for code, _severity in CATEGORY_CODES.values()]
        assert len(codes) == len(set(codes))
        for code in codes:
            assert code.startswith("RTEC") and len(code) == 7

    def test_naming_rule_is_fixable(self):
        assert rule_for("RTEC016").fixable


class TestDiagnostic:
    def test_legacy_positional_construction(self):
        # ValidationIssue(category, message, rule_index) compatibility.
        diag = Diagnostic("undefined-event", "no such event", 3)
        assert diag.code == "RTEC003"
        assert diag.severity is Severity.ERROR
        assert diag.rule_index == 3

    def test_str_contains_code_category_and_location(self):
        diag = Diagnostic("unbound-variable", "oops", rule_index=1, condition_index=2)
        text = str(diag)
        assert "RTEC007" in text
        assert "unbound-variable" in text
        assert "rule 1" in text and "condition 2" in text

    def test_unknown_category_falls_back_to_error(self):
        diag = Diagnostic("some-novel-category", "boom")
        assert diag.code == "RTEC000"
        assert diag.severity is Severity.ERROR

    def test_to_dict_roundtrips_fix(self):
        diag = Diagnostic(
            "naming", "rename me", fix=Fix("rename-functor", "gapEnd", "gap_end")
        )
        data = diag.to_dict()
        assert data["fix"]["old"] == "gapEnd"
        assert data["severity"] == "warning"


class TestLintReport:
    def _report(self):
        return LintReport(
            [
                Diagnostic("undefined-event", "a", rule_index=0),
                Diagnostic("never-terminated", "b", rule_index=1),
                Diagnostic("non-shardable", "c"),
            ],
            source="x.prolog",
            rule_lines=[10, 20],
        )

    def test_severity_buckets(self):
        report = self._report()
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert len(report.infos) == 1
        assert report.has_errors
        assert len(report.at_or_above(Severity.WARNING)) == 2

    def test_line_mapping_in_text_output(self):
        text = self._report().format_text()
        assert "x.prolog:10" in text
        assert "x.prolog:20" in text

    def test_to_json(self):
        data = json.loads(self._report().to_json())
        assert data["summary"] == {"errors": 1, "warnings": 1, "infos": 1}
        assert len(data["diagnostics"]) == 3


class TestSarif:
    def test_sarif_structure(self):
        text = (
            "initiatedAt(f(V)=true, T) :-\n"
            "    happensAt(gap_start(V), T),\n"
            "    Speed > 5.\n"
            "terminatedAt(f(V)=true, T) :-\n"
            "    happensAt(gap_end(V), T).\n"
        )
        report = analyse_text(text, None, source="bad.prolog")
        sarif = to_sarif(report)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        results = run["results"]
        assert any(r["ruleId"] == "RTEC007" for r in results)
        unbound = next(r for r in results if r["ruleId"] == "RTEC007")
        location = unbound["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "bad.prolog"
        assert location["region"]["startLine"] == 1
        assert unbound["level"] == "error"

    def test_parse_error_becomes_syntax_result(self):
        report = analyse_text("not prolog @@@", None, source="junk.prolog")
        sarif = to_sarif(report)
        assert [r["ruleId"] for r in sarif["runs"][0]["results"]] == ["RTEC001"]

    def test_sarif_2_1_0_required_properties(self):
        """The log carries every property the SARIF 2.1.0 schema requires,
        plus the rule metadata GitHub code scanning keys on (helpUri and a
        resolvable ruleIndex for every result)."""
        text = (
            "initiatedAt(f(V)=true, T) :-\n"
            "    happensAt(gap_start(V), T),\n"
            "    Speed > 5.\n"
        )
        report = analyse_text(text, None, source="bad.prolog")
        sarif = to_sarif(report)
        # sarifLog: version + runs required; $schema identifies the dialect.
        assert sarif["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in sarif["$schema"]
        assert isinstance(sarif["runs"], list) and sarif["runs"]
        for run in sarif["runs"]:
            # run: tool required; tool: driver required; driver: name required.
            driver = run["tool"]["driver"]
            assert driver["name"]
            rules = driver["rules"]
            for index, rule in enumerate(rules):
                # reportingDescriptor: id required.
                assert rule["id"]
                assert rule["helpUri"].endswith(rule["id"].lower())
                assert rule["shortDescription"]["text"]
                assert rule["defaultConfiguration"]["level"] in (
                    "error", "warning", "note",
                )
            rule_ids = [rule["id"] for rule in rules]
            for result in run["results"]:
                # result: message required.
                assert result["message"]["text"]
                # every result's ruleIndex resolves to its ruleId.
                assert rule_ids[result["ruleIndex"]] == result["ruleId"]

    def test_semantic_codes_are_documented_rules(self):
        for code in ("RTEC018", "RTEC022", "RTEC023"):
            rule = rule_for(code)
            assert rule is not None
            assert rule.help_uri.endswith(code.lower())

    def test_certification_codes_are_documented_rules(self):
        for code in ("RTEC025", "RTEC026", "RTEC027", "RTEC028"):
            rule = rule_for(code)
            assert rule is not None
            assert rule.help_uri.endswith(code.lower())

    def test_certification_diagnostics_carry_sarif_metadata(self):
        report = LintReport(
            [
                Diagnostic("delta-unsafe-condition", "unanchored", 1, 2),
                Diagnostic("leaky-fluent", "no termination", 0),
                Diagnostic("non-shardable", "keyless join", 3),
            ]
        )
        sarif = to_sarif(report)
        run = sarif["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        by_id = {rule["id"]: rule for rule in rules}
        for code in ("RTEC015", "RTEC025", "RTEC027"):
            assert by_id[code]["helpUri"].endswith(code.lower())
        rule_ids = [rule["id"] for rule in rules]
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
        levels = {
            result["ruleId"]: result["level"] for result in run["results"]
        }
        assert levels["RTEC025"] == "warning"
        assert levels["RTEC015"] == "note"

    def test_rule_metadata_carries_repair_properties(self):
        sarif = to_sarif(LintReport([]))
        by_id = {
            rule["id"]: rule["properties"]
            for rule in sarif["runs"][0]["tool"]["driver"]["rules"]
        }
        assert by_id["RTEC016"] == {"repair": "auto", "fixable": True}
        assert by_id["RTEC015"] == {"repair": None, "fixable": False}
        assert by_id["RTEC003"] == {"repair": "prompt", "fixable": False}
        # The delta/leak warnings feed the repair prompt.
        assert by_id["RTEC025"] == {"repair": "prompt", "fixable": False}
        assert by_id["RTEC027"] == {"repair": "prompt", "fixable": False}


def _apply_sarif_fix(text, fix_object):
    """Apply one SARIF fix textually: replacements bottom-up, whole lines."""
    lines = text.splitlines()
    replacements = []
    for change in fix_object["artifactChanges"]:
        replacements.extend(change["replacements"])
    for replacement in sorted(
        replacements,
        key=lambda r: r["deletedRegion"]["startLine"],
        reverse=True,
    ):
        start = replacement["deletedRegion"]["startLine"]
        end = replacement["deletedRegion"]["endLine"]
        inserted = replacement["insertedContent"]["text"]
        lines[start - 1 : end] = inserted.splitlines() if inserted else []
    return "\n".join(lines)


class TestSarifFixes:
    """SARIF ``fixes`` objects: schema shape and textual equivalence."""

    def _renamed(self):
        from repro.maritime import MARITIME_VOCABULARY, gold_event_description

        text = gold_event_description().to_text().replace("gap_start", "gapStart")
        report = analyse_text(text, MARITIME_VOCABULARY, source="renamed.prolog")
        return text, report

    def test_fix_object_shape(self):
        text, report = self._renamed()
        sarif = to_sarif(report, source_text=text)
        results = sarif["runs"][0]["results"]
        fixed = [r for r in results if r["ruleId"] == "RTEC016" and "fixes" in r]
        assert fixed, "the naming divergence must carry a fixes object"
        (fix_object,) = fixed[0]["fixes"]
        assert fix_object["description"]["text"]
        (change,) = fix_object["artifactChanges"]
        assert change["artifactLocation"]["uri"] == "renamed.prolog"
        for replacement in change["replacements"]:
            region = replacement["deletedRegion"]
            assert region["startLine"] <= region["endLine"]
            assert "text" in replacement["insertedContent"]

    def test_without_source_text_no_fixes_are_emitted(self):
        _text, report = self._renamed()
        sarif = to_sarif(report)
        for result in sarif["runs"][0]["results"]:
            assert "fixes" not in result

    def test_textual_application_matches_apply_fixes(self):
        from repro.analysis.fixers import apply_fixes
        from repro.logic.parser import parse_program
        from repro.logic.pretty import program_to_str

        text, report = self._renamed()
        sarif = to_sarif(report, source_text=text)
        results = sarif["runs"][0]["results"]
        fixed = next(r for r in results if r["ruleId"] == "RTEC016" and "fixes" in r)
        diagnostic = next(d for d in report.diagnostics if d.code == "RTEC016")
        patched = _apply_sarif_fix(text, fixed["fixes"][0])
        expected = apply_fixes(parse_program(text), [diagnostic])
        assert program_to_str(parse_program(patched)) == program_to_str(expected)

    def test_rename_fix_rewrites_every_affected_rule(self):
        text, report = self._renamed()
        sarif = to_sarif(report, source_text=text)
        results = sarif["runs"][0]["results"]
        fixed = [r for r in results if r["ruleId"] == "RTEC016" and "fixes" in r]
        assert fixed
        (fix_object,) = fixed[0]["fixes"]
        replacements = fix_object["artifactChanges"][0]["replacements"]
        assert len(replacements) == text.count("gapStart(")
        for replacement in replacements:
            assert "gap_start" in replacement["insertedContent"]["text"]
            assert "gapStart" not in replacement["insertedContent"]["text"]

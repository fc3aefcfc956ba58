"""Tests for minimal syntactic correction (the Figure 2b step)."""

import pytest

from repro.generation.correction import correct_event_description, levenshtein
from repro.generation.generator import correct_outcome, generate
from repro.llm import FEW_SHOT, CHAIN_OF_THOUGHT
from repro.maritime import MARITIME
from repro.maritime.dataset import build_knowledge_base
from repro.maritime.ais import Vessel
from repro.maritime.geometry import default_geography
from repro.maritime.gold import MARITIME_VOCABULARY


@pytest.fixture(scope="module")
def kb():
    return build_knowledge_base(
        [Vessel("v1", "fishing"), Vessel("t1", "tug"), Vessel("p1", "pilot")],
        default_geography(),
    )


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty_strings(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_substitution_insert_delete(self):
        assert levenshtein("cat", "cut") == 1
        assert levenshtein("cat", "cats") == 1
        assert levenshtein("cats", "cat") == 1

    def test_classic(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_symmetry(self):
        assert levenshtein("fisheries", "fishing") == levenshtein("fishing", "fisheries")


class TestAutomaticCorrection:
    def test_camel_case_event_rename_fixed(self, kb):
        # Llama-3's gapEnd -> gap_end: exact match after normalisation.
        outcome = generate(MARITIME, "llama-3", FEW_SHOT)
        corrected, report = correct_event_description(
            outcome.generated, MARITIME_VOCABULARY, kb
        )
        assert report.functor_renames.get("gapEnd") == "gap_end"
        assert "gapEnd" not in corrected.to_text()

    def test_close_constant_rename_fixed(self, kb):
        # Llama-3's 'fisheries' -> 'fishing' via edit distance.
        outcome = generate(MARITIME, "llama-3", FEW_SHOT)
        _corrected, report = correct_event_description(
            outcome.generated, MARITIME_VOCABULARY, kb
        )
        assert report.constant_renames.get("fisheries") == "fishing"

    def test_unrelated_names_left_alone(self, kb):
        # GPT-4's undefined 'fishingOperation' has no close known name: it
        # must remain (and stay detectable as an undefined-fluent issue).
        outcome = generate(MARITIME, "gpt-4", FEW_SHOT)
        corrected, report = correct_event_description(
            outcome.generated, MARITIME_VOCABULARY, kb
        )
        assert any("fishingOperation" in item for item in report.unresolved)
        issues = corrected.to_event_description().validate(MARITIME_VOCABULARY)
        assert any(i.category == "undefined-fluent" for i in issues)

    def test_semantic_errors_not_fixed(self, kb):
        # GPT-4o's intersect_all-for-union_all confusion must survive.
        outcome = generate(MARITIME, "gpt-4o", CHAIN_OF_THOUGHT)
        corrected, _report = correct_event_description(
            outcome.generated, MARITIME_VOCABULARY, kb
        )
        loitering = corrected.rules_for("loitering")
        text = "\n".join(repr(rule) for rule in loitering)
        assert "intersect_all" in text

    def test_self_consistent_renames_kept(self, kb):
        # A model that consistently renames a fluent it itself defines has
        # made no referential error: nothing to correct.
        outcome = generate(MARITIME, "gpt-4", FEW_SHOT)
        corrected, _report = correct_event_description(
            outcome.generated, MARITIME_VOCABULARY, kb
        )
        assert "slowOrIdle" in corrected.to_text()


class TestManualRenames:
    def test_reviewer_map_applied(self, kb):
        outcome = generate(MARITIME, "o1", FEW_SHOT)
        assert "trawlingArea" in outcome.generated.to_text()
        corrected, report = correct_event_description(
            outcome.generated,
            MARITIME_VOCABULARY,
            kb,
            manual_constant_renames={"trawlingArea": "fishing"},
        )
        assert "trawlingArea" not in corrected.to_text()
        assert report.constant_renames["trawlingArea"] == "fishing"

    def test_reviewer_renames_belong_to_the_domain(self, kb):
        # o1's trawlingArea -> fishing is a maritime judgement: a fleet o1
        # outcome is corrected without it.
        from repro.fleet import FLEET

        maritime = generate(MARITIME, "o1", FEW_SHOT)
        _corrected, report = correct_outcome(maritime, MARITIME_VOCABULARY, kb)
        assert report.constant_renames["trawlingArea"] == "fishing"
        fleet = generate(FLEET, "o1", FEW_SHOT)
        _corrected, report = correct_outcome(fleet, FLEET.vocabulary, FLEET.dataset().kb)
        assert "trawlingArea" not in report.constant_renames

    def test_correction_is_idempotent(self, kb):
        outcome = generate(MARITIME, "llama-3", FEW_SHOT)
        once, _ = correct_event_description(outcome.generated, MARITIME_VOCABULARY, kb)
        twice, report = correct_event_description(once, MARITIME_VOCABULARY, kb)
        assert once.to_text() == twice.to_text()


class TestPostLint:
    def test_post_lint_attached_to_report(self, kb):
        outcome = generate(MARITIME, "llama-3", FEW_SHOT)
        _corrected, report = correct_event_description(
            outcome.generated, MARITIME_VOCABULARY, kb
        )
        assert report.post_lint is not None
        # The rename fixes are applied, so no RTEC016 naming warnings remain
        # for the names the correction resolved.
        fixed = set(report.functor_renames) | set(report.constant_renames)
        for diag in report.post_lint.diagnostics:
            if diag.fix is not None:
                assert diag.fix.old not in fixed

    def test_flawless_profile_post_lint_is_error_clean(self, kb):
        from repro.llm import BEST_SCHEME

        outcome = generate(MARITIME, "o1", BEST_SCHEME["o1"])
        _corrected, report = correct_event_description(
            outcome.generated, MARITIME_VOCABULARY, kb
        )
        assert report.post_lint is not None
        assert report.post_lint.errors == []

    def test_semantic_errors_survive_to_the_post_lint_gate(self, kb):
        # gpt-4 leaves undefined activities behind; correction does not
        # invent definitions, so the post-correction lint still gates.
        from repro.llm import BEST_SCHEME

        outcome = generate(MARITIME, "gpt-4", BEST_SCHEME["gpt-4"])
        _corrected, report = correct_event_description(
            outcome.generated, MARITIME_VOCABULARY, kb
        )
        assert report.post_lint is not None
        assert report.post_lint.has_errors


class TestSemanticDiagnostics:
    def test_semantic_diagnostics_empty_before_post_lint(self):
        from repro.generation.correction import CorrectionReport

        assert CorrectionReport().semantic_diagnostics == []

    def test_semantic_diagnostics_filter_codes(self, kb):
        from repro.llm import BEST_SCHEME

        outcome = generate(MARITIME, "o1", BEST_SCHEME["o1"])
        _corrected, report = correct_event_description(
            outcome.generated, MARITIME_VOCABULARY, kb
        )
        semantic = report.semantic_diagnostics
        assert all("RTEC018" <= d.code <= "RTEC023" for d in semantic)
        structural = {
            d.code for d in report.post_lint.diagnostics if d.code < "RTEC018"
        }
        # The property never swallows structural codes into the bucket.
        assert not structural & {d.code for d in semantic}

    def test_every_profile_reports_the_property_without_crashing(self, kb):
        from repro.llm import BEST_SCHEME, MODEL_NAMES

        for model in MODEL_NAMES:
            outcome = generate(MARITIME, model, BEST_SCHEME[model])
            _corrected, report = correct_event_description(
                outcome.generated, MARITIME_VOCABULARY, kb
            )
            for diag in report.semantic_diagnostics:
                assert diag.severity is not None

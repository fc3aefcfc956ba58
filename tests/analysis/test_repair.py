"""The iterative repair loop: plans, termination guard, edge cases.

The loop's contract (see :mod:`repro.analysis.repair`): a clean description
runs zero iterations; mechanical fixes and repair prompts are applied per
iteration; and the signature history guarantees termination — fixpoint when
nothing changes, an oscillation diagnosis when an earlier state recurs, and
the budget as the hard cap when a client keeps producing fresh bad states.
"""

import pytest

from repro.analysis.diagnostics import Diagnostic, Fix
from repro.analysis.repair import RepairResult, repair_event_description, repair_mode
from repro.generation.metrics import average_similarity
from repro.llm.pipeline import GeneratedActivity, GeneratedEventDescription
from repro.logic.parser import parse_program
from repro.maritime import MARITIME
from repro.maritime.gold import ACTIVITY_GROUPS, MARITIME_VOCABULARY


def _gold_generated(model="o1", scheme="few-shot"):
    activities = [
        GeneratedActivity(
            group=group, raw_text=group.rules_text, rules=parse_program(group.rules_text)
        )
        for group in ACTIVITY_GROUPS
    ]
    return GeneratedEventDescription(
        model=model, scheme=scheme, activities=activities, domain=MARITIME
    )


def _broken_generated():
    """One unparseable activity among otherwise-gold definitions.

    The *last* activity (a top-level composite no other definition depends
    on) is corrupted, so the only repairable diagnostic is its parse error —
    breaking a support activity would additionally fire the naming pass on
    the fluents that reference it.
    """
    generated = _gold_generated()
    last = generated.activities[-1]
    generated.activities[-1] = GeneratedActivity(
        group=last.group,
        raw_text="this is not prolog @@@",
        rules=[],
        parse_error="unexpected token",
    )
    return generated


class _ScriptedClient:
    """An LLM stub replying with a fixed cycle of texts to repair prompts."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0
        self.model_name = "scripted"

    def complete(self, conversation):
        reply = self.replies[self.calls % len(self.replies)]
        self.calls += 1
        return reply


class _FreshJunkClient:
    """Re-introduces a *new* error every time it is asked to repair."""

    def __init__(self):
        self.calls = 0
        self.model_name = "fresh-junk"

    def complete(self, conversation):
        self.calls += 1
        return "still not prolog @@@ attempt %d" % self.calls


class TestRepairMode:
    def test_auto_needs_registry_and_fix(self):
        with_fix = Diagnostic(
            "naming", "m", fix=Fix("rename-functor", "gapEnd", "gap_end")
        )
        assert repair_mode(with_fix) == "auto"

    def test_auto_code_without_fix_degrades_to_prompt(self):
        assert repair_mode(Diagnostic("naming", "m")) == "prompt"

    def test_error_codes_are_promptable(self):
        assert repair_mode(Diagnostic("undefined-event", "m")) == "prompt"

    def test_informational_codes_are_not_repairable(self):
        assert repair_mode(Diagnostic("non-shardable", "m")) is None


class TestEdgeCases:
    def test_already_clean_runs_zero_iterations(self):
        result = repair_event_description(_gold_generated(), MARITIME_VOCABULARY)
        assert result.status == "clean"
        assert result.iterations == []
        assert result.converged
        assert result.initial_codes == []
        assert result.final_similarity == pytest.approx(1.0)
        assert result.similarity_delta == pytest.approx(0.0)

    def test_mechanical_only_stops_at_fixpoint_without_client(self):
        # A parse error cannot be fixed mechanically; with no client the
        # first iteration changes nothing and the loop stops immediately.
        result = repair_event_description(_broken_generated(), MARITIME_VOCABULARY)
        assert result.status == "fixpoint"
        assert len(result.iterations) == 1
        assert "RTEC001" in result.final_codes

    def test_oscillating_client_terminates_with_diagnosis(self):
        # The client alternates between two bad states: A, B, A — the third
        # iteration reproduces the first's signature and the guard trips.
        client = _ScriptedClient(
            ["junk alpha @@@", "junk beta @@@"]
        )
        result = repair_event_description(
            _broken_generated(), MARITIME_VOCABULARY, client=client, budget=5
        )
        assert result.status == "oscillating"
        assert len(result.iterations) == 3
        assert result.oscillation is not None
        assert "cycle length 2" in result.oscillation

    def test_stubborn_client_is_a_fixpoint_not_a_loop(self):
        # Always replying with the same bad text reaches the same state
        # twice in a row: a fixpoint, detected on the second iteration.
        client = _ScriptedClient(["junk gamma @@@"])
        result = repair_event_description(
            _broken_generated(), MARITIME_VOCABULARY, client=client, budget=5
        )
        assert result.status == "fixpoint"
        assert len(result.iterations) == 2

    def test_error_reintroducing_client_exhausts_the_budget(self):
        # Every repair attempt yields a *fresh* broken state, so no
        # signature ever recurs and only the budget stops the loop.
        client = _FreshJunkClient()
        result = repair_event_description(
            _broken_generated(), MARITIME_VOCABULARY, client=client, budget=3
        )
        assert result.status == "budget-exhausted"
        assert len(result.iterations) == 3
        assert client.calls == 3
        assert "RTEC001" in result.final_codes

    def test_repairing_client_converges(self):
        # A client that answers with the gold rules fixes the parse error
        # in one iteration.
        gold = ACTIVITY_GROUPS[-1].rules_text
        client = _ScriptedClient([gold])
        result = repair_event_description(
            _broken_generated(), MARITIME_VOCABULARY, client=client, budget=5
        )
        assert result.status == "converged"
        assert len(result.iterations) == 1
        assert result.final_codes == []
        assert result.iterations[0].prompted_activities == [
            ACTIVITY_GROUPS[-1].name
        ]
        assert result.final_similarity == pytest.approx(1.0)
        assert result.final_similarity > result.initial_similarity


class TestSimulatedModels:
    def test_weak_model_improves_with_repair(self, small_dataset):
        from repro.generation import correct_event_description, generate
        from repro.llm.simulated import SimulatedLLM

        outcome = generate(MARITIME, "gemma-2", "few-shot", seed=0)
        baseline_corrected, _ = correct_event_description(
            outcome.generated, MARITIME_VOCABULARY, small_dataset.kb
        )
        baseline = average_similarity(baseline_corrected)
        _repaired, report = correct_event_description(
            outcome.generated,
            MARITIME_VOCABULARY,
            small_dataset.kb,
            repair=True,
            client=SimulatedLLM("gemma-2", MARITIME),
        )
        result = report.repair
        assert isinstance(result, RepairResult)
        assert result.status in ("clean", "converged", "fixpoint")
        assert len(result.iterations) <= 5
        assert result.final_similarity > baseline
        assert report.post_lint is result.final_report

    def test_iteration_report_shape(self, small_dataset):
        from repro.generation import correct_event_description, generate
        from repro.llm.simulated import SimulatedLLM

        outcome = generate(MARITIME, "mistral", "few-shot", seed=0)
        _repaired, report = correct_event_description(
            outcome.generated,
            MARITIME_VOCABULARY,
            small_dataset.kb,
            repair=True,
            client=SimulatedLLM("mistral", MARITIME),
        )
        result = report.repair
        assert result.iterations, "the weak profile should need repair"
        data = result.to_dict()
        assert data["status"] == result.status
        for iteration in data["iterations"]:
            assert set(iteration) >= {
                "index",
                "codes_before",
                "codes_after",
                "fixed_codes",
                "regressed_codes",
                "actions",
                "conflicts",
                "prompted_activities",
                "similarity",
            }


class TestConflictDetection:
    def test_conflicting_renames_are_reported(self):
        from repro.analysis.repair import _detect_conflicts

        diagnostics = [
            Diagnostic("naming", "m", fix=Fix("rename-functor", "gapEnd", "gap_end")),
            Diagnostic("naming", "m", fix=Fix("rename-functor", "gapEnd", "gapStop")),
        ]
        conflicts = _detect_conflicts(diagnostics)
        assert len(conflicts) == 1
        assert "gapEnd" in conflicts[0]
        assert "gap_end" in conflicts[0]  # sorted-first kept

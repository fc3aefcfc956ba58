"""The analyser's census: which diagnostic codes fire on what the repo produces.

The corpus is every event description the repository itself produces: both
golds, plus 6 simulated models x 2 prompting schemes x seeds 0-4 in both
domains, each raw and after correction (242 descriptions). Each one goes
through ``analyse`` with its domain's vocabulary and knowledge base, which
runs the certification passes too. Every state the maritime and fleet
repair experiments analyse is added (92 states), with its codes.

The fired set is pinned, so a code that stops or starts firing fails here.
A registered code that never fires on the corpus must say why it is kept.
The Section 5.2 error classifier's per-category totals over the 240
generated descriptions are pinned too.
"""

import pytest

from repro.analysis import LINT_RULES, AnalysisCertificate, analyse
from repro.fleet import FLEET
from repro.fleet.dataset import build_fleet_knowledge_base
from repro.fleet.gold import (
    FLEET_ACTIVITY_GROUPS,
    FLEET_VOCABULARY,
    fleet_gold_event_description,
)
from repro.generation.correction import correct_event_description
from repro.generation.error_analysis import analyse_errors
from repro.generation.generator import correct_outcome, generate
from repro.llm.profiles import MODEL_NAMES
from repro.llm.prompts import PROMPT_SCHEMES
from repro.maritime import (
    ACTIVITY_GROUPS,
    MARITIME,
    MARITIME_VOCABULARY,
    build_dataset,
    gold_event_description,
)

FIRED = {
    "RTEC002", "RTEC003", "RTEC004", "RTEC009", "RTEC010",
    "RTEC015", "RTEC016", "RTEC018", "RTEC022",
}

#: Why each registered code that the corpus never triggers still exists.
KEPT_WITHOUT_FIRING = {
    "RTEC001": "error: rejects text that does not parse",
    "RTEC005": "error: rejects input at engine load and in session admission",
    "RTEC006": "error: rejects input at engine load and in session admission",
    "RTEC007": "error: rejects input at engine load and in session admission",
    "RTEC008": "error: rejects input at engine load and in session admission",
    "RTEC011": "cheap structural warning of the base analyser",
    "RTEC012": "cheap structural warning of the base analyser",
    "RTEC013": "cheap structural warning of the base analyser",
    "RTEC014": "cheap structural warning of the base analyser",
    "RTEC023": "the declared-output branch of RTEC022's analysis",
    "RTEC025": "gates the delta path",
    "RTEC026": "gates the delta path",
    "RTEC027": "recorded as a serve admission warning (leaky fluents)",
    "RTEC028": "recorded as a serve admission warning (leaky fluents)",
}


#: Per-category totals of ``analyse_errors`` over the 240 generated descriptions.
ERROR_TOTALS = {
    "naming-divergence": 505,
    "wrong-fluent-type": 220,
    "undefined-activity": 160,
    "wrong-operator": 260,
    "missing-rule": 860,
    "syntax-error": 0,
}


def _corpus():
    """(description, vocabulary, kb, generated) per corpus entry; ``generated``
    is the :class:`GeneratedEventDescription`, ``None`` for the two golds."""
    maritime_kb = build_dataset(seed=0, scale=0.05).kb
    fleet_kb = build_fleet_knowledge_base()
    entries = [
        (gold_event_description(), MARITIME_VOCABULARY, maritime_kb, None),
        (fleet_gold_event_description(), FLEET_VOCABULARY, fleet_kb, None),
    ]
    for seed in range(5):
        for model in MODEL_NAMES:
            for scheme in PROMPT_SCHEMES:
                outcome = generate(MARITIME, model, scheme, seed=seed)
                corrected, _report = correct_outcome(outcome, MARITIME_VOCABULARY, maritime_kb)
                for generated in (outcome.generated, corrected.generated):
                    entries.append(
                        (generated.to_event_description(), MARITIME_VOCABULARY, maritime_kb,
                         generated)
                    )
                raw = generate(FLEET, model, scheme, seed=seed).generated
                fixed, _report = correct_event_description(raw, FLEET_VOCABULARY, fleet_kb)
                for generated in (raw, fixed):
                    entries.append(
                        (generated.to_event_description(), FLEET_VOCABULARY, fleet_kb, generated)
                    )
    return entries


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.fixture(scope="module")
def census(corpus, repair_runs):
    reports = [
        analyse(description, vocabulary, kb=kb) for description, vocabulary, kb, _ in corpus
    ]
    experiments, states = repair_runs
    fired = {d.code for report in reports + states for d in report.diagnostics}
    for experiment in experiments:
        for entry in experiment.entries:
            for iteration in entry.result.iterations:
                fired.update(iteration.codes_before)
                fired.update(iteration.codes_after)
    return len(corpus), len(states), fired, reports + states


def test_the_corpus_is_every_description_the_repo_produces(census):
    size, states, _fired, _reports = census
    assert size == 2 + 2 * len(MODEL_NAMES) * len(PROMPT_SCHEMES) * 5 * 2 == 242
    assert states == 92


def test_the_fired_codes_are_pinned(census):
    _size, _states, fired, _reports = census
    assert fired == FIRED


def test_every_description_without_an_error_certifies_clean(census):
    *_, reports = census
    certificates = [AnalysisCertificate.from_report(r) for r in reports if not r.has_errors]
    assert len(certificates) == 54
    assert all(c.delta_safe and c.memory_bounded for c in certificates)


def test_every_code_that_never_fires_says_why_it_is_kept():
    assert set(LINT_RULES) - FIRED == set(KEPT_WITHOUT_FIRING)


def test_every_generated_description_carries_its_domains_groups_in_order(corpus):
    # analyse_errors takes each activity's gold from its own group
    for _description, vocabulary, _kb, generated in corpus:
        if generated is not None:
            groups = ACTIVITY_GROUPS if vocabulary is MARITIME_VOCABULARY else FLEET_ACTIVITY_GROUPS
            assert [activity.group for activity in generated.activities] == list(groups)


def test_the_error_classifier_totals_are_pinned(corpus):
    totals = dict.fromkeys(ERROR_TOTALS, 0)
    for _description, vocabulary, _kb, generated in corpus:
        if generated is not None:
            for category, count in analyse_errors(generated, vocabulary).by_category().items():
                totals[category] += count
    assert totals == ERROR_TOTALS

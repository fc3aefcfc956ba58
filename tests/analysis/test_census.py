"""The analyser's census: which diagnostic codes fire on what the repo produces.

The corpus is every event description the repository itself produces: both
golds, plus 6 simulated models x 2 prompting schemes x seeds 0-4 in both
domains, each raw and after correction (242 descriptions). Each one goes
through ``analyse`` and ``certify_description`` with its domain's
vocabulary and knowledge base. The codes of every iteration of the maritime
and fleet repair experiments are added.

The fired set is pinned, so a code that stops or starts firing fails here.
A registered code that never fires on the corpus must say why it is kept.
"""

import pytest

from repro.analysis import LINT_RULES, analyse, certify_description
from repro.experiments.repair import run_fleet_repair_experiment, run_repair_experiment
from repro.fleet.dataset import build_fleet_knowledge_base
from repro.fleet.generation import generate_fleet
from repro.fleet.gold import FLEET_VOCABULARY, fleet_gold_event_description
from repro.generation.correction import correct_event_description
from repro.generation.generator import correct_outcome, generate
from repro.llm.profiles import MODEL_NAMES
from repro.llm.prompts import PROMPT_SCHEMES
from repro.maritime import MARITIME_VOCABULARY, build_dataset, gold_event_description

FIRED = {
    "RTEC002", "RTEC003", "RTEC004", "RTEC009", "RTEC010",
    "RTEC015", "RTEC016", "RTEC018", "RTEC022", "RTEC030",
}

#: Why each registered code that the corpus never triggers still exists.
KEPT_WITHOUT_FIRING = {
    "RTEC001": "error: rejects text that does not parse",
    "RTEC005": "error: rejects input at engine load and in certification",
    "RTEC006": "error: rejects input at engine load and in certification",
    "RTEC007": "error: rejects input at engine load and in certification",
    "RTEC008": "error: rejects input at engine load and in certification",
    "RTEC011": "cheap structural warning of the base analyser",
    "RTEC012": "cheap structural warning of the base analyser",
    "RTEC013": "cheap structural warning of the base analyser",
    "RTEC014": "cheap structural warning of the base analyser",
    "RTEC023": "the declared-output branch of RTEC022's analysis",
    "RTEC025": "gates the delta path",
    "RTEC026": "gates the delta path",
    "RTEC027": "gates serve admission under certify=require",
    "RTEC028": "gates serve admission under certify=require",
}


def _corpus():
    maritime_kb = build_dataset(seed=0, scale=0.05).kb
    fleet_kb = build_fleet_knowledge_base()
    corpus = [
        (gold_event_description(), MARITIME_VOCABULARY, maritime_kb),
        (fleet_gold_event_description(), FLEET_VOCABULARY, fleet_kb),
    ]
    for seed in range(5):
        for model in MODEL_NAMES:
            for scheme in PROMPT_SCHEMES:
                outcome = generate(model, scheme, seed=seed)
                corrected, _report = correct_outcome(outcome, MARITIME_VOCABULARY, maritime_kb)
                for generated in (outcome.generated, corrected.generated):
                    corpus.append(
                        (generated.to_event_description(), MARITIME_VOCABULARY, maritime_kb)
                    )
                raw = generate_fleet(model, scheme, seed=seed)
                fixed, _report = correct_event_description(raw, FLEET_VOCABULARY, fleet_kb)
                for generated in (raw, fixed):
                    corpus.append((generated.to_event_description(), FLEET_VOCABULARY, fleet_kb))
    return corpus, maritime_kb


@pytest.fixture(scope="module")
def census():
    corpus, maritime_kb = _corpus()
    fired = set()
    for description, vocabulary, kb in corpus:
        fired.update(d.code for d in analyse(description, vocabulary, kb=kb).diagnostics)
        certificate = certify_description(description, vocabulary, kb=kb)
        fired.update(d.code for d in certificate.diagnostics)
    for experiment in (run_repair_experiment(maritime_kb, seed=0), run_fleet_repair_experiment(seed=0)):
        for entry in experiment.entries:
            for iteration in entry.result.iterations:
                fired.update(iteration.codes_before)
                fired.update(iteration.codes_after)
    return len(corpus), fired


def test_the_corpus_is_every_description_the_repo_produces(census):
    size, _fired = census
    assert size == 2 + 2 * len(MODEL_NAMES) * len(PROMPT_SCHEMES) * 5 * 2 == 242


def test_the_fired_codes_are_pinned(census):
    _size, fired = census
    assert fired == FIRED


def test_every_code_that_never_fires_says_why_it_is_kept():
    assert set(LINT_RULES) - FIRED == set(KEPT_WITHOUT_FIRING)

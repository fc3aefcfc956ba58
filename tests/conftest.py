"""Shared fixtures: small datasets and parsed gold structures.

The expensive artefacts (synthetic dataset, recognition run) are
session-scoped so the whole suite builds them once.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

import repro.analysis.repair as repair
from repro.experiments.repair import run_repair_experiment
from repro.fleet import FLEET
from repro.maritime import MARITIME, build_dataset, gold_event_description
from repro.rtec import RTECEngine

# A longer search for counterexamples to the metric axioms than tier-1 affords:
# pytest tests/similarity/test_metric_properties.py --hypothesis-profile=metric
settings.register_profile("metric", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def small_dataset():
    """A reduced synthetic maritime dataset (fast, still covers everything)."""
    return build_dataset(seed=7, scale=0.2, traffic=2)


@pytest.fixture(scope="session")
def gold_description():
    return gold_event_description()


@pytest.fixture(scope="session")
def gold_recognition(small_dataset, gold_description):
    engine = RTECEngine(gold_description, small_dataset.kb, small_dataset.vocabulary)
    return engine.recognise(small_dataset.stream, small_dataset.input_fluents)


@pytest.fixture(scope="session")
def repair_runs():
    """The maritime and fleet repair experiments, and every state
    the repair loop analysed on the way: the analyser census reads both,
    and the paper claims gate both."""
    states = []
    with pytest.MonkeyPatch.context() as patch:
        analyse_state = repair._analyse

        def recorded(*args):
            states.append(analyse_state(*args))
            return states[-1]

        patch.setattr(repair, "_analyse", recorded)
        experiments = tuple(
            run_repair_experiment(domain, kb)
            for domain, kb in (
                (MARITIME, build_dataset(seed=0, scale=0.05).kb),
                (FLEET, FLEET.dataset().kb),
            )
        )
    return experiments, states

"""Shared fixtures: small datasets and parsed gold structures.

The expensive artefacts (synthetic dataset, recognition run) are
session-scoped so the whole suite builds them once.
"""

from __future__ import annotations

import pytest

import repro.analysis.repair as repair
from repro.experiments.repair import run_fleet_repair_experiment, run_repair_experiment
from repro.maritime import build_dataset, gold_event_description
from repro.rtec import RTECEngine


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
    """The maritime and fleet repair experiments at seed 0, and every state
    the repair loop analysed on the way: the analyser census reads both,
    and the paper claims gate both."""
    states = []
    with pytest.MonkeyPatch.context() as patch:
        analyse_state = repair._analyse

        def recorded(*args):
            states.append(analyse_state(*args))
            return states[-1]

        patch.setattr(repair, "_analyse", recorded)
        maritime_kb = build_dataset(seed=0, scale=0.05).kb
        experiments = (run_repair_experiment(maritime_kb, seed=0), run_fleet_repair_experiment(seed=0))
    return experiments, states

"""Shared fixtures for the benchmark harness.

Benchmarks regenerate the paper's figures (printing the same rows/series)
and measure the cost of each pipeline stage. Expensive artefacts are built
once per session.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.experiments import run_fig2a, run_fig2b
from repro.maritime import build_dataset, gold_event_description
from repro.rtec import RTECEngine


def pytest_addoption(parser):
    parser.addoption(
        "--dataset-scale",
        action="store",
        default=0.25,
        type=float,
        help="duration scale of the synthetic maritime dataset",
    )


@pytest.fixture(scope="session")
def dataset(pytestconfig):
    scale = pytestconfig.getoption("--dataset-scale")
    return build_dataset(seed=0, scale=scale, traffic=4)


@pytest.fixture(scope="session")
def gold_description():
    return gold_event_description()


@pytest.fixture(scope="session")
def gold_engine(dataset, gold_description):
    return RTECEngine(gold_description, dataset.kb, dataset.vocabulary)


@pytest.fixture
def stage_telemetry(benchmark):
    """Per-test telemetry that lands in the benchmark JSON.

    Enables the tracer for the duration of the test and, on teardown,
    attaches the per-stage breakdown (span name -> calls/seconds/counters)
    to ``benchmark.extra_info["telemetry"]`` so that
    ``--benchmark-json`` artefacts carry per-stage cost, not just totals.
    """
    tracer = telemetry.enable()
    try:
        yield tracer
    finally:
        telemetry.disable()
        benchmark.extra_info["telemetry"] = tracer.report().aggregate_dict()


@pytest.fixture(scope="session")
def fig2a_result():
    return run_fig2a(seed=0)


@pytest.fixture(scope="session")
def fig2b_result(fig2a_result, dataset):
    return run_fig2b(dataset.kb, fig2a=fig2a_result)

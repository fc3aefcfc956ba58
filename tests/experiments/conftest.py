"""The seed-0, scale-0.25 Fig. 2 pass, built once per session.

It is the pass ``repro fig2a``, ``fig2b`` and ``fig2c`` print and the
``fig2_pipeline`` benchmark runs: ``test_fig2_digests.py`` pins its bytes,
``test_figures.py`` the paper's claims about it.
"""

import pytest

from repro.experiments import fig2a, fig2b, fig2c
from repro.maritime import build_dataset


@pytest.fixture(scope="session")
def figures():
    dataset = build_dataset(seed=0, scale=0.25)
    result_a = fig2a.run_fig2a(seed=0)
    result_b = fig2b.run_fig2b(dataset.kb, fig2a=result_a)
    result_c = fig2c.run_fig2c(fig2b=result_b, dataset=dataset)
    return result_a, result_b, result_c

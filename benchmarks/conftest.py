"""Session-scoped fixtures shared across the benchmark suite.

The evaluation world (scenarios, evidence, survey) is expensive enough
to build once and reuse; individual benchmarks time the computation
they own, not the shared setup.
"""

from __future__ import annotations

import pytest

from repro.evaluation import EvaluationHarness

#: One seed for the whole benchmark run; matches the paper year.
BENCH_SEED = 2015


@pytest.fixture(scope="session")
def harness() -> EvaluationHarness:
    """The Section 7 world: 5 types x 5 properties x 20 entities."""
    return EvaluationHarness(seed=BENCH_SEED)


@pytest.fixture(scope="session")
def survey(harness):
    return harness.survey


@pytest.fixture(scope="session")
def evidence(harness):
    return harness.evidence


@pytest.fixture(scope="session")
def interpreted(harness):
    """Opinion tables of all four methods over the shared evidence."""
    return harness.interpret_all()

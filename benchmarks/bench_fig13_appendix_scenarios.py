"""Figure 13 — Appendix A studies: wealthy countries, big Swiss lakes,
high British mountains.

Paper: for all three scenarios the probabilistic model's polarity
correlates with the objective covariate far better than majority
vote's, and the model classifies entities for which no statements were
collected at all.
"""

from __future__ import annotations

import pytest
from _report import emit

from repro.evaluation import APPENDIX_A_STUDIES, run_study


@pytest.mark.parametrize(
    "spec", APPENDIX_A_STUDIES, ids=lambda s: s.name
)
def bench_fig13_study(benchmark, spec):
    outcome = benchmark.pedantic(
        lambda: run_study(spec, seed=2015), rounds=1, iterations=1
    )
    lines = [
        f"Figure 13 — {spec.name} "
        f"({spec.property_text} vs {spec.attribute})",
        outcome.majority.row(),
        outcome.surveyor.row(),
    ]
    emit(spec.name.replace("-", "_"), lines)

    assert outcome.surveyor.decided_fraction == 1.0
    assert outcome.majority.decided_fraction < 1.0
    assert outcome.surveyor.auc >= outcome.majority.auc
    assert outcome.surveyor.auc > 0.9
    # Positive-marked entities sit above negative-marked ones on the
    # covariate (separation > 1); the headline comparison is the AUC.
    assert outcome.surveyor.separation > 1.0

"""Figure 3 — the Section 2 empirical study on 461 Californian cities.

Paper: statement counts correlate with population (3a/3b); majority
vote yields polarities uncorrelated with population and leaves many
cities undecided (3c); the probabilistic model decides every city and
its polarity tracks population (3d).

Expected shape: Surveyor decided fraction 1.0 with AUC near 1; majority
vote partial coverage and visibly lower AUC.
"""

from __future__ import annotations

import numpy as np
from _report import emit

from repro.corpus import CorpusGenerator
from repro.evaluation import BIG_CITIES, run_study
from repro.kb import KnowledgeBase


def bench_fig3_counts_vs_population(benchmark):
    """3(a)/3(b): statement counts correlate with population."""
    spec = BIG_CITIES
    scenario = spec.scenario()

    def probe():
        return CorpusGenerator(seed=2015).probe(scenario)

    counter = benchmark(probe)
    key = spec.key()
    per_entity = counter.as_evidence()[key]
    populations = []
    totals = []
    for entity in scenario.entities:
        counts = per_entity.get(entity.id)
        populations.append(entity.attribute("population"))
        totals.append(counts.total if counts else 0)
    log_pop = np.log10(populations)
    corr = float(np.corrcoef(log_pop, totals)[0, 1])
    lines = [
        "Figure 3(a,b) — statement counts vs population",
        f"cities: {len(populations)}",
        f"pearson(log10 population, total statements) = {corr:.3f}",
        f"silent cities: {sum(1 for t in totals if t == 0)}",
    ]
    emit("fig3_counts_vs_population", lines)
    assert corr > 0.4


def bench_fig3_mv_vs_model(benchmark):
    """3(c)/3(d): majority vote vs probabilistic model polarity."""
    outcome = benchmark.pedantic(
        lambda: run_study(BIG_CITIES, seed=2015), rounds=1, iterations=1
    )
    lines = [
        "Figure 3(c,d) — polarity quality on 461 CA cities ('big')",
        outcome.majority.row(),
        outcome.surveyor.row(),
    ]
    emit("fig3_mv_vs_model", lines)
    assert outcome.surveyor.decided_fraction == 1.0
    assert outcome.majority.decided_fraction < 1.0
    assert outcome.surveyor.auc > outcome.majority.auc
    assert outcome.surveyor.auc > 0.95

"""Ablations for the design choices DESIGN.md calls out.

1. Poisson product vs exact Multinomial posterior (Section 5.2's
   approximation) — max/mean posterior deviation.
2. ``pA`` grid resolution in the M-step — precision vs grid size.
3. Per property-type parameters vs one global parameter vector
   (the paper's central modeling claim).
4. Occurrence threshold rho — qualifying combinations vs coverage.
5. Uniform vs empirical prior over the dominant opinion.
6. EM iteration budget — how fast the fit converges.
"""

from __future__ import annotations

import numpy as np
import pytest
from _report import emit

from repro.baselines import SurveyorInterpreter
from repro.core import (
    EMLearner,
    EvidenceCounts,
    ModelParameters,
    Surveyor,
    UserBehaviorModel,
)
from repro.evaluation import evaluate_table


# ---------------------------------------------------------------------------
# 1. Poisson vs Multinomial
# ---------------------------------------------------------------------------

def bench_ablation_poisson_vs_multinomial(benchmark):
    params = ModelParameters(0.9, 100.0, 5.0)
    model = UserBehaviorModel(params)
    grid = [
        EvidenceCounts(p, n)
        for p in range(0, 121, 5)
        for n in range(0, 13)
    ]

    def deltas():
        return [
            abs(
                model.posterior_positive(counts)
                - model.posterior_positive_multinomial(counts, 1_000_000)
            )
            for counts in grid
        ]

    deviations = benchmark(deltas)
    lines = [
        "Ablation 1 — Poisson product vs exact Multinomial posterior",
        f"grid points: {len(grid)} (n = 1,000,000 documents)",
        f"max |delta| = {max(deviations):.2e}",
        f"mean |delta| = {float(np.mean(deviations)):.2e}",
    ]
    emit("ablation_poisson_vs_multinomial", lines)
    # The approximation is essentially exact in the Web regime.
    assert max(deviations) < 1e-3


# ---------------------------------------------------------------------------
# 2. pA grid resolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid_size", [3, 7, 15, 49])
def bench_ablation_grid_resolution(benchmark, harness, survey, grid_size):
    grid = tuple(
        0.5 + 0.49 * (i + 1) / (grid_size + 1) for i in range(grid_size)
    )
    interpreter = SurveyorInterpreter(
        occurrence_threshold=1, learner=EMLearner(agreement_grid=grid)
    )
    evidence = harness.evidence.as_evidence()

    table = benchmark.pedantic(
        lambda: interpreter.interpret(evidence, harness.kb),
        rounds=1,
        iterations=1,
    )
    score = evaluate_table(
        f"grid={grid_size}", table, survey.without_ties()
    )
    results = _STATE.setdefault("grid", {})
    results[grid_size] = score
    if len(results) == 4:
        lines = ["Ablation 2 — pA grid resolution"]
        lines += [results[k].row() for k in sorted(results)]
        emit("ablation_grid_resolution", lines)
        # Precision saturates: the finest grid must not lose to the
        # coarsest by more than noise, and coverage stays total.
        assert results[49].precision >= results[3].precision - 0.05


_STATE: dict = {}


# ---------------------------------------------------------------------------
# 3. Per-combination vs global parameters
# ---------------------------------------------------------------------------

def bench_ablation_per_combination_vs_global(benchmark, harness, survey):
    """Fit one parameter vector on the pooled evidence of all
    combinations, then score both modes on the Table 3 test set."""
    evidence = harness.evidence.as_evidence()
    test_cases = survey.without_ties()

    def global_table():
        pooled = [
            counts
            for per_entity in evidence.values()
            for counts in per_entity.values()
        ]
        result = EMLearner().fit(pooled)
        model = UserBehaviorModel(result.parameters)
        from repro.core import Opinion, OpinionTable

        table = OpinionTable()
        for key, per_entity in evidence.items():
            ids = set(harness.kb.entity_ids_of_type(key.entity_type))
            ids.update(per_entity)
            for entity_id in ids:
                counts = per_entity.get(entity_id, EvidenceCounts.ZERO)
                table.add(model.opinion(entity_id, key, counts))
        return table

    global_scores = evaluate_table(
        "global parameters", benchmark(global_table), test_cases
    )
    per_combination_table = SurveyorInterpreter(
        occurrence_threshold=1
    ).interpret(evidence, harness.kb)
    per_combination_scores = evaluate_table(
        "per-combination parameters", per_combination_table, test_cases
    )
    lines = [
        "Ablation 3 — per-combination vs global parameters",
        per_combination_scores.row(),
        global_scores.row(),
    ]
    emit("ablation_per_combination_vs_global", lines)
    # The paper's core claim: specializing parameters per combination
    # beats a single global fit.
    assert per_combination_scores.precision > global_scores.precision


# ---------------------------------------------------------------------------
# 4. Occurrence threshold rho
# ---------------------------------------------------------------------------

def bench_ablation_occurrence_threshold(benchmark, harness, survey):
    evidence = harness.evidence.as_evidence()
    test_cases = survey.without_ties()

    def sweep():
        rows = []
        for rho in (1, 50, 100, 500, 2000):
            surveyor = Surveyor(
                catalog=harness.kb, occurrence_threshold=rho
            )
            result = surveyor.run(evidence)
            score = evaluate_table(
                f"rho={rho}", result.opinions, test_cases
            )
            rows.append((rho, len(result.fits), score))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Ablation 4 — occurrence threshold rho"]
    for rho, n_fits, score in rows:
        lines.append(f"rho={rho:5d} combinations={n_fits:3d} {score.row()}")
    emit("ablation_occurrence_threshold", lines)
    # Raising rho can only shrink the set of qualifying combinations
    # and hence coverage.
    fits = [n for _, n, _ in rows]
    assert fits == sorted(fits, reverse=True)
    coverages = [score.coverage for _, _, score in rows]
    assert coverages == sorted(coverages, reverse=True)


# ---------------------------------------------------------------------------
# 5. Prior choice
# ---------------------------------------------------------------------------

def bench_ablation_prior(benchmark, harness, survey):
    evidence = harness.evidence.as_evidence()
    test_cases = survey.without_ties()
    surveyor = Surveyor(catalog=harness.kb, occurrence_threshold=1)

    def with_prior(prior: float):
        from repro.core import Opinion, OpinionTable

        table = OpinionTable()
        for key, per_entity in evidence.items():
            fit = surveyor.fit_combination(key, per_entity)
            model = UserBehaviorModel(
                fit.parameters, prior_positive=prior
            )
            ids = set(harness.kb.entity_ids_of_type(key.entity_type))
            ids.update(per_entity)
            for entity_id in ids:
                counts = per_entity.get(entity_id, EvidenceCounts.ZERO)
                table.add(model.opinion(entity_id, key, counts))
        return table

    uniform = evaluate_table(
        "prior=0.5 (paper)", benchmark(lambda: with_prior(0.5)), test_cases
    )
    rows = [uniform]
    for prior in (0.25, 0.75):
        rows.append(
            evaluate_table(
                f"prior={prior}", with_prior(prior), test_cases
            )
        )
    lines = ["Ablation 5 — prior over the dominant opinion"]
    lines += [row.row() for row in rows]
    emit("ablation_prior", lines)
    # The agnostic prior is competitive with mild alternatives.
    assert uniform.f1 >= max(row.f1 for row in rows) - 0.05


# ---------------------------------------------------------------------------
# 6. EM iteration budget
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("iterations", [1, 2, 5, 50])
def bench_ablation_em_iterations(benchmark, harness, survey, iterations):
    evidence = harness.evidence.as_evidence()
    interpreter = SurveyorInterpreter(
        occurrence_threshold=1,
        learner=EMLearner(max_iterations=iterations, tolerance=0.0),
    )
    table = benchmark.pedantic(
        lambda: interpreter.interpret(evidence, harness.kb),
        rounds=1,
        iterations=1,
    )
    score = evaluate_table(
        f"iterations={iterations}", table, survey.without_ties()
    )
    results = _STATE.setdefault("iterations", {})
    results[iterations] = score
    if len(results) == 4:
        lines = ["Ablation 6 — EM iteration budget"]
        lines += [results[k].row() for k in sorted(results)]
        emit("ablation_em_iterations", lines)
        assert results[50].precision >= results[1].precision - 0.02

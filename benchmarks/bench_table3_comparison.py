"""Table 3 — coverage / precision / F1 of the four interpreters.

Paper values (40 TB snapshot, real AMT):

    Majority Vote          coverage 0.483  precision 0.29  F1 0.36
    Scaled Majority Vote   coverage 0.486  precision 0.37  F1 0.42
    WebChild               coverage 0.477  precision 0.54  F1 0.51
    Surveyor               coverage 0.966  precision 0.77  F1 0.84

Expected shape on the synthetic corpus: same ordering — Surveyor wins
every column, majority vote has the worst precision, the coverage gap
between Surveyor and the counting baselines is wide.
"""

from __future__ import annotations

from _report import emit

from repro.evaluation import evaluate_table


def bench_table3(benchmark, harness, interpreted, survey):
    test_cases = survey.without_ties()

    def score_all():
        return [
            evaluate_table(name, table, test_cases)
            for name, table in interpreted.items()
        ]

    scores = benchmark(score_all)
    lines = ["Table 3 — method comparison (synthetic corpus)"]
    lines += [score.row() for score in scores]
    emit("table3_comparison", lines)

    by_name = {score.name: score for score in scores}
    surveyor = by_name["Surveyor"]
    assert surveyor.f1 == max(s.f1 for s in scores)
    assert surveyor.precision == max(s.precision for s in scores)
    assert surveyor.coverage == max(s.coverage for s in scores)
    assert by_name["Majority Vote"].precision <= min(
        s.precision for s in scores
    ) + 1e-9


def bench_table3_interpretation_cost(benchmark, harness):
    """Time the full four-way interpretation (the modeling stage)."""
    evidence = harness.evidence.as_evidence()

    from repro.baselines import standard_interpreters

    def interpret_all():
        return [
            interpreter.interpret(evidence, harness.kb)
            for interpreter in standard_interpreters()
        ]

    tables = benchmark(interpret_all)
    assert len(tables) == 4

"""Table 3 through the full text pipeline.

The shared fixtures use probe-mode evidence (counts drawn directly
from the generative model). This benchmark runs the identical Table 3
comparison on evidence produced the long way — rendering the corpus to
English, annotating, pattern-matching, filtering — and checks that the
headline shape survives the NLP round trip: rendering noise (broad
copulas, aspect statements, distractors) must not change who wins.
"""

from __future__ import annotations

from _report import emit

from repro.evaluation import evaluate_table
from repro.evaluation.harness import EvaluationHarness


def bench_table3_text_pipeline(benchmark):
    harness = EvaluationHarness(seed=2015, use_text_pipeline=True)

    def run():
        # Materializes evidence through the full text pipeline.
        return harness.table3()

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Table 3 via the full text pipeline (render + NLP + extract)"]
    lines += [score.row() for score in scores]
    emit("table3_text_pipeline", lines)

    by_name = {score.name: score for score in scores}
    surveyor = by_name["Surveyor"]
    assert surveyor.f1 == max(s.f1 for s in scores)
    assert surveyor.precision == max(s.precision for s in scores)
    assert surveyor.coverage > 1.2 * by_name["Majority Vote"].coverage


def bench_text_vs_probe_consistency(benchmark, harness):
    """Counts from the text path track the probe counts closely."""
    text_harness = EvaluationHarness(seed=2015, use_text_pipeline=True)

    def totals():
        probe_per_key = harness.evidence.statements_per_key()
        text_per_key = text_harness.evidence.statements_per_key()
        return probe_per_key, text_per_key

    probe_per_key, text_per_key = benchmark.pedantic(
        totals, rounds=1, iterations=1
    )
    lines = ["Text-pipeline vs probe evidence totals per combination"]
    ratios = []
    for key in sorted(probe_per_key, key=str):
        probe_total = probe_per_key[key]
        text_total = text_per_key.get(key, 0)
        ratio = text_total / probe_total if probe_total else 0.0
        ratios.append(ratio)
        lines.append(
            f"{str(key):28s} probe={probe_total:5d} "
            f"text={text_total:5d} ratio={ratio:.2f}"
        )
    emit("text_vs_probe", lines)
    # Rendering noise costs ~10% of statements (broad copulas) and
    # adds none (filters hold): ratios sit in a tight band below 1.
    assert all(0.75 <= ratio <= 1.05 for ratio in ratios)

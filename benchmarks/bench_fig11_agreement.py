"""Figure 11 — number of test cases above each agreement threshold.

Paper: ~491 cases at >=11 (after removing ~4% ties), dropping to ~180
at 20/20; average agreement 17 of 20.
"""

from __future__ import annotations

from _report import emit

from repro.evaluation import case_counts_by_threshold


def bench_fig11_histogram(benchmark, survey):
    def compute():
        return case_counts_by_threshold(survey)

    counts = benchmark(compute)
    lines = [
        "Figure 11 — #test cases with worker agreement >= threshold",
        f"mean agreement: {survey.mean_agreement():.2f} / 20 "
        f"(paper: 17/20)",
        f"ties removed: {survey.tie_fraction():.1%} (paper: ~4%)",
        f"perfect agreement: {survey.perfect_agreement_count()} "
        f"(paper: ~180)",
    ]
    for threshold in sorted(counts):
        lines.append(f">= {threshold:2d}: {counts[threshold]:3d}")
    emit("fig11_agreement", lines)

    thresholds = sorted(counts)
    values = [counts[t] for t in thresholds]
    assert values == sorted(values, reverse=True)
    assert 15.5 < survey.mean_agreement() < 18.5
    assert counts[thresholds[0]] > 450
    assert counts[20] > 50

"""Figure 12 — precision and coverage vs agreement threshold.

Paper shapes: Surveyor's precision rises with agreement (0.77 over all
cases to 0.87 at near-unanimity) while majority vote does not benefit;
Surveyor's coverage stays flat near 1.0; the effect is inconclusive for
WebChild.
"""

from __future__ import annotations

from _report import emit

from repro.evaluation import series_for


def bench_fig12_series(benchmark, interpreted, survey):
    def compute():
        return [
            series_for(name, table, survey)
            for name, table in interpreted.items()
        ]

    series = benchmark(compute)
    lines = ["Figure 12 — precision / coverage vs agreement threshold"]
    for entry in series:
        thresholds = " ".join(f"{t:5d}" for t in entry.thresholds())
        precisions = " ".join(f"{p:5.2f}" for p in entry.precisions())
        coverages = " ".join(f"{c:5.2f}" for c in entry.coverages())
        lines.append(f"{entry.name}")
        lines.append(f"  threshold {thresholds}")
        lines.append(f"  precision {precisions}")
        lines.append(f"  coverage  {coverages}")
    emit("fig12_precision_vs_agreement", lines)

    by_name = {entry.name: entry for entry in series}
    surveyor = by_name["Surveyor"].precisions()
    majority = by_name["Majority Vote"].precisions()
    # Surveyor gains with agreement; the gain beats majority vote's.
    assert surveyor[-1] > surveyor[0]
    assert surveyor[-1] - surveyor[0] > majority[-1] - majority[0] - 0.02
    # Surveyor stays ahead at every threshold.
    for s, m in zip(surveyor, majority):
        assert s > m
    # Coverage of Surveyor stays (near) total.
    assert min(by_name["Surveyor"].coverages()) > 0.95

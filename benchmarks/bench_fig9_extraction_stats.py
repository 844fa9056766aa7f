"""Figure 9 — extraction statistics over the full evaluation world.

Paper shapes:
* 9(a): statements per entity — near zero up to the 95th percentile,
  then exploding (few popular entities absorb most statements);
* 9(b): statements per property-type combination — skewed;
* 9(c): properties above the occurrence threshold per type — skewed.
"""

from __future__ import annotations

from _report import emit

from repro.evaluation import extraction_statistics


def bench_fig9_statistics(benchmark, harness, evidence):
    # Figure 9(a) is computed over the whole knowledge base: the KB is
    # far larger than the set of evidenced entities, which is why the
    # curve stays at zero until the high percentiles.
    from repro.kb import full_kb

    all_entity_ids = [entity.id for entity in full_kb()]

    def compute():
        return extraction_statistics(
            evidence, all_entity_ids, occurrence_threshold=100
        )

    stats = benchmark(compute)
    lines = ["Figure 9 — extraction statistics", stats.report()]
    emit("fig9_extraction_stats", lines)

    per_entity = stats.per_entity.as_dict()
    # 9(a): the median entity gets (almost) nothing; the top decile a lot.
    assert per_entity[50] <= 10
    assert per_entity[100] > 10 * max(per_entity[50], 1)
    # 9(b): skew across combinations.
    per_combination = stats.per_combination.as_dict()
    assert per_combination[100] > 2 * per_combination[50]

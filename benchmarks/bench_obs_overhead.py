"""Overhead of the observability layer on the hot pipeline path.

The acceptance bar for the tracing subsystem: with telemetry *off*
(the default — no tracer, no registry), the instrumented pipeline must
run within 5% of itself, i.e. the guards (`if tracer is not None`,
null context managers) must be invisible. The benchmark also reports
the cost of running fully instrumented, which is allowed to be higher
— that is the price of a trace, paid only when asked for.

The budget covers **memory too**: the disabled path must not allocate
meaningfully more than the uninstrumented one. Wall timings use the
min over several runs (the stable estimator for same-machine
comparisons) with tracemalloc off; the Python-heap peaks come from
separate single runs under tracemalloc, so allocation tracing never
distorts the timing figures.
"""

from __future__ import annotations

import time
import tracemalloc

from _report import emit, emit_json

from repro.corpus.generator import CorpusGenerator
from repro.evaluation.harness import EvaluationHarness
from repro.obs import MemoryProbe, MetricsRegistry, Tracer, rss_peak_bytes
from repro.pipeline import SurveyorPipeline

#: Telemetry-off runs must stay within this factor of each other.
OVERHEAD_BUDGET = 1.05
#: ... in Python-heap peak as well as wall time.
MEM_OVERHEAD_BUDGET = 1.10
ROUNDS = 5


def _fixture():
    harness = EvaluationHarness(seed=2015)
    scenarios = harness.scenarios()[:6]
    corpus = CorpusGenerator(seed=2015).generate(*scenarios)
    return harness.kb, corpus


def _build(kb, **pipeline_kwargs):
    return SurveyorPipeline(
        kb=kb, occurrence_threshold=50, **pipeline_kwargs
    )


def _best_of_interleaved(kb, corpus, configs, rounds=ROUNDS):
    """Min wall time per config, rounds interleaved across configs.

    Round-robin ordering decorrelates slow system drift (thermal,
    cache, background load) from the config under test — three
    back-to-back blocks would attribute any drift to whichever config
    ran last and flap the 5% budget.
    """
    best = {key: float("inf") for key in configs}
    for _ in range(rounds):
        for key, kwargs in configs.items():
            pipeline = _build(kb, **kwargs)
            started = time.perf_counter()
            pipeline.run(corpus)
            elapsed = time.perf_counter() - started
            best[key] = min(best[key], elapsed)
    return best


def _heap_peak(kb, corpus, **pipeline_kwargs):
    """Python-heap peak of one run, bytes (tracemalloc bracketed)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        probe = MemoryProbe().start()
        _build(kb, **pipeline_kwargs).run(corpus)
        return probe.stop().tracemalloc_peak_bytes
    finally:
        if not was_tracing:
            tracemalloc.stop()


def bench_tracing_disabled_overhead(benchmark):
    kb, corpus = _fixture()

    def measure():
        best = _best_of_interleaved(
            kb,
            corpus,
            {
                "baseline": {},
                "disabled": {"tracer": Tracer(enabled=False)},
                "traced": {
                    "tracer": Tracer(enabled=True),
                    "registry": MetricsRegistry(),
                },
            },
        )
        return best["baseline"], best["disabled"], best["traced"]

    baseline, disabled, traced = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    heap_baseline = _heap_peak(kb, corpus)
    heap_disabled = _heap_peak(kb, corpus, tracer=Tracer(enabled=False))
    heap_traced = _heap_peak(
        kb,
        corpus,
        tracer=Tracer(enabled=True),
        registry=MetricsRegistry(),
    )
    ratio_disabled = disabled / baseline
    ratio_traced = traced / baseline
    heap_ratio_disabled = heap_disabled / heap_baseline
    heap_ratio_traced = heap_traced / heap_baseline
    lines = [
        "Observability overhead on the full pipeline "
        f"({len(corpus)} documents, min of {ROUNDS})",
        f"no telemetry:    {baseline * 1000:8.1f} ms  "
        f"heap peak {heap_baseline / 1024:8.0f} KiB",
        f"disabled tracer: {disabled * 1000:8.1f} ms "
        f"({ratio_disabled:.3f}x)  "
        f"heap peak {heap_disabled / 1024:8.0f} KiB "
        f"({heap_ratio_disabled:.3f}x)",
        f"full tracing:    {traced * 1000:8.1f} ms "
        f"({ratio_traced:.3f}x)  "
        f"heap peak {heap_traced / 1024:8.0f} KiB "
        f"({heap_ratio_traced:.3f}x)",
        f"process peak RSS: {rss_peak_bytes() / (1 << 20):.1f} MiB",
    ]
    emit("obs_overhead", lines)
    # The historical keys stay at the top level so older readers of
    # obs_overhead.json keep working; memory rows are additions.
    emit_json(
        "obs_overhead",
        {
            "documents": len(corpus),
            "baseline_seconds": baseline,
            "disabled_seconds": disabled,
            "traced_seconds": traced,
            "disabled_ratio": ratio_disabled,
            "traced_ratio": ratio_traced,
            "budget": OVERHEAD_BUDGET,
            "baseline_heap_peak_bytes": heap_baseline,
            "disabled_heap_peak_bytes": heap_disabled,
            "traced_heap_peak_bytes": heap_traced,
            "disabled_heap_ratio": heap_ratio_disabled,
            "traced_heap_ratio": heap_ratio_traced,
            "mem_budget": MEM_OVERHEAD_BUDGET,
            "peak_rss_bytes": rss_peak_bytes(),
        },
    )
    assert ratio_disabled < OVERHEAD_BUDGET, (
        f"disabled telemetry costs {ratio_disabled:.3f}x "
        f"(budget {OVERHEAD_BUDGET}x)"
    )
    assert heap_ratio_disabled < MEM_OVERHEAD_BUDGET, (
        f"disabled telemetry allocates {heap_ratio_disabled:.3f}x "
        f"(budget {MEM_OVERHEAD_BUDGET}x)"
    )

"""Section 7.1 — the pipeline scale run.

Paper: 40 TB snapshot, 922M statements, 60M pairs, 7M combinations,
380k above threshold, 4B opinions; extraction ~1h on 5000 nodes, EM
only 10 minutes thanks to the closed-form steps.

Downscaled equivalent: render the full evaluation world to text, run
the sharded pipeline end to end, and report the same stage breakdown.
The shape to reproduce is the *relative* cost profile: extraction
dominates; the EM stage is a small fraction of the total despite
fitting every combination.
"""

from __future__ import annotations

import gc
import resource

from _report import emit

from repro.corpus import CorpusGenerator, NoiseProfile, WebCorpus
from repro.pipeline import SurveyorPipeline

#: Extraction-throughput regression gates for the fast path (see
#: docs/performance.md). The primary gate is *relative* and measured
#: in process CPU seconds: the reference path runs on a slice of the
#: same corpus in the same process, and CPU time (unlike wall time)
#: does not inflate when other tenants load the CI box — wall-clock
#: ratios proved bimodal on shared single-core hardware. The
#: committed speedup is ~3x (22.7k vs 7.0k docs/s on the baseline
#: hardware); observed CPU-second ratios range 2.1–3.1x on shared
#: hardware (frequency scaling moves even CPU time), so the floor
#: sits at 1.8x — low enough not to flap, high enough to catch a
#: disabled or broken fast path (~1.0x) outright. Absolute docs/s is
#: gated by the paired perfbench lane (``scripts/perf_lane.py``).
SPEEDUP_FLOOR = 1.8
#: Documents in the reference-path comparison slice.
REFERENCE_SLICE = 4000

#: EM-stage gate. EM is a few percent of a mining run, so a 2x slower
#: EM moves the mining workloads' ``ops_per_s`` by well under their
#: bound; this ratio moves with it. It compares the EM stage's CPU
#: seconds against those of a fixed pure-Python loop
#: (:func:`_reference_loop`), both timed in this process, interleaved
#: with GC pinned, best of ``EM_ROUNDS`` each. Measured 1.7–2.4 on a
#: 2-vCPU VM; with every EM fit run twice it read 3.4–3.5.
EM_CPU_CEILING = 3.0
EM_ROUNDS = 7


def _cpu_seconds() -> float:
    """User+system CPU consumed by this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _reference_loop(n: int = 600_000) -> int:
    """Fixed pure-Python integer work (~40 ms on a 2-vCPU VM)."""
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) % 1000003
    return acc


def bench_sec71_full_pipeline(benchmark, harness):
    corpus = CorpusGenerator(
        seed=2015, noise=NoiseProfile()
    ).generate(*harness.scenarios())

    pipeline = SurveyorPipeline(
        kb=harness.kb, occurrence_threshold=100, n_workers=8
    )

    cpu: dict[str, float] = {}

    def run_pipeline():
        start = _cpu_seconds()
        result = pipeline.run(corpus)
        cpu["fast"] = _cpu_seconds() - start
        return result

    report = benchmark.pedantic(run_pipeline, rounds=1, iterations=1)

    metrics = report.metrics
    extraction_seconds = (
        metrics.stage("map").wall_seconds
        + metrics.stage("reduce").wall_seconds
    )
    em_seconds = metrics.stage("em").wall_seconds
    docs_per_second = len(corpus) / max(extraction_seconds, 1e-9)
    health = report.health
    memo_lookups = health.memo_hits + health.memo_misses
    memo_hit_rate = (
        health.memo_hits / memo_lookups if memo_lookups else 0.0
    )

    # Reference-path comparison run (outside the timed region): same
    # corpus prefix, fast path off, measured in CPU seconds.
    ref_start = _cpu_seconds()
    SurveyorPipeline(
        kb=harness.kb,
        occurrence_threshold=100,
        n_workers=8,
        fast_path=False,
    ).run(WebCorpus(documents=corpus.documents[:REFERENCE_SLICE]))
    cpu["reference"] = _cpu_seconds() - ref_start
    ref_docs_per_cpu = REFERENCE_SLICE / max(cpu["reference"], 1e-9)
    fast_docs_per_cpu = len(corpus) / max(cpu["fast"], 1e-9)
    speedup = fast_docs_per_cpu / ref_docs_per_cpu

    lines = [
        "Section 7.1 — pipeline scale run (downscaled)",
        f"corpus: {len(corpus)} documents, {corpus.size_bytes()} bytes",
        report.summary(),
        f"extraction share of wall time: "
        f"{extraction_seconds / metrics.total_seconds:.1%}",
        f"EM share of wall time: {em_seconds / metrics.total_seconds:.1%}",
        f"throughput: {docs_per_second:.0f} documents/second",
        f"fast path speedup vs reference: {speedup:.2f}x "
        f"({fast_docs_per_cpu:.0f} vs {ref_docs_per_cpu:.0f} "
        f"documents/CPU-second)",
        f"prefilter skip rate: {health.prefilter_skip_rate:.1%}",
        f"annotation memo hit rate: {memo_hit_rate:.1%}",
    ]
    emit("sec71_pipeline_scale", lines)

    # The paper's cost profile: extraction >> EM.
    assert extraction_seconds > 5 * em_seconds
    assert report.evidence.n_statements > 1000
    assert len(report.result.fits) > 0
    assert len(report.opinions) > 0
    # The fast path must hold its committed speedup over the reference
    # path, measured in load-insensitive CPU seconds.
    assert speedup >= SPEEDUP_FLOOR, (
        f"fast-path speedup regressed: {speedup:.2f}x < floor "
        f"{SPEEDUP_FLOOR:.2f}x"
    )


def bench_sec71_em_stage_alone(benchmark, harness, evidence):
    """The 10-minute stage: EM over every qualifying combination."""
    from repro.core import Surveyor

    surveyor = Surveyor(catalog=harness.kb, occurrence_threshold=100)
    grouped = evidence.as_evidence()

    result = benchmark(lambda: surveyor.run(grouped))
    assert len(result.fits) > 0

    # Two EM stages per round so each timed region is ~2x the loop's.
    em_cpu, loop_cpu = [], []
    for _ in range(EM_ROUNDS):
        gc.collect()
        gc.disable()
        try:
            start = _cpu_seconds()
            surveyor.run(grouped)
            surveyor.run(grouped)
            em_cpu.append(_cpu_seconds() - start)
            start = _cpu_seconds()
            _reference_loop()
            loop_cpu.append(_cpu_seconds() - start)
        finally:
            gc.enable()
    ratio = min(em_cpu) / max(min(loop_cpu), 1e-9)
    assert ratio <= EM_CPU_CEILING, (
        f"EM stage regressed: {ratio:.2f}x the reference loop's CPU "
        f"seconds > ceiling {EM_CPU_CEILING:.1f}x"
    )

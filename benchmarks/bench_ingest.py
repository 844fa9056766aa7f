"""Streaming ingestion freshness and incremental-refit CPU gates.

The ingestion subsystem (docs/ingestion.md) promises two things a
batch re-run cannot: a small append becomes servable fast, and it
costs a fraction of re-mining the world. This bench measures both on
a 10%-append workload over the evaluation corpus:

* **Incremental CPU ratio** — CPU seconds for ``IngestPipeline`` to
  absorb the 10% tail (delta extraction + warm-started dirty refits)
  divided by CPU seconds for a cold batch pipeline over 100%. Gated
  at ``RATIO_CEILING`` (the acceptance bar: <= 25%). CPU
  time, not wall clock, so tenant load on the CI box cannot flip the
  gate; both sides run in-process with the shared annotation memo
  reset, GC pinned for the timed region.
* **Ingest -> servable freshness** — small batches POSTed through a
  live ``OpinionService.ingest`` (journal append, extract, refit,
  publish, validated swap); the gate is the p50 of the end-to-end
  cycle, ``FRESHNESS_CEILING`` (1 second).

The generator shuffles documents across scenarios, so a 10% tail
touches nearly every (property, type) combination — the dirty set is
maximal and the refit bound comes from warm starts (cached parameters
sit near the new optimum), not from refit skipping. That makes this
the *adversarial* workload for the CPU gate; topical appends dirty
fewer combos and do strictly better.
"""

from __future__ import annotations

import gc
import resource
import statistics

from _report import emit

from repro.corpus import CorpusGenerator, NoiseProfile, WebCorpus
from repro.ingest import CorpusJournal, IngestPipeline
from repro.nlp import reset_shared_annotation_state
from repro.obs import MetricsRegistry
from repro.pipeline import SurveyorPipeline
from repro.serve import OpinionService

#: Incremental CPU must stay at or below this fraction of a full
#: batch re-run.
RATIO_CEILING = 0.25

#: p50 of the ingest -> servable cycle must stay under this.
FRESHNESS_CEILING = 1.0

#: Documents in the mined world; the append is the last tenth. Large
#: enough that per-advance fixed costs (state save, manifest, index
#: build) amortize the way they do on a real corpus.
SLICE = 12000
APPEND_FRACTION = 0.1

#: Live-serving freshness probe: this many batches of this size.
FRESHNESS_BATCHES = 8
FRESHNESS_BATCH_DOCS = 4


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _timed(fn, *, cold: bool = False):
    """Run ``fn`` with GC pinned; return (result, cpu seconds).

    ``cold`` resets the shared annotation memo first — right for the
    batch reference (``repro mine`` starts a fresh process), wrong
    for the incremental side (a long-lived ingest pipeline keeps its
    annotator warm; that steady state is the product path).
    """
    if cold:
        reset_shared_annotation_state()
    gc.collect()
    gc.disable()
    try:
        start = _cpu_seconds()
        result = fn()
        return result, _cpu_seconds() - start
    finally:
        gc.enable()


def bench_ingest_incremental(benchmark, harness, tmp_path):
    full = CorpusGenerator(
        seed=2015, noise=NoiseProfile()
    ).generate(*harness.scenarios())
    probe_docs = full.documents[
        SLICE:SLICE + FRESHNESS_BATCHES * FRESHNESS_BATCH_DOCS
    ]
    corpus = WebCorpus(documents=full.documents[:SLICE])
    cut = int(len(corpus.documents) * (1.0 - APPEND_FRACTION))
    head, tail = (
        corpus.documents[:cut], corpus.documents[cut:],
    )

    pipeline = IngestPipeline(
        kb=harness.kb,
        journal=CorpusJournal(tmp_path / "journal"),
        warm_start=True,
    )
    pipeline.ingest(head)  # bootstrap: untimed, like any first mine

    # The timed region is the product path: absorb the 10% append.
    report, incremental_cpu = benchmark.pedantic(
        lambda: _timed(lambda: pipeline.ingest(tail)),
        rounds=1,
        iterations=1,
    )
    assert report.documents == len(tail)

    # Reference: what a batch deployment pays for the same freshness.
    batch, full_cpu = _timed(
        lambda: SurveyorPipeline(
            kb=harness.kb, n_workers=8
        ).run(corpus),
        cold=True,
    )
    ratio = incremental_cpu / max(full_cpu, 1e-9)

    # Live-serving freshness: journal append -> refit -> publish ->
    # validated swap, measured end to end per batch.
    out = tmp_path / "opinions.json"
    pipeline.publish(report, out)
    service = OpinionService(
        report.table,
        source_path=out,
        provenance=report.provenance,
        registry=MetricsRegistry(),
        ingest_pipeline=pipeline,
    )
    freshness = []
    for start in range(0, len(probe_docs), FRESHNESS_BATCH_DOCS):
        summary = service.ingest(
            probe_docs[start:start + FRESHNESS_BATCH_DOCS]
        )
        freshness.append(summary["freshness_seconds"])
    freshness_p50 = statistics.median(freshness)

    emit("ingest_incremental", [
        "Streaming ingestion: 10% append vs full batch re-run",
        f"world: {len(corpus.documents)} documents, append "
        f"{len(tail)} ({APPEND_FRACTION:.0%})",
        f"dirty combinations: {len(report.dirty)} "
        f"(refit {report.refitted}, reused {report.reused})",
        f"incremental CPU: {incremental_cpu:.3f}s "
        f"(refit {report.refit_seconds:.3f}s)",
        f"full re-run CPU: {full_cpu:.3f}s "
        f"({len(batch.result.opinions)} opinions)",
        f"CPU ratio (incremental/full): {ratio:.3f}",
        f"freshness over {len(freshness)} live batches of "
        f"{FRESHNESS_BATCH_DOCS} documents: p50 "
        f"{freshness_p50 * 1000:.0f}ms, max "
        f"{max(freshness) * 1000:.0f}ms",
    ])

    # Parity guard: the incremental table answers like the batch one
    # (bit-parity itself is proven per scenario in tests/test_ingest).
    assert len(report.table) == len(batch.result.opinions)

    assert ratio <= RATIO_CEILING, (
        f"incremental refit regressed: CPU ratio {ratio:.3f} > "
        f"ceiling {RATIO_CEILING:.2f}"
    )
    assert freshness_p50 < FRESHNESS_CEILING, (
        f"ingest->servable freshness regressed: p50 "
        f"{freshness_p50:.3f}s >= {FRESHNESS_CEILING:.2f}s"
    )

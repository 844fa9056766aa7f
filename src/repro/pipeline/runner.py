"""The full Surveyor pipeline: corpus in, opinion table out.

Mirrors the four stages the paper times in Section 7.1:

1. **extract** — shard the snapshot, annotate and pattern-match each
   shard (the map side), merge the per-shard evidence counters (the
   reduce side);
2. **kb** — pull entities with their most notable types from the
   knowledge base;
3. **group** — join evidence with the KB and group by property-type
   combination, applying the occurrence threshold ``rho``;
4. **em** — fit the user-behaviour model per combination and emit
   dominant opinions for every entity of each type.

The extraction stage runs under the fault-tolerant runtime: a document
whose annotation or extraction raises is quarantined into a dead-letter
record instead of killing its shard, a shard that fails after all
retries is skipped (the run continues on the survivors), and — with a
``checkpoint_dir`` — each completed shard's evidence is persisted so an
interrupted run resumes without recomputing finished shards. ``strict``
restores the historical fail-fast behaviour. All of it is accounted in
the report's health section.

The runner is also the observability seam. With a ``tracer`` the run
produces a span tree (run → stage → shard → document for extraction;
run → stage → combination → em-iteration for interpretation); worker
processes trace themselves and their spans are adopted back into the
parent's tree. With a ``registry`` the run fills the metric catalogue
(see :mod:`repro.obs.metrics`). Worker-side counters are *always*
collected and merged — they ride back with each shard's result — so
process-pool runs report the same numbers as serial ones.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..core.em import EMLearner
from ..core.errors import CheckpointError, ParityError
from ..core.surveyor import (
    DEFAULT_OCCURRENCE_THRESHOLD,
    Surveyor,
    SurveyorResult,
)
from ..corpus.document import CorpusShard, WebCorpus
from ..extraction.extractor import EvidenceExtractor
from ..extraction.patterns import DEFAULT_PATTERNS, PatternConfig
from ..extraction.provenance import ProvenanceIndex, ProvenanceLedger
from ..extraction.statement import EvidenceCounter
from ..kb.knowledge_base import KnowledgeBase
from ..nlp.annotate import Annotator
from ..nlp.prefilter import DEFAULT_MEMO_SIZE, SentencePrefilter
from ..obs.convergence import (
    CONVERGENCE_BASENAME,
    ConvergenceRecord,
    records_from_result,
    save_convergence,
)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..storage.serialize import (
    load_shard_checkpoint,
    save_shard_checkpoint,
)
from .counters import PipelineMetrics, StageMetrics
from .faults import FaultInjector
from .mapreduce import MapReduceJob
from .resilience import (
    DEFAULT_RETRY_POLICY,
    NO_RETRY,
    DeadLetter,
    PipelineHealth,
    RetryPolicy,
    ShardEvidence,
    WorkerTelemetry,
)


class _CollectorPause:
    """Pause the automatic cyclic collector while any run is inside.

    A run builds tens of thousands of long-lived containers (memoized
    sentence records, evidence, opinions) and no cyclic garbage, so
    every automatic full collection would re-walk that heap for
    nothing.
    Entries are counted under a lock: concurrent runs share one pause,
    and the last one out restores the state the first one found — a
    caller that had disabled the collector keeps it disabled.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inside = 0
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if self._inside == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._inside += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._inside -= 1
            if self._inside == 0 and self._resume:
                gc.enable()


_COLLECTOR_PAUSE = _CollectorPause()


@dataclass
class PipelineReport:
    """Everything a pipeline run produced."""

    result: SurveyorResult
    evidence: EvidenceCounter
    metrics: PipelineMetrics
    convergence: list[ConvergenceRecord] = field(default_factory=list)
    #: Evidence lineage for the run — each pair's exact statement
    #: totals, bounded samples, and links to its combination's fit
    #: and convergence verdict. ``None`` when capture was disabled.
    provenance: ProvenanceIndex | None = None

    @property
    def opinions(self):
        return self.result.opinions

    @property
    def health(self) -> PipelineHealth:
        return self.metrics.health

    def summary(self) -> str:
        lines = [
            self.metrics.report(),
            f"evidence statements: {self.evidence.n_statements}",
            f"entity-property pairs with evidence: {self.evidence.n_pairs}",
            f"property-type combinations fit: {len(self.result.fits)}",
            f"combinations below threshold: {len(self.result.skipped)}",
            f"opinions emitted: {len(self.result.opinions)}",
            self.health.report(),
        ]
        return "\n".join(lines)


@dataclass
class SurveyorPipeline:
    """End-to-end runner configured like the paper's deployment.

    Resilience knobs
    ----------------
    retry_policy:
        Per-shard retry configuration (defaults to three attempts with
        short seeded backoff).
    shard_timeout:
        Wall-clock budget per shard attempt, counted from its dispatch
        to a worker. Process executor only: a timed-out attempt is
        abandoned (and retried), not killed, so the run still waits
        for it to return. The serial executor ignores the setting.
    strict:
        Fail fast: per-document exceptions propagate and a failed
        shard aborts the run, as before the resilience layer existed.
    checkpoint_dir:
        Run directory for shard-level checkpoints. A rerun pointing at
        the same directory (with the same corpus and ``n_workers``)
        resumes, loading completed shards instead of re-mapping them.
    fault_injector:
        Deterministic failure source for resilience testing; see
        :mod:`repro.pipeline.faults`.

    Fast-path knobs
    ---------------
    fast_path:
        Run extraction through the prefilter+memo fast path
        (:mod:`repro.nlp.prefilter`; default on). Output is
        bit-identical to the reference path either way. The prefilter automaton is
        compiled once in the parent and shipped to workers with the
        pickled pipeline — once per shard, never per document.
    provenance:
        Capture bounded-sample evidence lineage per (entity,
        property) pair during extraction (see
        :mod:`repro.extraction.provenance`; default on). Ledgers ride
        back on each
        shard's result, persist into shard checkpoints, and merge in
        shard order; the report links the merged ledger to the run's
        fits and convergence records as a
        :class:`~repro.extraction.provenance.ProvenanceIndex`.
    strict_parity:
        Map every shard through *both* paths and raise
        :class:`~repro.core.errors.ParityError` on any divergence in
        statements, evidence counts, or linker/extraction statistics
        (default off). Used by CI and the differential tests; roughly
        doubles map cost.
        Parity runs are fail-fast at the shard level (no retries, no
        shard skipping): a divergence is deterministic, so resilience
        machinery would only bury it.
    annotation_memo_size:
        Bound on memoized sentences per shard worker.

    Observability knobs
    -------------------
    tracer:
        Span tracer for the run; disabled (or ``None``) costs nothing
        on the hot path. Worker processes build their own tracers and
        their spans are re-parented under the ``map`` stage span.
    registry:
        Metrics registry to fill (counters, gauges, histograms from
        the declared catalogue). Convergence records are written next
        to the shard checkpoints when ``checkpoint_dir`` is set.
    """

    kb: KnowledgeBase
    pattern_config: PatternConfig = DEFAULT_PATTERNS
    occurrence_threshold: int = DEFAULT_OCCURRENCE_THRESHOLD
    n_workers: int = 4
    executor: str = "serial"
    learner: EMLearner = field(default_factory=EMLearner)
    retry_policy: RetryPolicy | None = None
    shard_timeout: float | None = None
    strict: bool = False
    checkpoint_dir: str | Path | None = None
    fault_injector: FaultInjector | None = None
    tracer: Tracer | None = None
    registry: MetricsRegistry | None = None
    fast_path: bool = True
    strict_parity: bool = False
    provenance: bool = True
    annotation_memo_size: int = DEFAULT_MEMO_SIZE
    _prefilter: SentencePrefilter | None = field(
        init=False, default=None, repr=False
    )

    @property
    def _tracing(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    @property
    def _telemetry(self) -> bool:
        return self._tracing or self.registry is not None

    def run(self, corpus: WebCorpus) -> PipelineReport:
        """Process a corpus end to end.

        The automatic cyclic collector is paused for the run and one
        explicit collection closes it, so the run pays for that
        collection once, inside its own wall time.
        """
        started = time.perf_counter()
        metrics = PipelineMetrics(tracer=self.tracer)
        with _COLLECTOR_PAUSE:
            if self._tracing:
                with self.tracer.span(
                    "run",
                    kind="run",
                    documents=len(corpus),
                    n_workers=self.n_workers,
                    executor=self.executor,
                ) as span:
                    report = self._run_stages(corpus, metrics)
                    span.set("opinions", len(report.result.opinions))
                    span.set("healthy", report.health.healthy)
            else:
                report = self._run_stages(corpus, metrics)
            gc.collect()
        if self.registry is not None:
            self.registry.set_gauge(
                "repro_run_wall_seconds",
                time.perf_counter() - started,
            )
        return report

    def _run_stages(
        self, corpus: WebCorpus, metrics: PipelineMetrics
    ) -> PipelineReport:
        registry = self.registry
        evidence, ledger = self._extract(corpus, metrics)
        with metrics.timed("kb") as stage:
            catalog = self.kb
            stats = catalog.stats()
            for key, value in stats.items():
                stage.bump(key, value)
            if registry is not None:
                registry.set_gauge(
                    "repro_kb_entities", stats.get("entities", 0)
                )
        with metrics.timed("group") as stage:
            grouped = evidence.as_evidence()
            stage.bump("pairs", evidence.n_pairs)
            stage.bump("combinations", len(grouped))
            if registry is not None:
                for per_entity in grouped.values():
                    for counts in per_entity.values():
                        registry.observe(
                            "repro_evidence_positive_magnitude",
                            counts.positive,
                        )
                        registry.observe(
                            "repro_evidence_negative_magnitude",
                            counts.negative,
                        )
        with metrics.timed("em") as stage:
            surveyor = Surveyor(
                catalog=catalog,
                occurrence_threshold=self.occurrence_threshold,
                learner=self._telemetry_learner(),
                tracer=self.tracer if self._tracing else None,
            )
            result = surveyor.run(grouped)
            stage.bump("fits", len(result.fits))
            stage.bump("opinions", len(result.opinions))
            metrics.health.degraded_combinations.extend(
                str(key) for key in result.degraded
            )
        # Convergence records stay a telemetry artefact on the report,
        # but lineage always links each pair to its combination's
        # verdict, so an untraced mine still explains its answers.
        records = (
            records_from_result(result)
            if self._telemetry or ledger is not None
            else []
        )
        convergence = records if self._telemetry else []
        if registry is not None:
            registry.inc("repro_em_fits_total", len(result.fits))
            registry.inc(
                "repro_em_degraded_total", len(result.degraded)
            )
            registry.inc(
                "repro_combinations_skipped_total",
                len(result.skipped),
            )
            registry.inc(
                "repro_opinions_total", len(result.opinions)
            )
            for fit in result.fits.values():
                registry.observe(
                    "repro_em_iterations", fit.trace.iterations
                )
        if convergence and self.checkpoint_dir is not None:
            save_convergence(
                convergence,
                Path(self.checkpoint_dir) / CONVERGENCE_BASENAME,
            )
        lineage = (
            ProvenanceIndex.from_run(ledger, evidence, result, records)
            if ledger is not None
            else None
        )
        return PipelineReport(
            result=result,
            evidence=evidence,
            metrics=metrics,
            convergence=convergence,
            provenance=lineage,
        )

    def _telemetry_learner(self) -> EMLearner:
        """The configured learner, upgraded for telemetry when needed.

        Trajectory recording and iteration spans are opt-in on the
        learner; a traced run turns them on without mutating the
        caller's learner instance.
        """
        learner = self.learner
        if self._telemetry and not learner.record_path:
            learner = replace(learner, record_path=True)
        if self._tracing and learner.tracer is None:
            learner = replace(learner, tracer=self.tracer)
        return learner

    # ------------------------------------------------------------------
    # Extraction stage
    # ------------------------------------------------------------------
    def _extract(
        self, corpus: WebCorpus, metrics: PipelineMetrics
    ) -> tuple[EvidenceCounter, ProvenanceLedger | None]:
        health = metrics.health
        registry = self.registry
        if self.fast_path and self._prefilter is None:
            # Compiled once here in the parent; workers receive it with
            # the pickled pipeline — per shard, never per document.
            self._prefilter = SentencePrefilter.from_kb(self.kb)
        shards = corpus.shards(self.n_workers)
        run_dir = (
            Path(self.checkpoint_dir)
            if self.checkpoint_dir is not None
            else None
        )

        resumed: list[ShardEvidence] = []
        pending: list[CorpusShard] = []
        if run_dir is not None:
            run_dir.mkdir(parents=True, exist_ok=True)
            for shard in shards:
                loaded = self._load_checkpoint(
                    run_dir, shard.shard_id, health
                )
                if loaded is not None:
                    resumed.append(loaded)
                else:
                    pending.append(shard)
        else:
            pending = list(shards)

        def observe_shard(
            shard_id: int, seconds: float, attempts: int
        ) -> None:
            metrics.stage("map").bump("shard_attempts", attempts)
            if registry is not None:
                registry.observe("repro_shard_seconds", seconds)

        fresh: list[ShardEvidence] = []
        if pending:
            job: MapReduceJob[
                CorpusShard, ShardEvidence, list[ShardEvidence]
            ] = MapReduceJob(
                mapper=self._map_shard,
                reducer=list,
                n_workers=self.n_workers,
                executor=self.executor,
                # Parity runs are fail-fast like strict ones: a
                # ParityError is deterministic, so retrying the shard
                # or skipping it would bury a soundness violation.
                retry_policy=self.retry_policy
                or (
                    NO_RETRY
                    if self.strict or self.strict_parity
                    else DEFAULT_RETRY_POLICY
                ),
                shard_timeout=self.shard_timeout,
                skip_failed_shards=not (
                    self.strict or self.strict_parity
                ),
                shard_observer=observe_shard,
            )
            fresh = job.run(pending, metrics)
            if run_dir is not None:
                health.checkpointed_shards += len(fresh)

        map_span_id = (
            self.tracer.last_span_id("map", kind="stage")
            if self._tracing
            else None
        )
        evidence = EvidenceCounter()
        ledger = ProvenanceLedger() if self.provenance else None
        map_stage = metrics.stage("map")
        for part in sorted(
            [*resumed, *fresh], key=lambda p: p.shard_id
        ):
            evidence.merge(part.counter)
            if ledger is not None and part.provenance is not None:
                ledger.merge(part.provenance)
            health.record_quarantine(part.dead_letters)
            if part.telemetry is not None and part.telemetry.prefilter:
                health.record_prefilter(part.telemetry.prefilter)
            self._merge_telemetry(
                part.telemetry, map_stage, map_span_id
            )
        map_stage.bump("statements", evidence.n_statements)
        if registry is not None:
            counters = map_stage.counters
            registry.inc(
                "repro_statements_total", evidence.n_statements
            )
            registry.inc(
                "repro_documents_total", counters.get("documents", 0)
            )
            registry.inc(
                "repro_sentences_total", counters.get("sentences", 0)
            )
            registry.inc(
                "repro_mentions_total", counters.get("mentions", 0)
            )
            registry.inc(
                "repro_statements_positive_total",
                counters.get("statements_positive", 0),
            )
            registry.inc(
                "repro_statements_negative_total",
                counters.get("statements_negative", 0),
            )
            registry.inc(
                "repro_shards_total", counters.get("shards", 0)
            )
            registry.inc("repro_shard_retries_total", health.retries)
            registry.inc(
                "repro_quarantined_documents_total",
                len(health.quarantined),
            )
            registry.inc(
                "repro_prefilter_sentences_total",
                health.prefilter_sentences,
            )
            registry.inc(
                "repro_prefilter_skipped_total",
                health.prefilter_skipped,
            )
            registry.inc(
                "repro_annotation_memo_hits_total", health.memo_hits
            )
            registry.inc(
                "repro_annotation_memo_misses_total",
                health.memo_misses,
            )
            registry.inc(
                "repro_annotation_memo_evictions_total",
                health.memo_evictions,
            )
        return evidence, ledger

    def _merge_telemetry(
        self,
        telemetry: WorkerTelemetry | None,
        map_stage: StageMetrics,
        map_span_id: int | None,
    ) -> None:
        """Fold one worker's shipped-back telemetry into the parent.

        This closes the process-pool counter hole: worker-side bumps
        and histogram observations arrive here as data, and worker
        spans are re-parented under the parent's ``map`` stage span.
        """
        if telemetry is None:
            return
        for name, amount in sorted(telemetry.counters.items()):
            map_stage.bump(name, amount)
        if self.registry is not None:
            for name, value in telemetry.observations:
                self.registry.observe(name, value)
        if self._tracing and telemetry.spans:
            self.tracer.adopt(
                list(telemetry.spans), parent_id=map_span_id
            )

    def _map_shard(
        self, shard: CorpusShard, attempt: int
    ) -> ShardEvidence:
        """One worker: annotate and extract a shard of documents.

        Each worker builds its own annotator/extractor (workers share
        nothing, as on a real cluster) and returns a per-shard
        evidence counter — the combine step of the dataflow. A
        document that raises is quarantined as a dead letter unless
        the pipeline is strict; shard-level failures propagate to the
        executor's retry loop. On success the shard checkpoints its
        own output, so a later resume skips it.

        ``attempt`` is the executor's 1-based attempt number; the
        fault injector needs it to make flaky-then-succeed decisions
        that survive the ``process`` executor's memory isolation.

        The worker also traces itself (shard and document spans) and
        counts its work; both ride back on the returned
        :class:`ShardEvidence` as :class:`WorkerTelemetry`, because a
        worker process cannot reach the parent's tracer or registry.
        """
        injector = self.fault_injector
        if injector is not None:
            injector.on_shard_start(shard.shard_id, attempt)
        fast = self.fast_path
        annotator = Annotator(
            self.kb,
            fast_path=fast,
            prefilter=self._prefilter if fast else None,
            memo_size=self.annotation_memo_size,
        )
        extractor = EvidenceExtractor(
            config=self.pattern_config,
            provenance=(
                ProvenanceLedger() if self.provenance else None
            ),
        )
        parity = self.strict_parity
        if parity:
            # The reference extractor gets no ledger: lineage is not
            # part of the statement-equality contract, and a second
            # ledger would double-record every pair.
            ref_annotator = Annotator(self.kb, fast_path=False)
            ref_extractor = EvidenceExtractor(
                config=self.pattern_config
            )
            ref_counter = EvidenceCounter()
        # Workers profile memory iff the parent does: spans shipped
        # back then carry rss/tracemalloc attrs like local ones.
        worker_tracer = Tracer(
            enabled=self._tracing,
            profile_memory=getattr(
                self.tracer, "profile_memory", False
            ),
        )
        observations: list[tuple[str, float]] = []
        counter = EvidenceCounter()
        dead: list[DeadLetter] = []
        with worker_tracer.span(
            "shard", kind="shard", shard_id=shard.shard_id
        ) as shard_span:
            for document in shard:
                stage = "annotate"
                statements = []
                doc_started = time.perf_counter()
                try:
                    with worker_tracer.span(
                        "document",
                        kind="document",
                        doc_id=document.doc_id,
                    ) as doc_span:
                        if injector is not None:
                            stage = "inject"
                            injector.on_document(document.doc_id)
                            stage = "annotate"
                        annotated = annotator.annotate(
                            document.doc_id, document.text
                        )
                        stage = "extract"
                        statements = extractor.extract_document(
                            annotated
                        )
                        doc_span.set("statements", len(statements))
                        doc_span.set(
                            "sentences", len(annotated.sentences)
                        )
                except Exception as error:
                    if self.strict:
                        raise
                    dead.append(
                        DeadLetter.from_exception(
                            document.doc_id, stage, error,
                            text=str(document.text),
                        )
                    )
                    observations.append((
                        "repro_document_seconds",
                        time.perf_counter() - doc_started,
                    ))
                    continue
                if parity:
                    ref_statements = ref_extractor.extract_document(
                        ref_annotator.annotate(
                            document.doc_id, document.text
                        )
                    )
                    if ref_statements != statements:
                        raise ParityError(
                            "fast path diverged from reference on "
                            f"document {document.doc_id!r}: "
                            f"{len(statements)} vs "
                            f"{len(ref_statements)} statements"
                        )
                    ref_counter.add_all(ref_statements)
                counter.add_all(statements)
                observations.append((
                    "repro_document_seconds",
                    time.perf_counter() - doc_started,
                ))
                observations.append((
                    "repro_statements_per_document",
                    float(len(statements)),
                ))
                observations.append((
                    "repro_sentences_per_document",
                    float(len(annotated.sentences)),
                ))
            shard_span.set("documents", extractor.stats.documents)
            shard_span.set("quarantined", len(dead))
            fastpath = annotator.fastpath_stats
            if fastpath is not None:
                shard_span.set(
                    "prefilter",
                    {
                        **fastpath.as_counters(),
                        "skip_rate": round(fastpath.skip_rate, 4),
                    },
                )
        if parity:
            if ref_counter != counter:
                raise ParityError(
                    f"shard {shard.shard_id}: evidence counters "
                    "diverged between fast and reference paths"
                )
            if not dead:
                if ref_annotator.linker_stats != annotator.linker_stats:
                    raise ParityError(
                        f"shard {shard.shard_id}: linker statistics "
                        "diverged between fast and reference paths"
                    )
                if ref_extractor.stats != extractor.stats:
                    raise ParityError(
                        f"shard {shard.shard_id}: extraction "
                        "statistics diverged between fast and "
                        "reference paths"
                    )
        telemetry = WorkerTelemetry(
            counters={
                "documents": extractor.stats.documents,
                "sentences": extractor.stats.sentences,
                "mentions": annotator.linker_stats.linked,
                "statements_positive": extractor.stats.positive,
                "statements_negative": extractor.stats.negative,
                "quarantined": len(dead),
            },
            observations=tuple(observations),
            spans=tuple(worker_tracer.export_spans()),
            prefilter=(
                annotator.fastpath_stats.as_counters()
                if annotator.fastpath_stats is not None
                else {}
            ),
        )
        result = ShardEvidence(
            shard_id=shard.shard_id,
            counter=counter,
            dead_letters=tuple(dead),
            telemetry=telemetry,
            provenance=extractor.provenance,
        )
        if self.checkpoint_dir is not None:
            save_shard_checkpoint(
                self._checkpoint_path(
                    Path(self.checkpoint_dir), shard.shard_id
                ),
                result.shard_id,
                result.counter,
                [letter.to_dict() for letter in result.dead_letters],
                provenance=result.provenance,
            )
        return result

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    @staticmethod
    def _checkpoint_path(run_dir: Path, shard_id: int) -> Path:
        return run_dir / f"shard-{shard_id:05d}.json"

    def _load_checkpoint(
        self, run_dir: Path, shard_id: int, health: PipelineHealth
    ) -> ShardEvidence | None:
        """Load one shard checkpoint; corrupt files are dropped and the
        shard recomputed."""
        path = self._checkpoint_path(run_dir, shard_id)
        if not path.exists():
            return None
        try:
            loaded_id, counter, letters, ledger = (
                load_shard_checkpoint(path)
            )
            dead_letters = tuple(
                DeadLetter.from_dict(letter) for letter in letters
            )
        except CheckpointError:
            loaded_id = None
        if loaded_id != shard_id:
            health.corrupt_checkpoints += 1
            path.unlink(missing_ok=True)
            return None
        health.resumed_shards += 1
        return ShardEvidence(
            shard_id=shard_id,
            counter=counter,
            dead_letters=dead_letters,
            provenance=ledger,
        )

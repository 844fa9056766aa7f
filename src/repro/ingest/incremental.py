"""Incremental extraction, dirty-set EM refits, and publication.

:class:`IngestPipeline` turns journal appends into a freshly servable
opinion table without re-running the batch pipeline:

1. **Extract the delta.** Only documents above the applied watermark
   are annotated (through the same fast path the batch mapper uses)
   and counted into a *delta* evidence counter plus a delta provenance
   ledger.
2. **Fold.** The delta merges into the persisted running totals;
   evidence counts are additive and order-independent, so the merged
   counter equals what a one-shot batch over all journaled documents
   would produce.
3. **Dirty-set refit.** Only (property, type) combinations the delta
   touched re-run EM; every clean combination reuses its cached fit
   and recomputes opinions from the cached parameters. Because
   ``EMLearner.fit`` is deterministic over the evidence multiset and
   JSON float round-trips are ``repr``-exact, both paths are
   bit-identical to a full batch run — the differential parity test in
   ``tests/test_ingest.py`` proves it on every harness scenario.
4. **Publish.** The rebuilt table + provenance sidecar + run manifest
   are written with the same atomic writers the batch CLI uses; a
   server then pushes them through its validated hot-reload swap.

Lineage costs what the batch touched: the running ledger keeps the
frozen view and JSON text of every pair the batch left alone, so the
state save, the sidecar and :meth:`ProvenanceIndex.from_run` rebuild
and re-encode only the changed pairs, with the bytes of a cold encode
(docs/ingestion.md, "Cost model").

Warm starts (``warm_start=True``) seed a dirty combination's EM from
its cached parameters. After a small append the cached point is near
the new optimum, so EM stops after fewer iterations, but the stop
point of a Δll-tolerance loop depends on its starting point, so
warm-started posteriors can differ from a cold batch fit in the last
few ulps. The default is off: exact bit-parity unless the operator
trades it away.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..core.em import EMLearner
from ..core.result import OpinionTable
from ..core.surveyor import (
    DEFAULT_OCCURRENCE_THRESHOLD,
    FittedCombination,
    Surveyor,
    SurveyorResult,
)
from ..core.types import PropertyTypeKey
from ..corpus.document import Document
from ..extraction.extractor import EvidenceExtractor
from ..extraction.provenance import ProvenanceIndex, ProvenanceLedger
from ..extraction.statement import EvidenceCounter
from ..kb.knowledge_base import KnowledgeBase
from ..nlp.annotate import Annotator
from ..nlp.prefilter import DEFAULT_MEMO_SIZE
from ..obs.convergence import records_from_result
from ..obs.manifest import (
    build_manifest,
    manifest_path_for,
    write_manifest,
)
from ..storage import provenance_path_for, save
from .journal import CorpusJournal
from .state import IngestState, load_state, save_state


@dataclass(frozen=True, slots=True)
class IngestReport:
    """Outcome of one :meth:`IngestPipeline.advance`."""

    documents: int
    statements: int
    journal_offset: int
    generation: int
    dirty: tuple[PropertyTypeKey, ...]
    refitted: int
    reused: int
    refit_seconds: float
    result: SurveyorResult
    provenance: ProvenanceIndex | None = None

    @property
    def table(self) -> OpinionTable:
        return self.result.opinions


@dataclass
class IngestPipeline:
    """Journal-backed incremental miner.

    Parameters
    ----------
    kb:
        Knowledge base — entity catalog for Surveyor and the linker's
        alias source for annotation.
    journal:
        The append-only document log; running state persists as
        ``state.json`` alongside its segments.
    occurrence_threshold:
        Same ``rho`` as the batch pipeline.
    learner:
        EM configuration shared by every (cold) refit.
    fast_path / provenance:
        Extraction fast path and lineage capture, both default on as
        in ``SurveyorPipeline``.
    warm_start:
        Seed dirty refits from cached parameters (see module
        docstring for the bit-parity trade-off).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; advances
        then feed the ``repro_ingest_*`` series.
    """

    kb: KnowledgeBase
    journal: CorpusJournal
    occurrence_threshold: int = DEFAULT_OCCURRENCE_THRESHOLD
    learner: EMLearner = field(default_factory=EMLearner)
    fast_path: bool = True
    provenance: bool = True
    warm_start: bool = False
    registry: Any | None = field(default=None, repr=False)
    annotation_memo_size: int = DEFAULT_MEMO_SIZE
    state: IngestState = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.state = load_state(self.journal.directory)
        if self.provenance and self.state.ledger is None:
            self.state.ledger = ProvenanceLedger()
        # One annotator for the pipeline's lifetime: the prefilter
        # automaton compiles once and the sentence memo stays warm
        # across advances, so a small append pays delta-sized cost.
        self._annotator = Annotator(
            self.kb,
            fast_path=self.fast_path,
            memo_size=self.annotation_memo_size,
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(self, documents: list[Document]) -> list[int]:
        """Durably journal a batch (no extraction yet)."""
        return self.journal.append(documents)

    def ingest(self, documents: list[Document]) -> IngestReport:
        """Journal a batch and advance through it: one durable step
        from raw documents to a refitted opinion table."""
        self.append(documents)
        return self.advance()

    def advance(self) -> IngestReport:
        """Extract, fold, and refit everything the journal holds above
        the applied watermark; persists the updated state."""
        records = list(
            self.journal.replay(after=self.state.applied_offset)
        )
        delta = EvidenceCounter()
        delta_ledger = (
            ProvenanceLedger() if self.provenance else None
        )
        if records:
            annotator = self._annotator
            extractor = EvidenceExtractor(provenance=delta_ledger)
            for record in records:
                annotated = annotator.annotate(
                    record.document.doc_id, record.document.text
                )
                delta.add_all(extractor.extract_document(annotated))
            self.state.evidence.merge(delta)
            self.state.stats.merge(extractor.stats)
            if delta_ledger is not None:
                self.state.ledger.merge(delta_ledger)

        dirty = tuple(sorted(delta.keys(), key=str))
        started = time.perf_counter()
        result, refitted, reused = self._refit(frozenset(dirty))
        refit_seconds = time.perf_counter() - started

        if records:
            self.state.applied_offset = records[-1].offset
            self.state.generation += 1
        save_state(self.state, self.journal.directory)

        # With lineage off, a ledger persisted by an earlier run is
        # saved unchanged but backs no index, so no sidecar is written.
        index = None
        if self.provenance:
            index = ProvenanceIndex.from_run(
                self.state.ledger, self.state.evidence,
                result, records_from_result(result),
            )
        report = IngestReport(
            documents=len(records),
            statements=delta.n_statements,
            journal_offset=self.state.applied_offset,
            generation=self.state.generation,
            dirty=dirty,
            refitted=refitted,
            reused=reused,
            refit_seconds=refit_seconds,
            result=result,
            provenance=index,
        )
        self._observe(report)
        return report

    # ------------------------------------------------------------------
    # Dirty-set refitter
    # ------------------------------------------------------------------
    def _refit(
        self, dirty: frozenset[PropertyTypeKey]
    ) -> tuple[SurveyorResult, int, int]:
        """Rebuild the full opinion table, running EM only where the
        evidence changed.

        The table comes from ``Surveyor.run`` itself, fed cached fits
        for clean combinations, so a table assembled from cached +
        refitted combinations is byte-identical to a one-shot batch
        over the same evidence.
        """
        surveyor = Surveyor(
            catalog=self.kb,
            occurrence_threshold=self.occurrence_threshold,
            learner=self.learner,
        )
        cache = self.state.fits
        refitted = 0

        def fit(key, per_entity) -> FittedCombination:
            nonlocal refitted
            cached = cache.get(key)
            if cached is not None and key not in dirty:
                return cached
            refitted += 1
            return self._fit_one(surveyor, key, per_entity, cached)

        result = surveyor.run(self.state.evidence.as_evidence(), fit=fit)
        for key in result.skipped:
            cache.pop(key, None)
        cache.update(result.fits)
        return result, refitted, len(result.fits) - refitted

    def _fit_one(
        self,
        surveyor: Surveyor,
        key: PropertyTypeKey,
        per_entity: dict,
        cached: FittedCombination | None,
    ) -> FittedCombination:
        if (
            self.warm_start
            and cached is not None
            and not cached.trace.degraded
        ):
            warm = replace(
                surveyor,
                learner=replace(
                    self.learner, initial_parameters=cached.parameters
                ),
            )
            return warm.fit_combination(key, per_entity)
        return surveyor.fit_combination(key, per_entity)

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(
        self,
        report: IngestReport,
        out: str | Path,
        *,
        started_unix: float | None = None,
        duration_seconds: float | None = None,
    ) -> Path:
        """Write the table, its provenance sidecar, and a run manifest
        (all atomically) so a server can hot-reload them."""
        out = Path(out)
        save(report.table, out)
        outputs = {"opinions": str(out)}
        if report.provenance is not None:
            sidecar = provenance_path_for(out)
            save(report.provenance, sidecar)
            outputs["provenance"] = str(sidecar)
        manifest = build_manifest(
            command="ingest",
            config={
                "journal": str(self.journal.directory),
                "journal_offset": report.journal_offset,
                "generation": report.generation,
                "incremental": True,
                "occurrence_threshold": self.occurrence_threshold,
                "fast_path": self.fast_path,
                "provenance": self.provenance,
                "warm_start": bool(self.warm_start),
            },
            started_unix=(
                time.time() if started_unix is None else started_unix
            ),
            duration_seconds=(
                report.refit_seconds
                if duration_seconds is None
                else duration_seconds
            ),
            outputs=outputs,
        )
        write_manifest(manifest_path_for(out), manifest)
        return out

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _observe(self, report: IngestReport) -> None:
        registry = self.registry
        if registry is None:
            return
        registry.inc("repro_ingest_batches_total")
        if report.documents:
            registry.inc(
                "repro_ingest_documents_total", report.documents
            )
        if report.statements:
            registry.inc(
                "repro_ingest_statements_total", report.statements
            )
        registry.set_gauge(
            "repro_ingest_dirty_combinations", len(report.dirty)
        )
        registry.set_gauge(
            "repro_ingest_journal_offset", report.journal_offset
        )
        registry.observe(
            "repro_ingest_refit_seconds", report.refit_seconds
        )

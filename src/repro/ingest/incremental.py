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
   touched re-run EM and emit their opinions again; every clean
   combination reuses its cached fit, and the table takes its opinion
   block unchanged from the pipeline's previous result (a fresh or
   just-restarted pipeline has none, so it emits every block from the
   cached parameters). Because ``EMLearner.fit`` is deterministic over
   the evidence multiset and JSON float round-trips are
   ``repr``-exact, every path is bit-identical to a full batch run —
   the differential parity test in ``tests/test_ingest.py`` proves it
   on every harness scenario.
4. **Publish.** The rebuilt table + provenance sidecar + run manifest
   are written by the writer ``repro mine`` uses
   (:func:`~repro.obs.manifest.publish_table`); a server then pushes
   them through its validated hot-reload swap.

5. **Checkpoint.** ``state.json`` is a restart point, not a per-cycle
   rewrite: :meth:`IngestPipeline.checkpoint` writes it once the
   documents applied since the last one reach ``1/CHECKPOINT_SHARE``
   of the journal's records, and callers write it wherever the journal
   passes to another process (``repro ingest``'s end, a server's boot
   catch-up and its drain). A pipeline
   opened on an older checkpoint replays the journal forward through
   the same advance, and resumes at the generation its last publish
   recorded (``published``), so a kill costs a replay and nothing else
   (the contract is in :mod:`repro.ingest.state`). An advance that
   fails part way takes the running state back to the checkpoint the
   same way, so no document is folded twice.

A cycle costs what its batch touched, one combination block at a
time. The merge replaces the evidence blocks of the combinations the
batch touched and keeps the others by identity
(:meth:`EvidenceCounter.blocks`). ``Surveyor.run`` reads a clean
combination's total from its block and takes its cached fit and its
opinion block unchanged; :meth:`ProvenanceIndex.from_run` keeps the
lineage block of every combination whose evidence block and samples
are unchanged; the drift report, the serving index, the opinions file
and the sidecar redo only the blocks that changed. Each writes the
bytes of a cold encode (docs/ingestion.md, "Cost model"). Only the
checkpoint encodes the running state whole.

Warm starts (``warm_start=True``) seed a dirty combination's EM from
its cached parameters. After a small append the cached point is near
the new optimum, so EM stops after fewer iterations, but the stop
point of a Δll-tolerance loop depends on its starting point, so
warm-started posteriors can differ from a cold batch fit in the last
few ulps. The default is off: exact bit-parity unless the operator
trades it away.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from itertools import takewhile
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
from ..kb.knowledge_base import KnowledgeBase
from ..nlp.annotate import Annotator
from ..nlp.prefilter import DEFAULT_MEMO_SIZE
from ..obs.convergence import records_from_result
from ..obs.manifest import manifest_path_for, publish_table, read_manifest
from ..pipeline.runner import mine_documents
from ..storage import LineageRows, OpinionRows
from .journal import CorpusJournal, JournalRecord
from .state import IngestState, load_state, save_state

#: An advance checkpoints once the documents applied since the last
#: checkpoint reach 1/CHECKPOINT_SHARE of the journal's records, which
#: bounds the replay a restart pays to that share of the journal.
CHECKPOINT_SHARE = 16


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
        The append-only document log; running state is checkpointed
        as ``state.json`` alongside its segments.
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
    published:
        The opinions path this journal publishes to. When the run
        manifest there names this journal and records a journal
        offset above the checkpoint, the advance that replays up to
        it resumes the generation that manifest records.
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
    published: str | Path | None = None
    state: IngestState = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # One annotator for the pipeline's lifetime: the prefilter
        # automaton compiles once and the sentence memo stays warm
        # across advances, so a small append pays delta-sized cost.
        self._annotator = Annotator(
            self.kb,
            fast_path=self.fast_path,
            memo_size=self.annotation_memo_size,
        )
        # The opinion rows and lineage pairs publish last wrote, per
        # combination block.
        self._rows = OpinionRows()
        self._lineage = LineageRows()
        self._restore(self._published_point())

    def _restore(self, point: tuple[int, int] | None) -> None:
        """Take the running state back to the checkpoint on disk, as
        a restart would. The advances that replay the journal above it
        land on ``point`` (journal offset, generation) as they reach
        its offset."""
        self.state = load_state(self.journal.directory)
        if self.provenance and self.state.ledger is None:
            self.state.ledger = ProvenanceLedger()
        #: Documents applied since the last checkpoint.
        self.pending = 0
        # The point to resume, while the checkpoint is behind it.
        if point is not None and point[0] <= self.state.applied_offset:
            point = None
        self._resume = point
        # The last advance's result, not the served table (a reload or
        # rollback may have replaced that), and its lineage: their
        # clean blocks carry.
        self._previous: SurveyorResult | None = None
        self._index: ProvenanceIndex | None = None

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
        the applied watermark; checkpoints by the share rule."""
        report = self._apply(
            list(self.journal.replay(after=self.state.applied_offset))
        )
        self._observe(report)
        return report

    def reopen(self) -> "IngestPipeline":
        """A new pipeline with this one's settings over its journal as
        it is on disk, for after another writer (a ``repro ingest``
        run) appended and checkpointed: this view's offsets are stale
        (:meth:`CorpusJournal.behind_disk`)."""
        journal = self.journal
        return replace(self, journal=CorpusJournal(
            journal.directory,
            max_segment_bytes=journal.max_segment_bytes,
            fault_injector=journal.fault_injector,
            fsync=journal.fsync,
        ))

    def catch_up(self) -> IngestReport | None:
        """Replay the journal from the checkpoint up to what the last
        publish covered, landing on that publish's generation (None
        when the checkpoint is not behind it). A server calls this
        before it serves, so its first POST carries no replay;
        documents journaled after that publish wait for the next
        advance, as they would have without the restart."""
        if self._resume is None:
            return None
        offset = self._resume[0]
        return self._apply(list(takewhile(
            lambda record: record.offset <= offset,
            self.journal.replay(after=self.state.applied_offset),
        )))

    def checkpoint(self) -> Path:
        """Write ``state.json`` now (fsynced): the restart point the
        journal replays forward from."""
        path = save_state(self.state, self.journal.directory)
        self.pending = 0
        return path

    def _published_point(self) -> tuple[int, int] | None:
        """(journal offset, generation) of this journal's last publish
        to ``published``. None when there is no such manifest, when it
        records another journal, or when it cannot be read (a crash
        may leave it empty): the generation then follows the
        checkpoint's."""
        if self.published is None:
            return None
        try:
            manifest = read_manifest(manifest_path_for(self.published))
            config = manifest["config"]
            if manifest["command"] != "ingest" or not os.path.samefile(
                config["journal"], self.journal.directory
            ):
                return None
            return int(config["journal_offset"]), int(config["generation"])
        except (OSError, ValueError, LookupError, TypeError):
            return None

    def _next_generation(self, last_offset: int) -> int:
        """The generation of an advance ending at ``last_offset``: the
        last publish's while replaying up to it, one more past it."""
        resume = self._resume
        if resume is not None and last_offset >= resume[0]:
            self._resume = None
            return resume[1] + (last_offset > resume[0])
        return self.state.generation + 1

    def _apply(self, records: list[JournalRecord]) -> IngestReport:
        """Fold ``records`` in and refit. A failure part way leaves
        the state at the last checkpoint, never half-folded, so a
        retry or a later checkpoint cannot count a document twice.
        The retry lands on the generation the state had reached."""
        point = self._resume or (
            self.state.applied_offset, self.state.generation
        )
        try:
            return self._fold(records)
        except BaseException:
            self._restore(point)
            raise

    def _fold(self, records: list[JournalRecord]) -> IngestReport:
        delta_ledger = (
            ProvenanceLedger() if self.provenance else None
        )
        extractor = EvidenceExtractor(provenance=delta_ledger)
        delta, _ = mine_documents(
            [record.document for record in records],
            self._annotator,
            extractor,
        )
        if records:
            self.state.evidence.merge(delta)
            self.state.stats.merge(extractor.stats)
            if delta_ledger is not None:
                self.state.ledger.merge(delta_ledger)

        dirty = tuple(sorted(delta.keys(), key=str))
        started = time.perf_counter()
        result, refitted, reused = self._refit(frozenset(dirty))
        refit_seconds = time.perf_counter() - started

        if records:
            last_offset = records[-1].offset
            self.state.generation = self._next_generation(last_offset)
            self.state.applied_offset = last_offset
            self.pending += len(records)
            if self.pending * CHECKPOINT_SHARE >= self.journal.n_records:
                self.checkpoint()

        # With lineage off, a ledger persisted by an earlier run is
        # checkpointed unchanged but backs no index, so no sidecar is
        # written.
        index = None
        if self.provenance:
            index = self._index = ProvenanceIndex.from_run(
                self.state.ledger, self.state.evidence,
                result, records_from_result(result), self._index,
            )
        return IngestReport(
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

    # ------------------------------------------------------------------
    # Dirty-set refitter
    # ------------------------------------------------------------------
    def _refit(
        self, dirty: frozenset[PropertyTypeKey]
    ) -> tuple[SurveyorResult, int, int]:
        """Rebuild the full opinion table, running EM and emitting
        opinions only where the evidence changed.

        The table comes from ``Surveyor.run`` itself, fed cached fits
        for clean combinations and the previous result to carry their
        blocks from, so a table assembled from carried + refitted
        combinations is byte-identical to a one-shot batch over the
        same evidence.
        """
        surveyor = Surveyor(
            catalog=self.kb,
            occurrence_threshold=self.occurrence_threshold,
            learner=self.learner,
        )
        cache = self.state.fits
        refitted = 0

        def fit(key, block) -> FittedCombination:
            nonlocal refitted
            cached = cache.get(key)
            if cached is not None and key not in dirty:
                return cached
            refitted += 1
            fitter = surveyor
            if self.warm_start and cached and not cached.trace.degraded:
                fitter = replace(surveyor, learner=replace(
                    self.learner, initial_parameters=cached.parameters
                ))
            return fitter.fit_combination(key, block)

        result = surveyor.run(
            self.state.evidence.blocks(),
            fit=fit,
            previous=self._previous,
            dirty=dirty,
        )
        self._previous = result
        for key in result.skipped:
            cache.pop(key, None)
        cache.update(result.fits)
        return result, refitted, len(result.fits) - refitted

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
        (all atomically, through the batch CLI's writer) so a server
        can hot-reload them."""
        out = Path(out)
        publish_table(
            report.table,
            out,
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
            provenance=report.provenance,
            rows=self._rows,
            lineage=self._lineage,
        )
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

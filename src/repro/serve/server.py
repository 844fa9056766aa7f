"""The query engine behind ``repro serve``.

The paper's motivating workload — search queries like ``safe cities``
answered from structured data — is a *serving* workload: mine once,
answer millions of low-latency lookups. This module is the engine of
that serving layer, stdlib-only; the HTTP front end is the asyncio
core in :mod:`repro.serve.aio` (with ``--workers N`` multi-process
mode in :mod:`repro.serve.workers`), which routes every request into
one :class:`OpinionService`.

* :class:`OpinionService` — the engine: an immutable
  :class:`~repro.serve.index.OpinionIndex` snapshot, a generation-
  scoped :class:`~repro.serve.cache.QueryCache`, admission control
  (per-client token buckets + a bounded queue, see
  :mod:`~repro.serve.admission`), per-request deadlines, and safe
  hot-reload: candidate artefacts are validated off to the side
  (load, schema check, smoke query), swapped in with one reference
  assignment only on success, and the previous generation is kept for
  one-step rollback. A failed reload quarantines the artefact, flips
  the service *degraded* (still answering, from the last good
  snapshot, with ``degraded_mode`` stamped into responses), and feeds
  a circuit breaker that fails further reloads fast.
* :class:`ServeError` — a client-facing failure carrying the HTTP
  status, stable error code, and ``Retry-After`` hint that the front
  end renders into the one :func:`~repro.serve.schema.error_response`
  envelope.
* :func:`documents_from_payload` — the ``POST /admin/ingest`` body
  parser.

Every handled request is counted, latency-observed into a streaming
histogram (with the request id attached as an exemplar), accounted
against the availability and latency SLOs (:mod:`repro.obs.slo`),
appended to the JSONL access log when one is configured, and — when a
tracer is attached — head-sampled into a ``serve.request`` span with
an always-keep rule for slow or failed requests. Spans are adopted
into the server's trace under a lock — the per-process tracer is not
itself thread-safe. Each request carries an ``X-Request-Id``
(client-supplied or generated) echoed on every response and stamped
into error envelopes, access-log lines, and kept spans, so one id
joins all three records.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import secrets
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

from ..core.query import QueryError, SubjectiveQuery
from ..core.result import OpinionTable
from ..corpus.document import Document
from ..core.types import (
    Opinion,
    Polarity,
    PropertyTypeKey,
    SubjectiveProperty,
)
from ..extraction.provenance import ProvenanceIndex
from ..obs.drift import DriftReport, compare_tables
from ..obs.histogram import WindowedHistogram
from ..obs.metrics import MetricsRegistry
from ..obs.slo import SLO_STATES, SloTracker
from ..obs.trace import Tracer
from ..storage import load, provenance_path_for
from .access_log import AccessLog
from .admission import (
    DEFAULT_CLIENT_BURST,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_QUEUE_TIMEOUT,
    DEFAULT_REQUEST_DEADLINE,
    AsyncAdmissionController,
    CircuitBreaker,
    Deadline,
)
from .cache import DEFAULT_MAX_ENTRIES, CacheEntry, QueryCache
from .faults import InjectedDisconnect, ServeFaultInjector
from .index import OpinionIndex
from .schema import (
    ask_response,
    batch_response,
    explain_response,
    listing_response,
)

DEFAULT_MAX_INFLIGHT = 32
DEFAULT_TOP = 10
#: Upper bounds keeping one request's work predictable.
MAX_TOP = 1000
MAX_BATCH_QUERIES = 256
MAX_BODY_BYTES = 1 << 20

#: Health state machine, exposed in /healthz and as a gauge.
HEALTH_STATES = {"healthy": 0, "degraded": 1, "draining": 2}
#: Failed-artefact records kept for /healthz (newest last).
MAX_QUARANTINE_RECORDS = 16

#: Head-sampling default: keep every Nth request's span (1 = all).
DEFAULT_TRACE_SAMPLE = 1
#: Tail rule: a request at least this slow keeps its span regardless
#: of the sampling decision — the outliers are what traces are *for*.
DEFAULT_TRACE_SLOW_SECONDS = 0.5
#: Rolling window behind the /healthz latency block.
LATENCY_WINDOW_SECONDS = 300.0

#: Client-supplied request ids must look like ids, not payloads.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


def new_request_id() -> str:
    """A fresh 16-hex-char request id."""
    return secrets.token_hex(8)


class ServeError(ValueError):
    """A request problem (becomes a 4xx/5xx error envelope).

    ``code`` is the stable machine-readable discriminator carried in
    the response body; ``retry_after`` mirrors the ``Retry-After``
    header when retrying is the remedy.
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        *,
        code: str | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        if code is None:
            code = "bad_request" if status < 500 else "internal"
        self.code = code
        self.retry_after = retry_after


def resolve_opinion(
    table: OpinionTable,
    entity_id: str,
    property_text: str,
    entity_type: str | None = None,
) -> tuple[PropertyTypeKey, Opinion]:
    """Find the one opinion ``/explain`` is about.

    With an explicit ``entity_type`` the lookup is exact; without one
    the property must resolve to a single combination across the
    entity's opinions — ambiguity is a 400 listing the candidate
    types, absence a 404. :meth:`OpinionService.explain_entry` runs
    it for ``GET /explain`` and ``repro explain`` alike.
    """
    try:
        prop = SubjectiveProperty.parse(property_text)
    except ValueError as error:
        raise ServeError(str(error)) from None
    if entity_type is not None:
        key = PropertyTypeKey(property=prop, entity_type=entity_type)
        opinion = table.get(entity_id, key)
        if opinion is None:
            raise ServeError(
                f"no opinion for entity {entity_id!r} and property "
                f"{prop.text!r} of type {entity_type!r}",
                status=404,
                code="not_found",
            )
        return key, opinion
    matches = [
        opinion
        for opinion in table.for_entity(entity_id)
        if opinion.key.property == prop
    ]
    if not matches:
        raise ServeError(
            f"no opinion for entity {entity_id!r} and property "
            f"{prop.text!r}",
            status=404,
            code="not_found",
        )
    if len(matches) > 1:
        types = sorted(
            opinion.key.entity_type for opinion in matches
        )
        raise ServeError(
            f"property {prop.text!r} is ambiguous for entity "
            f"{entity_id!r}; pass type= one of {', '.join(types)}"
        )
    return matches[0].key, matches[0]


def load_provenance_sidecar(
    source: str | Path | None,
) -> ProvenanceIndex | None:
    """Load the lineage sidecar next to an opinions artefact.

    Best-effort by design: a missing or unreadable sidecar degrades
    ``/explain`` to counts-only answers, it never blocks serving (or
    a reload) of a perfectly good opinion table.
    """
    if source is None:
        return None
    path = provenance_path_for(source)
    if not path.exists():
        return None
    try:
        return load(path, "provenance")
    except Exception:
        return None


class Generation(NamedTuple):
    """One served generation: its index and what it was built from."""

    index: OpinionIndex
    table: OpinionTable
    source: Path | None
    provenance: ProvenanceIndex | None


class OpinionService:
    """The query engine behind the HTTP API (usable standalone).

    ``ask``/``listing``/``explain`` return ``(response_dict, cached)``;
    their ``*_entry`` forms return the :class:`CacheEntry` with the
    rendered bytes. Queries run against a single generation read at
    entry, so a concurrent :meth:`swap` can never hand a request half
    of each table.
    """

    def __init__(
        self,
        table: OpinionTable,
        *,
        source_path: str | Path | None = None,
        cache_size: int = DEFAULT_MAX_ENTRIES,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        request_deadline: float = DEFAULT_REQUEST_DEADLINE,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        queue_timeout: float = DEFAULT_QUEUE_TIMEOUT,
        client_rate: float = 0.0,
        client_burst: float = DEFAULT_CLIENT_BURST,
        fault_injector: ServeFaultInjector | None = None,
        reload_breaker: CircuitBreaker | None = None,
        access_log: AccessLog | None = None,
        slo: SloTracker | None = None,
        trace_sample: int = DEFAULT_TRACE_SAMPLE,
        trace_slow_seconds: float = DEFAULT_TRACE_SLOW_SECONDS,
        provenance: ProvenanceIndex | None = None,
        drift_guard_fraction: float | None = None,
        ingest_pipeline: Any | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be at least 1, got {max_inflight}"
            )
        if request_deadline <= 0:
            raise ValueError(
                "request_deadline must be positive, "
                f"got {request_deadline}"
            )
        if trace_sample < 1:
            raise ValueError(
                f"trace_sample must be >= 1, got {trace_sample}"
            )
        if drift_guard_fraction is not None and not (
            0.0 < drift_guard_fraction <= 1.0
        ):
            raise ValueError(
                "drift_guard_fraction must be in (0, 1], got "
                f"{drift_guard_fraction}"
            )
        self.source_path = (
            Path(source_path) if source_path is not None else None
        )
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self.tracer = tracer
        self.max_inflight = int(max_inflight)
        self.request_deadline = float(request_deadline)
        self.cache = QueryCache(cache_size, self.registry)
        self.admission = AsyncAdmissionController(
            self.max_inflight,
            queue_depth=queue_depth,
            queue_timeout=queue_timeout,
            client_rate=client_rate,
            client_burst=client_burst,
        )
        self.faults = fault_injector
        self.reload_breaker = (
            reload_breaker
            if reload_breaker is not None
            else CircuitBreaker()
        )
        self.access_log = access_log
        self.slo = slo if slo is not None else SloTracker()
        self.trace_sample = int(trace_sample)
        self.trace_slow_seconds = float(trace_slow_seconds)
        self.latency_window = WindowedHistogram(
            window_seconds=LATENCY_WINDOW_SECONDS
        )
        # Lock-free head-sampling counter: itertools.count.__next__
        # is atomic in CPython, so the hot path takes _trace_lock
        # only for the spans it actually keeps.
        self._trace_seen = itertools.count(1)
        self._swap_lock = threading.Lock()
        self._trace_lock = threading.Lock()
        # Serializes whole ingest cycles (journal append -> refit ->
        # publish); _swap_lock is still taken for the swap itself so
        # ingests and file reloads interleave safely.
        self._ingest_lock = threading.Lock()
        self.ingest_pipeline = ingest_pipeline
        # A server restarted on an ingest journal serves the table
        # its last advance published, so it resumes that generation
        # number rather than restarting the count at 1.
        generation = 1
        if ingest_pipeline is not None:
            generation = max(1, ingest_pipeline.state.generation)
        # One atomic attribute carrying the whole serving snapshot, so
        # a reader never pairs one generation's index with another's
        # table or sidecar mid-swap.
        self._live = Generation(
            OpinionIndex(table, generation=generation),
            table,
            self.source_path,
            provenance,
        )
        self._previous: Generation | None = None
        self._degraded_reason: str | None = None
        self._quarantine: list[dict[str, Any]] = []
        self.drift_guard_fraction = drift_guard_fraction
        self._last_drift: dict[str, Any] | None = None
        self._drift_alarm: str | None = None
        # Sidecar cache: (path, stat signature) -> loaded index, so a
        # reload whose sidecar file did not change skips the re-parse
        # while a rewritten sidecar (new mtime/size) is re-read and
        # /explain lineage follows the new generation. The loaded
        # index is cached alongside the signature — never resolved
        # through the live generation — so rollback or an intervening
        # swap cannot alias the cache onto the wrong generation.
        self._sidecar_cache: (
            tuple[tuple[str, int, int], ProvenanceIndex | None] | None
        ) = None
        if provenance is not None and self.source_path is not None:
            signature = self._sidecar_signature(self.source_path)
            if signature is not None:
                self._sidecar_cache = (signature, provenance)
        self._publish_gauges()

    # ------------------------------------------------------------------
    # Health state machine
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether responses come from a last-good snapshot."""
        return self._degraded_reason is not None

    def health_state(self) -> str:
        """``healthy`` / ``degraded`` / ``draining`` (draining wins)."""
        if self.admission.draining:
            return "draining"
        if self.degraded:
            return "degraded"
        return "healthy"

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------
    @property
    def index(self) -> OpinionIndex:
        """The live snapshot (one atomic attribute read)."""
        return self._live.index

    def _next_index(
        self, table: OpinionTable, generation: int = 0
    ) -> OpinionIndex:
        # Blocks the candidate shares with the live table (an ingest
        # carried them forward) keep the live index's postings. An
        # ingest passes its pipeline's generation (siblings under
        # --workers N advance it too); the index is never numbered
        # below live + 1, so no cached answer of the live one is kept.
        live = self._live.index
        generation = max(generation, live.generation + 1)
        return OpinionIndex(table, generation=generation, previous=live)

    def swap(
        self,
        table: OpinionTable,
        source: str | Path | None = None,
        provenance: ProvenanceIndex | None = None,
    ) -> OpinionIndex:
        """Atomically replace the live table (trusted caller path).

        The replacement index is built *before* publication and
        installed with a single reference assignment; requests either
        see the old generation or the new one, never a mixture. Stale
        cache entries are purged eagerly so memory is not held by
        answers no one can receive anymore. The outgoing generation is
        retained for one-step :meth:`rollback`.
        """
        source = Path(source) if source is not None else None
        with self._swap_lock:
            index = self._next_index(table)
            live = Generation(index, table, source, provenance)
            self._install(live, "reload")
            return index

    def _install(self, live: Generation, trigger: str) -> DriftReport:
        """Serve ``live`` from now on; callers hold ``_swap_lock``.

        The one install path for swap, reload, ingest and rollback:
        drift against the retiring generation, a cache purge, the
        degraded flag cleared, the drift noted and gauges published.
        A rollback consumes the previous generation; every other
        trigger keeps the retiring one for :meth:`rollback`.
        """
        retiring = self._live
        drift = compare_tables(retiring.table, live.table)
        rollback = trigger == "rollback"
        self._previous = None if rollback else retiring
        self._live = live
        self.cache.purge_generations(live.index.generation)
        self._degraded_reason = None
        if rollback:
            self.registry.inc("repro_serve_rollbacks_total")
            self.reload_breaker.reset()
        else:
            self.registry.inc("repro_serve_reloads_total")
            self.reload_breaker.record_success()
        self._note_drift(drift, trigger, live.index.generation)
        self._publish_gauges()
        return drift

    def _note_drift(
        self, drift: DriftReport, trigger: str, generation: int
    ) -> None:
        """Publish one snapshot swap's drift: gauges, the /healthz
        line, the opt-in guard, and a structured stderr record."""
        registry = self.registry
        registry.set_gauge(
            "repro_serve_generation_flips", drift.flips
        )
        registry.set_gauge(
            "repro_serve_generation_flip_fraction",
            drift.flip_fraction,
        )
        registry.set_gauge(
            "repro_serve_generation_pairs_added", drift.added
        )
        registry.set_gauge(
            "repro_serve_generation_pairs_removed", drift.removed
        )
        registry.set_gauge(
            "repro_serve_generation_entity_churn",
            drift.entity_churn,
        )
        registry.set_gauge(
            "repro_serve_generation_delta_max", drift.delta_max
        )
        summary = drift.summary()
        self._last_drift = {"trigger": trigger, **summary}
        guard = self.drift_guard_fraction
        if (
            guard is not None
            and drift.common
            and drift.flip_fraction > guard
        ):
            self._drift_alarm = (
                f"{trigger} flipped {drift.flips} of "
                f"{drift.common} answers "
                f"({drift.flip_fraction:.1%} > guard {guard:.1%})"
            )
            registry.inc("repro_serve_drift_alarms_total")
        else:
            self._drift_alarm = None
        print(
            json.dumps(
                {
                    "event": "serve.generation_drift",
                    "trigger": trigger,
                    "generation": generation,
                    "alarm": self._drift_alarm,
                    **summary,
                },
                sort_keys=True,
            ),
            file=sys.stderr,
            flush=True,
        )

    def _validate_candidate(
        self, table: OpinionTable, source: Path, generation: int = 0
    ) -> OpinionIndex:
        """Vet a candidate artefact before it can touch live traffic.

        Rejects empty tables (a truncated file decodes to nothing),
        scans every posterior for NaN/Inf leaks, then builds the
        replacement index off to the side and smoke-queries it (the
        artefact kind was checked when the table was loaded). Raises
        ``ValueError`` with a reason on any failure; nothing
        observable changes until the caller publishes the returned
        index.
        """
        if len(table) == 0:
            raise ValueError(
                f"{source} holds no opinions (truncated artefact?)"
            )
        for opinion in table:
            if not (
                math.isfinite(opinion.probability)
                and 0.0 <= opinion.probability <= 1.0
            ):
                raise ValueError(
                    f"{source} has a posterior outside [0, 1] for "
                    f"entity {opinion.entity_id!r}"
                )
        index = self._next_index(table, generation)
        smoke_key = table.keys()[0]
        if not (
            index.entities_with(smoke_key, Polarity.POSITIVE)
            or index.entities_with(smoke_key, Polarity.NEGATIVE)
        ):
            raise ValueError(
                f"smoke query over {smoke_key} returned nothing"
            )
        return index

    def _note_reload_failure(
        self, source: Path, error: Exception
    ) -> None:
        """Quarantine a bad artefact: counters, bounded record, one
        structured log line, degraded mode, breaker feedback."""
        reason = f"{type(error).__name__}: {error}"
        self.registry.inc("repro_serve_reload_failures_total")
        self.registry.inc("repro_serve_quarantined_artefacts_total")
        self._quarantine.append(
            {"source": str(source), "reason": reason}
        )
        del self._quarantine[:-MAX_QUARANTINE_RECORDS]
        self._degraded_reason = f"reload of {source} failed: {reason}"
        self.reload_breaker.record_failure()
        self._publish_gauges()
        print(
            json.dumps(
                {
                    "event": "serve.reload_failed",
                    "source": str(source),
                    "reason": reason,
                    "live_generation": self._live.index.generation,
                    "breaker": self.reload_breaker.state,
                },
                sort_keys=True,
            ),
            file=sys.stderr,
            flush=True,
        )

    def _sidecar_signature(
        self, source: str | Path
    ) -> tuple[str, int, int] | None:
        """Freshness fingerprint of an artefact's lineage sidecar:
        (path, mtime_ns, size), or None when the file is absent."""
        path = provenance_path_for(source)
        try:
            stat = path.stat()
        except OSError:
            return None
        return (str(path), stat.st_mtime_ns, stat.st_size)

    def _load_sidecar(
        self, source: str | Path
    ) -> ProvenanceIndex | None:
        """Load the sidecar next to ``source``, skipping the re-parse
        when its stat signature matches the last load. A rewritten
        sidecar (mtime or size moved) is always re-read, so /explain
        lineage follows the generation a reload just installed."""
        signature = self._sidecar_signature(source)
        if signature is None:
            return None
        cached = self._sidecar_cache
        if cached is not None and cached[0] == signature:
            return cached[1]
        sidecar = load_provenance_sidecar(source)
        self._sidecar_cache = (signature, sidecar)
        return sidecar

    def reload(self, path: str | Path | None = None) -> dict[str, Any]:
        """Validate the opinions artefact off to the side, then swap.

        Any failure (missing file, wrong artefact kind, empty or
        corrupt table, failed smoke query) leaves the current index
        serving, quarantines the artefact, marks the service degraded,
        and counts against the reload circuit breaker; once the
        breaker opens, further reloads fail fast with 503 until the
        cooldown elapses.
        """
        source = Path(path) if path is not None else self.source_path
        if source is None:
            raise ServeError(
                "no opinions path configured to reload from"
            )
        if not self.reload_breaker.allow():
            retry_after = self.reload_breaker.retry_after()
            raise ServeError(
                "reload breaker is open after repeated failures; "
                f"retry in {retry_after:.1f}s",
                status=503,
                code="breaker_open",
                retry_after=retry_after,
            )
        with self._swap_lock:
            try:
                fault = (
                    self.faults.reload_fault()
                    if self.faults is not None
                    else None
                )
                if fault is not None:
                    self.registry.inc(
                        "repro_serve_faults_injected_total"
                    )
                if fault == "corrupt":
                    raise ValueError(
                        "injected fault: artefact unreadable"
                    )
                table = load(source, "opinions")
                if fault == "truncate":
                    table = OpinionTable()
                index = self._validate_candidate(table, source)
                if fault == "fail_swap":
                    raise ValueError("injected fault: swap failed")
            except Exception as error:
                self._note_reload_failure(source, error)
                raise ServeError(
                    "reload failed, previous table still live: "
                    f"{error}",
                    status=500,
                    code="reload_failed",
                ) from None
            drift = self._install(
                Generation(
                    index, table, source, self._load_sidecar(source)
                ),
                "reload",
            )
        return {
            "status": "reloaded",
            "source": str(source),
            "generation": index.generation,
            "opinions": index.n_opinions,
            "drift": drift.summary(),
        }

    def rollback(self) -> dict[str, Any]:
        """Return to the previous generation (one step), or clear a
        degraded flag when there is nothing to return to."""
        with self._swap_lock:
            previous = self._previous
            if previous is not None:
                live = previous._replace(
                    index=self._next_index(previous.table)
                )
                drift = self._install(live, "rollback")
                source = live.source
                return {
                    "status": "rolled_back",
                    "source": None if source is None else str(source),
                    "generation": live.index.generation,
                    "opinions": live.index.n_opinions,
                    "drift": drift.summary(),
                }
            if self._degraded_reason is not None:
                # Degraded but never successfully swapped: generation 1
                # is still live, so "rolling back" is clearing the flag
                # and giving reloads another chance.
                self._degraded_reason = None
                self.reload_breaker.reset()
                self.registry.inc("repro_serve_rollbacks_total")
                self._publish_gauges()
                index = self._live.index
                return {
                    "status": "cleared",
                    "generation": index.generation,
                    "opinions": index.n_opinions,
                }
        raise ServeError(
            "no previous generation to roll back to",
            status=409,
            code="rollback_unavailable",
        )

    def ingest(
        self,
        documents: list[Document],
        request_id: str | None = None,
    ) -> dict[str, Any]:
        """Journal a document batch, fold its evidence in, and swap
        the refitted table live (the streaming write path).

        Requires an attached :class:`~repro.ingest.IngestPipeline`
        (``repro serve --ingest-journal``); 409 otherwise. The whole
        cycle — durable append, incremental extract, dirty-set refit,
        artefact publish, validated swap — runs under ``_ingest_lock``
        so concurrent posts serialize; the swap itself still takes
        ``_swap_lock``, interleaving safely with file reloads. The
        published artefacts land at the configured opinions path, so a
        restart reloads the latest generation from disk.
        """
        pipeline = self.ingest_pipeline
        if pipeline is None:
            raise ServeError(
                "no ingest journal attached to this server "
                "(start with --ingest-journal)",
                status=409,
                code="ingest_unavailable",
            )
        if not documents:
            raise ServeError("ingest batch holds no documents")
        started = time.perf_counter()
        started_unix = time.time()
        with self._ingest_lock:
            report = pipeline.ingest(documents)
            out = self.source_path
            swapped = False
            drift: DriftReport | None = None
            index = self._live.index
            if len(report.table) > 0:
                if out is not None:
                    pipeline.publish(
                        report,
                        out,
                        started_unix=started_unix,
                        duration_seconds=(
                            time.perf_counter() - started
                        ),
                    )
                    # The freshly written sidecar is this report's
                    # lineage; prime the cache so a follow-up file
                    # reload does not re-parse it.
                    signature = self._sidecar_signature(out)
                    if signature is not None:
                        self._sidecar_cache = (
                            signature, report.provenance
                        )
                with self._swap_lock:
                    try:
                        index = self._validate_candidate(
                            table=report.table,
                            source=(
                                out
                                if out is not None
                                else pipeline.journal.directory
                            ),
                            generation=report.generation,
                        )
                    except ValueError as error:
                        raise ServeError(
                            "ingest produced an unservable table: "
                            f"{error}",
                            status=500,
                            code="ingest_failed",
                        ) from None
                    drift = self._install(
                        Generation(
                            index, report.table, out, report.provenance
                        ),
                        "ingest",
                    )
                swapped = True
        freshness = time.perf_counter() - started
        self.registry.observe(
            "repro_ingest_freshness_seconds",
            freshness,
            exemplar=request_id,
        )
        return {
            "status": "ingested" if swapped else "accepted",
            "documents": report.documents,
            "statements": report.statements,
            "journal_offset": report.journal_offset,
            "dirty_combinations": len(report.dirty),
            "refitted": report.refitted,
            "generation": index.generation,
            "opinions": index.n_opinions,
            "freshness_seconds": round(freshness, 6),
            "drift": None if drift is None else drift.summary(),
        }

    def _publish_gauges(self) -> None:
        index = self._live.index
        self.registry.set_gauge(
            "repro_serve_index_generation", index.generation
        )
        self.registry.set_gauge(
            "repro_serve_index_opinions", index.n_opinions
        )
        self.registry.set_gauge(
            "repro_serve_health_state",
            HEALTH_STATES[self.health_state()],
        )

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting work; ``/healthz`` flips to ``draining``."""
        self.admission.begin_drain()
        self._publish_gauges()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _stamp(self, response: dict[str, Any]) -> dict[str, Any]:
        """Mark a response as degraded-mode when serving from a
        last-good snapshot. Cached entries stay state-free (always
        ``degraded_mode: false``); the healthy path returns the dict
        untouched, the degraded path a shallow copy."""
        if self._degraded_reason is None:
            return response
        stamped = dict(response)
        stamped["degraded_mode"] = True
        return stamped

    def _respond(
        self, key: tuple, build: Callable[[], dict[str, Any]]
    ) -> tuple[CacheEntry, bool]:
        """The one cache path of ask, listing and explain.

        A hit skips ``build``; a miss renders its response once and
        stores the entry. In degraded mode the answer is a stamped
        copy rendered fresh, so cached entries stay unstamped."""
        entry = self.cache.get(key)
        cached = entry is not None
        if entry is None:
            entry = CacheEntry.of(build())
            self.cache.put(key, entry)
        if self._degraded_reason is not None:
            entry = CacheEntry.of(self._stamp(entry.response))
        return entry, cached

    def ask(self, *args: Any, **kwargs: Any) -> tuple[dict, bool]:
        """:meth:`ask_entry`, answering with the response dict."""
        entry, cached = self.ask_entry(*args, **kwargs)
        return entry.response, cached

    def ask_entry(
        self,
        text: str,
        top: int = DEFAULT_TOP,
        index: OpinionIndex | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[CacheEntry, bool]:
        """Answer a free-text query, via the cache when possible.

        The cache key uses the whitespace-normalised raw text, so a
        hit skips even query parsing.
        """
        top = _check_top(top)
        index = index if index is not None else self._live.index
        normalized = " ".join(text.lower().split())

        def build() -> dict[str, Any]:
            if self.faults is not None and self.faults.on_query(
                normalized
            ):
                self.registry.inc("repro_serve_faults_injected_total")
            try:
                query = SubjectiveQuery.parse(text)
            except QueryError as error:
                raise ServeError(
                    f"cannot parse query: {error}"
                ) from None
            return ask_response(
                query,
                index.answer(query, top=top, deadline=deadline),
                index,
            )

        return self._respond(
            (index.generation, "ask", normalized, top), build
        )

    def listing(self, *args: Any, **kwargs: Any) -> tuple[dict, bool]:
        """:meth:`listing_entry`, answering with the response dict."""
        entry, cached = self.listing_entry(*args, **kwargs)
        return entry.response, cached

    def listing_entry(
        self,
        property_text: str,
        entity_type: str,
        *,
        negative: bool = False,
        min_probability: float = 0.0,
        top: int = DEFAULT_TOP,
        index: OpinionIndex | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[CacheEntry, bool]:
        """Single-combination listing (the ``repro query`` semantics)."""
        top = _check_top(top)
        if not 0.0 <= min_probability <= 1.0:
            raise ServeError(
                "min_probability must be in [0, 1], "
                f"got {min_probability}"
            )
        # -0.0 == 0.0 shares a cache key, so the echoed value must not
        # keep the sign either: + 0.0 folds -0.0 into 0.0.
        min_probability = float(min_probability) + 0.0
        index = index if index is not None else self._live.index
        try:
            key = PropertyTypeKey(
                property=SubjectiveProperty.parse(property_text),
                entity_type=entity_type,
            )
        except ValueError as error:
            raise ServeError(str(error)) from None

        def build() -> dict[str, Any]:
            if deadline is not None:
                deadline.checkpoint("listing")
            polarity = (
                Polarity.NEGATIVE if negative else Polarity.POSITIVE
            )
            opinions = index.entities_with(
                key, polarity, min_probability=min_probability
            )[:top]
            return listing_response(
                key, negative, min_probability, opinions, index
            )

        return self._respond(
            (
                index.generation,
                "listing",
                str(key),
                bool(negative),
                min_probability,
                top,
            ),
            build,
        )

    def explain(self, *args: Any, **kwargs: Any) -> tuple[dict, bool]:
        """:meth:`explain_entry`, answering with the response dict."""
        entry, cached = self.explain_entry(*args, **kwargs)
        return entry.response, cached

    def explain_entry(
        self,
        entity_id: str,
        property_text: str,
        entity_type: str | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[CacheEntry, bool]:
        """Full lineage for one answer (``GET /explain``).

        Resolves the (entity, property[, type]) target against the
        live table, then joins the posterior with the provenance
        sidecar's counts, sampled sentences, model parameters, and
        convergence verdict. Reads the whole serving snapshot from
        one atomic attribute, so a concurrent swap can never pair the
        new table with the old sidecar.
        """
        index, table, _, provenance = self._live

        def build() -> dict[str, Any]:
            if deadline is not None:
                deadline.checkpoint("explain")
            key, opinion = resolve_opinion(
                table, entity_id, property_text, entity_type
            )
            return explain_response(
                entity_id, key, opinion, index, provenance
            )

        return self._respond(
            (
                index.generation,
                "explain",
                entity_id,
                " ".join(property_text.lower().split()),
                entity_type or "",
            ),
            build,
        )

    def batch(
        self,
        queries: list[str],
        top: int = DEFAULT_TOP,
        deadline: Deadline | None = None,
        request_id: str | None = None,
    ) -> dict[str, Any]:
        """Answer many free-text queries against ONE index snapshot.

        With a ``request_id`` every item of the response carries it,
        so chaos-bench audits can attribute each sub-answer to the
        batch's access-log line. Items are stamped on copies — cached
        entries stay shared and id-free.
        """
        if len(queries) > MAX_BATCH_QUERIES:
            raise ServeError(
                f"batch of {len(queries)} exceeds the limit of "
                f"{MAX_BATCH_QUERIES}"
            )
        index = self._live.index
        results: list[dict[str, Any]] = []
        for text in queries:
            if deadline is not None:
                deadline.checkpoint("batch")
            try:
                response, _ = self.ask(
                    text, top=top, index=index, deadline=deadline
                )
            except ServeError as error:
                response = {"error": str(error), "query": text}
            if request_id is not None:
                response = dict(response)
                response["request_id"] = request_id
            results.append(response)
        return self._stamp(batch_response(results, index.generation))

    def fault_response(self, path: str) -> None:
        """Chaos hook: maybe sever the connection pre-response."""
        if self.faults is None:
            return
        try:
            self.faults.on_response(path)
        except InjectedDisconnect:
            self.registry.inc("repro_serve_faults_injected_total")
            raise

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def observe_request(
        self,
        *,
        method: str,
        path: str,
        status: int,
        seconds: float,
        cached: bool | None = None,
        request_id: str | None = None,
        client: str | None = None,
        code: str | None = None,
        items: int | None = None,
    ) -> None:
        """Account one handled request: metrics (with the request id
        as the histogram exemplar), SLO windows, the rolling latency
        window, the access log, and a head-sampled span. ``items`` is
        the sub-query count for ``POST /batch`` lines."""
        registry = self.registry
        registry.inc("repro_serve_requests_total")
        if status == 503:
            registry.inc("repro_serve_rejected_total")
        elif status >= 500:
            registry.inc("repro_serve_errors_total")
        registry.observe(
            "repro_serve_request_seconds", seconds,
            exemplar=request_id,
        )
        self.slo.record(status, seconds)
        self.latency_window.observe(seconds, request_id)
        if self.access_log is not None:
            self.access_log.write(
                request_id=request_id,
                method=method,
                path=path,
                status=status,
                seconds=seconds,
                cached=cached,
                code=code,
                client=client,
                generation=self._live.index.generation,
                items=items,
            )
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        # Head sampling with a tail rule: every Nth request keeps its
        # span, and slow or failed requests ALWAYS keep theirs.
        sampled = next(self._trace_seen) % self.trace_sample == 0
        if not (
            sampled
            or seconds >= self.trace_slow_seconds
            or status >= 500
        ):
            return
        attrs: dict[str, Any] = {
            "method": method,
            "path": path,
            "http_status": status,
        }
        if cached is not None:
            attrs["cached"] = cached
        if request_id is not None:
            attrs["request_id"] = request_id
        if code is not None:
            attrs["code"] = code
        record = {
            "span_id": 0,
            "parent_id": None,
            "name": "serve.request",
            "kind": "span",
            "start_unix": time.time() - seconds,
            "duration": seconds,
            "attrs": attrs,
            # 503/429 is deliberate shedding, not a failure.
            "status": (
                "error" if status >= 500 and status != 503 else "ok"
            ),
        }
        # Tracer internals are not thread-safe; adoption assigns this
        # span a fresh id under the service's lock.
        with self._trace_lock:
            tracer.adopt([record])

    def publish_slo_gauges(self) -> None:
        """Refresh the burn-rate gauges (called before /metrics
        renders so scrapes always see current windows)."""
        rates = self.slo.burn_rates()
        registry = self.registry
        registry.set_gauge(
            "repro_serve_availability_burn_fast",
            rates["availability"]["fast"],
        )
        registry.set_gauge(
            "repro_serve_availability_burn_slow",
            rates["availability"]["slow"],
        )
        registry.set_gauge(
            "repro_serve_latency_burn_fast",
            rates["latency"]["fast"],
        )
        registry.set_gauge(
            "repro_serve_latency_burn_slow",
            rates["latency"]["slow"],
        )
        registry.set_gauge(
            "repro_serve_slo_state",
            SLO_STATES.index(self.slo.state()),
        )

    def latency_summary(self) -> dict[str, Any]:
        """The /healthz recent-latency block (rolling window)."""
        merged = self.latency_window.merged()
        p50, p95, p99 = merged.quantiles((0.5, 0.95, 0.99))
        return {
            "window_seconds": self.latency_window.window_seconds,
            "count": merged.count,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

    def healthz(self) -> dict[str, Any]:
        index = self._live.index
        return {
            "status": self.health_state(),
            "generation": index.generation,
            "opinions": index.n_opinions,
            "combinations": index.n_keys,
            "entity_types": index.entity_types(),
            "degraded_combinations": sorted(
                str(key) for key in index.degraded_keys
            ),
            "degraded_reason": self._degraded_reason,
            "breaker": self.reload_breaker.state,
            "rollback_available": self._previous is not None,
            "quarantine": list(self._quarantine),
            "max_inflight": self.max_inflight,
            "admission": self.admission.stats(),
            "cache": self.cache.stats(),
            "slo": self.slo.report(),
            "latency": self.latency_summary(),
            "drift": self._last_drift,
            "drift_alarm": self._drift_alarm,
        }


def _check_top(top: Any) -> int:
    try:
        top = int(top)
    except (TypeError, ValueError):
        raise ServeError(f"top must be an integer, got {top!r}")
    if not 1 <= top <= MAX_TOP:
        raise ServeError(
            f"top must be in [1, {MAX_TOP}], got {top}"
        )
    return top


def documents_from_payload(
    payload: dict[str, Any],
) -> list[Document]:
    """Parse a ``POST /admin/ingest`` body into documents.

    Accepted shape: ``{"documents": [<string> | {"text": ...,
    "doc_id"?, "region"?}, ...]}``. A bare string is a document body
    with no id — the journal assigns ``ingested-<offset>`` ids at
    commit time.
    """
    rows = payload.get("documents")
    if not isinstance(rows, list) or not rows:
        raise ServeError(
            "body must be {\"documents\": [<string> | "
            "{\"text\": ...}, ...]} with at least one document"
        )
    documents: list[Document] = []
    for position, row in enumerate(rows):
        if isinstance(row, str):
            row = {"text": row}
        if not isinstance(row, dict) or not isinstance(
            row.get("text"), str
        ) or not row["text"].strip():
            raise ServeError(
                f"documents[{position}] needs a non-empty "
                "\"text\" string"
            )
        doc_id = row.get("doc_id", "")
        region = row.get("region", "")
        if not isinstance(doc_id, str) or not isinstance(
            region, str
        ):
            raise ServeError(
                f"documents[{position}]: doc_id and region must "
                "be strings"
            )
        documents.append(
            Document(doc_id=doc_id, text=row["text"], region=region)
        )
    return documents

"""Named metrics with a declared catalogue and deterministic exposition.

Four instrument kinds, mirroring the Prometheus data model at the
scale this reproduction needs:

* **counter** — monotonically increasing totals (documents processed,
  statements extracted, shard retries);
* **gauge** — last-written values (run wall seconds, KB entity count);
* **histogram** — fixed-bucket distributions (statements per document,
  per-shard latency, C+/C− evidence magnitudes);
* **streamhist** — log-bucketed streaming histograms
  (:mod:`repro.obs.histogram`) for serving latency: no pre-declared
  edges, bounded-error quantiles, and per-bucket *exemplar* trace ids
  rendered in the OpenMetrics ``# {trace_id="..."} value`` form.
  Exposed as ``# TYPE ... histogram`` — scrapers cannot tell the
  difference, which is the point.

Every metric name must be *declared* in :data:`CATALOG` before use —
an undeclared name raises :class:`MetricsError` at the call site, and
``validate_metrics_payload`` applies the same rule to files so CI can
reject a run that invented names. Exposition is deterministic (sorted
names, ``%.10g`` floats) so golden-file tests are byte-stable.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..core.errors import FormatError, ReproError
from ..storage.serialize import FORMAT_VERSION, _atomic_write_json, load
from .convergence import ConvergenceRecord
from .histogram import StreamingHistogram


class MetricsError(ReproError):
    """An undeclared metric name, or a registry used against it."""


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """One declared metric: its kind, help line, and histogram edges."""

    name: str
    kind: str  # counter | gauge | histogram | streamhist
    help: str
    buckets: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (
            "counter", "gauge", "histogram", "streamhist"
        ):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "histogram" and not self.buckets:
            raise ValueError(f"histogram {self.name} needs buckets")
        if self.buckets and list(self.buckets) != sorted(
            set(self.buckets)
        ):
            raise ValueError(
                f"{self.name}: buckets must be strictly increasing"
            )


#: Latency buckets (seconds) — spans sub-millisecond documents through
#: multi-second shards.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)

#: Small-count buckets (per-document statements, sentences, EM iters).
COUNT_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

#: Evidence-magnitude buckets for the per-pair ``<C+, C->`` tuples.
MAGNITUDE_BUCKETS = (
    0.0, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
)


def _catalog(*specs: MetricSpec) -> dict[str, MetricSpec]:
    return {spec.name: spec for spec in specs}


#: Every metric the pipeline may emit. CI fails on names outside this.
CATALOG: dict[str, MetricSpec] = _catalog(
    # extraction-side counters (merged back from workers)
    MetricSpec("repro_documents_total", "counter",
               "documents annotated and extracted"),
    MetricSpec("repro_sentences_total", "counter",
               "sentences processed by the NLP stack"),
    MetricSpec("repro_mentions_total", "counter",
               "entity mentions linked by the annotator"),
    MetricSpec("repro_statements_total", "counter",
               "evidence statements extracted"),
    MetricSpec("repro_statements_positive_total", "counter",
               "positive-polarity statements"),
    MetricSpec("repro_statements_negative_total", "counter",
               "negative-polarity statements"),
    MetricSpec("repro_quarantined_documents_total", "counter",
               "documents quarantined as dead letters"),
    # extraction fast-path counters (see repro.nlp.prefilter)
    MetricSpec("repro_prefilter_sentences_total", "counter",
               "sentences screened by the extraction fast path"),
    MetricSpec("repro_prefilter_skipped_total", "counter",
               "sentences that skipped the full NLP stack"),
    MetricSpec("repro_annotation_memo_hits_total", "counter",
               "annotation memo hits (sentence seen before)"),
    MetricSpec("repro_annotation_memo_misses_total", "counter",
               "annotation memo misses (full annotation ran)"),
    MetricSpec("repro_annotation_memo_evictions_total", "counter",
               "annotation memo LRU evictions"),
    # executor counters
    MetricSpec("repro_shards_total", "counter",
               "non-empty shards mapped"),
    MetricSpec("repro_shard_retries_total", "counter",
               "shard attempts that were retried"),
    # interpretation counters
    MetricSpec("repro_em_fits_total", "counter",
               "property-type combinations fit with EM"),
    MetricSpec("repro_em_degraded_total", "counter",
               "combinations that fell back to majority vote"),
    MetricSpec("repro_combinations_skipped_total", "counter",
               "combinations below the occurrence threshold"),
    MetricSpec("repro_opinions_total", "counter",
               "opinions emitted into the table"),
    MetricSpec("repro_report_sections_total", "counter",
               "sections assembled by the reproduction report"),
    # gauges
    MetricSpec("repro_run_wall_seconds", "gauge",
               "wall-clock duration of the whole run"),
    MetricSpec("repro_kb_entities", "gauge",
               "entities in the knowledge base"),
    # histograms
    MetricSpec("repro_statements_per_document", "histogram",
               "evidence statements extracted per document",
               COUNT_BUCKETS),
    MetricSpec("repro_sentences_per_document", "histogram",
               "sentences per document", COUNT_BUCKETS),
    MetricSpec("repro_document_seconds", "histogram",
               "annotate+extract latency per document",
               LATENCY_BUCKETS),
    MetricSpec("repro_shard_seconds", "histogram",
               "end-to-end latency per shard attempt chain",
               LATENCY_BUCKETS),
    MetricSpec("repro_em_iterations", "histogram",
               "EM iterations per fitted combination", COUNT_BUCKETS),
    MetricSpec("repro_evidence_positive_magnitude", "histogram",
               "C+ magnitude per entity-property pair",
               MAGNITUDE_BUCKETS),
    MetricSpec("repro_evidence_negative_magnitude", "histogram",
               "C- magnitude per entity-property pair",
               MAGNITUDE_BUCKETS),
    # query-serving subsystem (repro serve)
    MetricSpec("repro_serve_requests_total", "counter",
               "HTTP requests handled by the query server"),
    MetricSpec("repro_serve_errors_total", "counter",
               "requests that ended in a 5xx response"),
    MetricSpec("repro_serve_rejected_total", "counter",
               "requests shed by admission control (503)"),
    MetricSpec("repro_serve_reloads_total", "counter",
               "opinion-table hot reloads (SIGHUP or /admin/reload)"),
    MetricSpec("repro_serve_cache_hits_total", "counter",
               "query-cache hits"),
    MetricSpec("repro_serve_cache_misses_total", "counter",
               "query-cache misses"),
    MetricSpec("repro_serve_cache_evictions_total", "counter",
               "query-cache entries evicted by the LRU bound"),
    MetricSpec("repro_serve_cache_invalidations_total", "counter",
               "query-cache entries dropped on table swap"),
    MetricSpec("repro_serve_request_seconds", "streamhist",
               "server-side latency per request (log-bucketed, "
               "with trace exemplars)"),
    MetricSpec("repro_serve_index_generation", "gauge",
               "generation of the live opinion index"),
    MetricSpec("repro_serve_index_opinions", "gauge",
               "opinions held by the live index"),
    MetricSpec("repro_serve_workers", "gauge",
               "serving worker processes sharing this listen "
               "address (1 unless --workers)"),
    MetricSpec("repro_serve_rate_limited_total", "counter",
               "requests rejected by per-client rate limiting (429)"),
    MetricSpec("repro_serve_deadline_exceeded_total", "counter",
               "requests abandoned at a deadline checkpoint (503)"),
    MetricSpec("repro_serve_reload_failures_total", "counter",
               "hot reloads rejected by artefact validation"),
    MetricSpec("repro_serve_quarantined_artefacts_total", "counter",
               "candidate artefacts quarantined after failing "
               "validation"),
    MetricSpec("repro_serve_rollbacks_total", "counter",
               "one-step rollbacks to the previous table generation"),
    MetricSpec("repro_serve_faults_injected_total", "counter",
               "faults fired by the serve-side chaos injector"),
    MetricSpec("repro_serve_health_state", "gauge",
               "serving health state (0 healthy, 1 degraded, "
               "2 draining)"),
    # SLO burn rates (see repro.obs.slo; published before each
    # /metrics render)
    MetricSpec("repro_serve_availability_burn_fast", "gauge",
               "availability error-budget burn rate, fast window"),
    MetricSpec("repro_serve_availability_burn_slow", "gauge",
               "availability error-budget burn rate, slow window"),
    MetricSpec("repro_serve_latency_burn_fast", "gauge",
               "latency error-budget burn rate, fast window"),
    MetricSpec("repro_serve_latency_burn_slow", "gauge",
               "latency error-budget burn rate, slow window"),
    MetricSpec("repro_serve_slo_state", "gauge",
               "worst SLO state (0 ok, 1 warn, 2 page)"),
    # Generation drift (see repro.obs.drift; published after every
    # reload/rollback against the snapshot it replaced)
    MetricSpec("repro_serve_generation_flips", "gauge",
               "answers whose dominant polarity flipped in the last "
               "snapshot swap"),
    MetricSpec("repro_serve_generation_flip_fraction", "gauge",
               "flipped fraction of answers common to both "
               "generations"),
    MetricSpec("repro_serve_generation_pairs_added", "gauge",
               "entity-property pairs present only in the new "
               "generation"),
    MetricSpec("repro_serve_generation_pairs_removed", "gauge",
               "entity-property pairs present only in the old "
               "generation"),
    MetricSpec("repro_serve_generation_entity_churn", "gauge",
               "entities present in exactly one of the two "
               "generations"),
    MetricSpec("repro_serve_generation_delta_max", "gauge",
               "largest absolute posterior change across common "
               "pairs in the last swap"),
    MetricSpec("repro_serve_drift_alarms_total", "counter",
               "snapshot swaps whose flip fraction exceeded the "
               "configured drift guard"),
    # Streaming ingestion (see repro.ingest; docs/ingestion.md)
    MetricSpec("repro_ingest_documents_total", "counter",
               "documents appended through the ingest subsystem"),
    MetricSpec("repro_ingest_batches_total", "counter",
               "ingest advances applied (journal batches folded in)"),
    MetricSpec("repro_ingest_statements_total", "counter",
               "evidence statements extracted by incremental "
               "ingestion"),
    MetricSpec("repro_ingest_dirty_combinations", "gauge",
               "property-type combinations refit by the last ingest "
               "advance"),
    MetricSpec("repro_ingest_journal_offset", "gauge",
               "highest journal offset folded into the served "
               "evidence"),
    MetricSpec("repro_ingest_refit_seconds", "histogram",
               "dirty-set EM refit latency per ingest advance",
               LATENCY_BUCKETS),
    MetricSpec("repro_ingest_freshness_seconds", "streamhist",
               "ingest-to-serveable latency per accepted batch "
               "(log-bucketed, with request exemplars)"),
)


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.10g}"


class MetricsRegistry:
    """Holds the run's instruments; every name checked against a catalogue.

    Updates are guarded by a reentrant lock so the registry can be
    shared across threads (the query server increments counters from
    its handler pool); the pipeline's single-threaded hot path pays
    one uncontended acquire per update.
    """

    def __init__(
        self, catalog: dict[str, MetricSpec] | None = None
    ) -> None:
        self._catalog = dict(CATALOG if catalog is None else catalog)
        self._lock = threading.RLock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> (per-edge counts + overflow slot, sum, count)
        self._histograms: dict[str, dict[str, Any]] = {}
        # name -> StreamingHistogram (log-bucketed, exemplar-bearing)
        self._streams: dict[str, StreamingHistogram] = {}

    # Locks do not pickle; a registry shipped to a worker process
    # rebuilds its own.
    def __getstate__(self) -> dict[str, Any]:
        with self._lock:
            state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def _spec(self, name: str, kind: str) -> MetricSpec:
        spec = self._catalog.get(name)
        if spec is None:
            raise MetricsError(
                f"undeclared metric {name!r}: add it to "
                "repro.obs.metrics.CATALOG first"
            )
        if spec.kind != kind:
            raise MetricsError(
                f"{name} is declared as a {spec.kind}, used as a {kind}"
            )
        return spec

    def inc(self, name: str, amount: float = 1) -> None:
        self._spec(name, "counter")
        if amount < 0:
            raise MetricsError(f"{name}: counters only go up")
        with self._lock:
            self._counters[name] = (
                self._counters.get(name, 0) + amount
            )

    def set_gauge(self, name: str, value: float) -> None:
        self._spec(name, "gauge")
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self, name: str, value: float, exemplar: str | None = None
    ) -> None:
        spec = self._catalog.get(name)
        if spec is not None and spec.kind == "streamhist":
            with self._lock:
                stream = self._streams.get(name)
                if stream is None:
                    stream = StreamingHistogram()
                    self._streams[name] = stream
                stream.observe(value, exemplar)
            return
        spec = self._spec(name, "histogram")
        if exemplar is not None:
            raise MetricsError(
                f"{name}: exemplars need a streamhist, "
                "not a fixed-bucket histogram"
            )
        with self._lock:
            state = self._histograms.get(name)
            if state is None:
                state = {
                    "counts": [0] * (len(spec.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                self._histograms[name] = state
            # le semantics: the first edge >= value owns the
            # observation; beyond the last edge lands in the +Inf
            # overflow slot.
            state["counts"][bisect_left(spec.buckets, value)] += 1
            state["sum"] += float(value)
            state["count"] += 1

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (sums counters and histograms;
        gauges take the other side's latest value)."""
        with self._lock:
            self._merge_locked(other)

    def _merge_locked(self, other: "MetricsRegistry") -> None:
        for name, value in other._counters.items():
            self._spec(name, "counter")
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in other._gauges.items():
            self._spec(name, "gauge")
            self._gauges[name] = value
        for name, theirs in other._histograms.items():
            self._spec(name, "histogram")
            state = self._histograms.get(name)
            if state is None:
                self._histograms[name] = {
                    "counts": list(theirs["counts"]),
                    "sum": theirs["sum"],
                    "count": theirs["count"],
                }
                continue
            state["counts"] = [
                a + b for a, b in zip(state["counts"], theirs["counts"])
            ]
            state["sum"] += theirs["sum"]
            state["count"] += theirs["count"]
        for name, theirs_stream in other._streams.items():
            self._spec(name, "streamhist")
            stream = self._streams.get(name)
            if stream is None:
                self._streams[name] = theirs_stream.copy()
            else:
                stream.merge(theirs_stream)

    def names(self) -> list[str]:
        """Names with recorded data, sorted."""
        with self._lock:
            return sorted(
                {
                    *self._counters,
                    *self._gauges,
                    *self._histograms,
                    *self._streams,
                }
            )

    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def stream_snapshot(self, name: str) -> StreamingHistogram:
        """A point-in-time copy of a streamhist (empty if unused)."""
        self._spec(name, "streamhist")
        with self._lock:
            stream = self._streams.get(name)
            if stream is None:
                return StreamingHistogram()
            return stream.copy()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def exposition(self) -> str:
        """Prometheus-style text exposition, deterministically ordered."""
        with self._lock:
            return self._exposition_locked()

    def _exposition_locked(self) -> str:
        lines: list[str] = []
        for name in self.names():
            spec = self._catalog[name]
            lines.append(f"# HELP {name} {spec.help}")
            # streamhist is histogram-shaped on the wire.
            exposed_kind = (
                "histogram" if spec.kind == "streamhist" else spec.kind
            )
            lines.append(f"# TYPE {name} {exposed_kind}")
            if spec.kind == "counter":
                lines.append(
                    f"{name} {_format_value(self._counters[name])}"
                )
            elif spec.kind == "gauge":
                lines.append(
                    f"{name} {_format_value(self._gauges[name])}"
                )
            elif spec.kind == "streamhist":
                stream = self._streams[name]
                cumulative = 0
                for edge, cumulative, exemplar in (
                    stream.cumulative_buckets()
                ):
                    line = (
                        f'{name}_bucket{{le="{_format_value(edge)}"}}'
                        f" {cumulative}"
                    )
                    if exemplar is not None:
                        trace_id, observed = exemplar
                        line += (
                            f' # {{trace_id="{trace_id}"}}'
                            f" {_format_value(observed)}"
                        )
                    lines.append(line)
                lines.append(
                    f'{name}_bucket{{le="+Inf"}} {stream.count}'
                )
                lines.append(
                    f"{name}_sum {_format_value(stream.sum)}"
                )
                lines.append(f"{name}_count {stream.count}")
            else:
                state = self._histograms[name]
                cumulative = 0
                for edge, count in zip(
                    spec.buckets, state["counts"]
                ):
                    cumulative += count
                    lines.append(
                        f'{name}_bucket{{le="{_format_value(edge)}"}}'
                        f" {cumulative}"
                    )
                cumulative += state["counts"][-1]
                lines.append(
                    f'{name}_bucket{{le="+Inf"}} {cumulative}'
                )
                lines.append(
                    f"{name}_sum {_format_value(state['sum'])}"
                )
                lines.append(f"{name}_count {state['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict[str, Any]:
        """JSON payload for ``--metrics-out`` (format-tagged)."""
        with self._lock:
            return self._to_dict_locked()

    def _to_dict_locked(self) -> dict[str, Any]:
        metrics: dict[str, Any] = {}
        for name in self.names():
            spec = self._catalog[name]
            if spec.kind == "counter":
                metrics[name] = {
                    "type": "counter",
                    "value": self._counters[name],
                }
            elif spec.kind == "gauge":
                metrics[name] = {
                    "type": "gauge",
                    "value": self._gauges[name],
                }
            elif spec.kind == "streamhist":
                metrics[name] = {
                    "type": "streamhist",
                    **self._streams[name].to_dict(),
                }
            else:
                state = self._histograms[name]
                metrics[name] = {
                    "type": "histogram",
                    "buckets": list(spec.buckets),
                    "counts": list(state["counts"]),
                    "sum": state["sum"],
                    "count": state["count"],
                }
        return {
            "format": "metrics",
            "version": FORMAT_VERSION,
            "metrics": metrics,
        }

    def write_json(
        self, path: str | Path, extra: dict[str, Any] | None = None
    ) -> Path:
        """Persist :meth:`to_dict` (plus optional extra sections)."""
        payload = self.to_dict()
        if extra:
            payload.update(extra)
        return _atomic_write_json(path, payload)


def validate_metrics_payload(
    payload: dict[str, Any], catalog: dict[str, MetricSpec] | None = None
) -> list[str]:
    """Check that every metric of a ``--metrics-out`` payload (as
    :func:`load_metrics_file` decodes it, or :meth:`MetricsRegistry.
    to_dict` builds it) is declared with the right kind. Returns
    violations."""
    catalog = CATALOG if catalog is None else catalog
    errors: list[str] = []
    for name, row in sorted(payload["metrics"].items()):
        spec = catalog.get(name)
        if spec is None:
            errors.append(f"undeclared metric name {name!r}")
            continue
        if row.get("type") != spec.kind:
            errors.append(
                f"{name}: declared {spec.kind}, "
                f"file says {row.get('type')!r}"
            )
    return errors


_NUMBER = (int, float)
#: The fields each metric type carries in a ``--metrics-out`` file.
_FIELDS = {"counter": {"value": _NUMBER}, "gauge": {"value": _NUMBER}}
_FIELDS["histogram"] = _FIELDS["streamhist"] = {
    "count": _NUMBER, "sum": _NUMBER, "buckets": list, "counts": list,
}


def metrics_from_dict(payload: dict[str, Any]) -> dict[str, Any]:
    """Decode a ``--metrics-out`` payload: ``metrics`` must map each
    name to an object carrying its type's fields; embedded EM
    convergence rows become records."""
    metrics = payload["metrics"]
    if not isinstance(metrics, dict) or not all(
        isinstance(row, dict) for row in metrics.values()
    ):
        raise FormatError("'metrics' must map each name to an object")
    for name, row in metrics.items():
        kind = row.get("type")
        for field, shape in _FIELDS.get(kind, {}).items():
            if not isinstance(row.get(field), shape):
                raise FormatError(
                    f"{kind} {name!r} lacks a well-formed {field!r}"
                )
    if "em_convergence" in payload:
        payload["em_convergence"] = [
            ConvergenceRecord.from_dict(row)
            for row in payload["em_convergence"]
        ]
    return payload


def load_metrics_file(path: str | Path) -> dict[str, Any]:
    return load(path, "metrics")

"""Observability subsystem: tracing, metrics, and EM telemetry.

Three pillars, all deterministic and dependency-free:

* :mod:`repro.obs.trace` — nested spans with a JSONL sink that survives
  the process-pool boundary (worker spans are exported, shipped back
  with shard results, and re-parented);
* :mod:`repro.obs.metrics` — a declared-name registry of counters,
  gauges, fixed-bucket histograms, and log-bucketed streaming
  histograms (:mod:`repro.obs.histogram`, exemplar-bearing) with
  Prometheus-style exposition and JSON export;
* :mod:`repro.obs.convergence` — per-combination EM fit trajectories
  (log-likelihood, ``pA``/``np+S``/``np−S``) with verdicts.

:mod:`repro.obs.manifest` stamps each run (config, git describe, wall
clock, health) and :mod:`repro.obs.stats` renders recorded traces for
``repro stats`` and ``--profile``. The serving side adds
:mod:`repro.obs.slo` (availability/latency SLOs with multi-window
burn rates) and :mod:`repro.obs.live` (the ``repro top`` console).
"""

from .convergence import (
    ConvergenceRecord,
    load_convergence,
    record_from_fit,
    records_from_result,
    records_to_payload,
    save_convergence,
)
from .drift import (
    DRIFT_FORMAT,
    DriftReport,
    PropertyDrift,
    compare_tables,
)
from .histogram import StreamingHistogram, WindowedHistogram
from .live import (
    parse_exposition,
    render_frame,
    run_top,
    validate_serve_observability,
)
from .manifest import (
    build_manifest,
    git_describe,
    manifest_path_for,
    read_manifest,
    write_manifest,
)
from .metrics import (
    CATALOG,
    MetricsError,
    MetricSpec,
    MetricsRegistry,
    load_metrics_file,
    validate_metrics_payload,
)
from .perf import (
    MemoryProbe,
    MemorySample,
    format_bytes,
    rss_peak_bytes,
)
from .slo import SLO_STATES, SloSpec, SloTracker
from .stats import render_convergence, render_metrics, render_trace
from .trace import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    TraceError,
    Tracer,
    read_trace,
    validate_spans,
    validate_trace,
)

__all__ = [
    "CATALOG",
    "ConvergenceRecord",
    "DRIFT_FORMAT",
    "DriftReport",
    "PropertyDrift",
    "compare_tables",
    "read_manifest",
    "MemoryProbe",
    "MemorySample",
    "MetricSpec",
    "MetricsError",
    "MetricsRegistry",
    "NULL_SPAN",
    "SLO_STATES",
    "SloSpec",
    "SloTracker",
    "StreamingHistogram",
    "TRACE_SCHEMA_VERSION",
    "TraceError",
    "Tracer",
    "WindowedHistogram",
    "build_manifest",
    "format_bytes",
    "git_describe",
    "load_convergence",
    "load_metrics_file",
    "manifest_path_for",
    "parse_exposition",
    "read_trace",
    "rss_peak_bytes",
    "record_from_fit",
    "records_from_result",
    "records_to_payload",
    "render_convergence",
    "render_frame",
    "render_metrics",
    "render_trace",
    "run_top",
    "save_convergence",
    "validate_metrics_payload",
    "validate_serve_observability",
    "validate_spans",
    "validate_trace",
    "write_manifest",
]

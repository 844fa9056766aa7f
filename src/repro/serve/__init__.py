"""Query-serving subsystem: index, cache, and concurrent HTTP API.

Mine once with ``repro mine``, then serve many low-latency subjective
queries: :class:`OpinionIndex` answers conjunctive/negated top-k queries
from pre-built posterior columns (bit-identical to the one-shot
:class:`~repro.core.query.QueryEngine`), :class:`QueryCache` absorbs
repeated queries, and :class:`OpinionService` puts both behind a JSON
HTTP API with admission control (per-client token buckets + bounded
queue), per-request deadlines, safe hot-reload with one-step
rollback, and a seeded chaos injector. The front end is the asyncio
event loop (:class:`AsyncReproServer` / :func:`serve_async`, with
``--workers N`` forking SO_REUSEPORT workers via
:mod:`repro.serve.workers`); :mod:`repro.serve.launch` assembles
``repro serve`` in both run modes.
Every request carries an ``X-Request-Id`` joining its access-log line
(:class:`AccessLog`), histogram exemplar, and trace span; SLO burn
rates surface in ``/healthz`` and ``/metrics``. See docs/serving.md,
docs/observability.md ("Serving observability"), and
docs/robustness.md ("Serving resilience").
"""

from .access_log import (
    ACCESS_LOG_FIELDS,
    AccessLog,
    read_access_log,
)
from .admission import (
    DEFAULT_REQUEST_DEADLINE,
    AdmissionDecision,
    AsyncAdmissionController,
    CircuitBreaker,
    ClientBuckets,
    Deadline,
    DeadlineExceeded,
    TokenBucket,
)
from .aio import AsyncReproServer, serve_async
from .cache import DEFAULT_MAX_ENTRIES, QueryCache
from .faults import (
    InjectedDisconnect,
    InjectedServeFault,
    ServeFaultInjector,
)
from .index import AGNOSTIC_PRIOR, OpinionIndex
from .schema import SERVE_SCHEMA_VERSION, error_response
from .server import (
    DEFAULT_MAX_INFLIGHT,
    HEALTH_STATES,
    OpinionService,
    ServeError,
    documents_from_payload,
    load_provenance_sidecar,
    new_request_id,
)
from .workers import WorkerRuntime, make_reuseport_socket, supervise

__all__ = [
    "ACCESS_LOG_FIELDS",
    "AGNOSTIC_PRIOR",
    "AccessLog",
    "AdmissionDecision",
    "AsyncAdmissionController",
    "AsyncReproServer",
    "CircuitBreaker",
    "ClientBuckets",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_REQUEST_DEADLINE",
    "Deadline",
    "DeadlineExceeded",
    "HEALTH_STATES",
    "InjectedDisconnect",
    "InjectedServeFault",
    "OpinionIndex",
    "OpinionService",
    "QueryCache",
    "SERVE_SCHEMA_VERSION",
    "ServeError",
    "ServeFaultInjector",
    "TokenBucket",
    "WorkerRuntime",
    "documents_from_payload",
    "error_response",
    "load_provenance_sidecar",
    "make_reuseport_socket",
    "new_request_id",
    "read_access_log",
    "serve_async",
    "supervise",
]

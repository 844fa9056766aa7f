"""Span-based tracing for the pipeline (run → stage → shard → document).

The paper reports per-stage wall times for its 5000-node run
(Section 7.1); a trace generalizes that report: every unit of work is
a *span* with a name, a kind, structured attributes, monotonic-clock
duration, and a parent — so a run can be reconstructed as a tree and
rendered as a timeline (``repro stats``).

Design constraints:

* **Process-pool safe.** Worker processes cannot append to the parent's
  tracer, so a worker builds its own :class:`Tracer`, exports its spans
  as plain dicts (picklable), ships them back with the shard result,
  and the parent :meth:`Tracer.adopt`\\ s them — assigning fresh span
  ids and re-parenting the worker's root spans under the parent span of
  the caller's choosing.
* **Near-zero cost when disabled.** ``Tracer(enabled=False).span(...)``
  returns :data:`NULL_SPAN` itself, a shared no-op context manager, so
  instrumented code pays one call and builds no generator.
* **Deterministic schema.** Spans serialize to JSONL with a leading
  header record (:data:`TRACE_SCHEMA_VERSION`), validated by
  :func:`validate_trace`.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import AbstractContextManager, contextmanager
from pathlib import Path
from typing import Any, Iterator

from ..core.errors import ReproError
from .perf import MemoryProbe, start_tracemalloc

#: Version stamp written into the JSONL header record.
TRACE_SCHEMA_VERSION = 1

#: Span kinds the schema admits (``validate_trace`` rejects others).
SPAN_KINDS = (
    "run",
    "stage",
    "shard",
    "document",
    "combination",
    "em_iteration",
    "section",
    "span",
)

#: Keys every span record must carry.
SPAN_FIELDS = (
    "span_id",
    "parent_id",
    "name",
    "kind",
    "start_unix",
    "duration",
    "attrs",
    "status",
)


class TraceError(ReproError):
    """A trace file is malformed or violates the span schema."""


class SpanHandle:
    """Mutable view of one in-flight span; lets the body attach attrs."""

    __slots__ = ("_record",)

    def __init__(self, record: dict[str, Any]) -> None:
        self._record = record

    @property
    def span_id(self) -> int:
        return self._record["span_id"]

    def set(self, key: str, value: Any) -> None:
        self._record["attrs"][key] = value


class _NullSpan:
    """Shared no-op span handed out by disabled tracers; it is its own
    context manager, so ``with NULL_SPAN as span`` binds it again."""

    __slots__ = ()
    span_id = -1

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def set(self, key: str, value: Any) -> None:
        pass


#: The singleton null span and context manager; also usable by modules
#: that duck-type the tracer and need a stand-in when no tracer is
#: configured.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects nested spans; one instance per process (or per shard).

    Spans are appended to an internal list when they *close* (children
    before parents); :meth:`write_jsonl` sorts by wall-clock start so
    the file reads chronologically.
    """

    def __init__(
        self,
        enabled: bool = True,
        profile_memory: bool = False,
        max_spans: int | None = None,
    ) -> None:
        self.enabled = enabled
        #: With ``profile_memory`` every span additionally carries
        #: ``rss_peak_bytes`` / ``tracemalloc_peak_bytes`` /
        #: ``tracemalloc_net_bytes`` attrs (``repro stats`` renders
        #: them as a memory column). Opt-in: tracemalloc tracing slows
        #: allocation-heavy code, so it is never on by default.
        self.profile_memory = profile_memory and enabled
        if self.profile_memory:
            start_tracemalloc()
        #: Retention cap for long-running processes (the serving
        #: path adopts one span per sampled request forever): when
        #: set, only the most recent ``max_spans`` closed spans are
        #: kept. ``None`` (the default) keeps everything — batch
        #: pipeline runs want the complete tree.
        if max_spans is not None and max_spans < 1:
            raise ValueError(
                f"max_spans must be >= 1, got {max_spans}"
            )
        self.max_spans = max_spans
        self._spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _enforce_cap(self) -> None:
        # Trim in blocks (10% hysteresis) so a full buffer does not
        # pay an O(n) front-delete on every append.
        cap = self.max_spans
        if cap is not None and len(self._spans) > cap * 1.1:
            del self._spans[: len(self._spans) - cap]

    def __len__(self) -> int:
        return len(self._spans)

    def span(
        self, name: str, kind: str = "span", **attrs: Any
    ) -> AbstractContextManager[SpanHandle | _NullSpan]:
        """Open a span; nests under the innermost open span.

        A body that raises marks the span ``status="error"`` with the
        exception type in ``error`` and re-raises. A disabled tracer
        returns :data:`NULL_SPAN`.
        """
        if not self.enabled:
            return NULL_SPAN
        return self._span(name, kind, attrs)

    @contextmanager
    def _span(
        self, name: str, kind: str, attrs: dict[str, Any]
    ) -> Iterator[SpanHandle]:
        span_id = self._next_id
        self._next_id += 1
        record: dict[str, Any] = {
            "span_id": span_id,
            "parent_id": self._stack[-1] if self._stack else None,
            "name": name,
            "kind": kind,
            "start_unix": time.time(),
            "duration": 0.0,
            "attrs": dict(attrs),
            "status": "ok",
        }
        self._stack.append(span_id)
        probe = (
            MemoryProbe().start() if self.profile_memory else None
        )
        started = time.perf_counter()
        try:
            yield SpanHandle(record)
        except BaseException as error:
            record["status"] = "error"
            record["error"] = type(error).__name__
            raise
        finally:
            record["duration"] = time.perf_counter() - started
            if probe is not None:
                sample = probe.stop()
                record["attrs"]["rss_peak_bytes"] = (
                    sample.peak_rss_bytes
                )
                if sample.tracemalloc_peak_bytes is not None:
                    record["attrs"]["tracemalloc_peak_bytes"] = (
                        sample.tracemalloc_peak_bytes
                    )
                    record["attrs"]["tracemalloc_net_bytes"] = (
                        sample.tracemalloc_net_bytes
                    )
            self._stack.pop()
            self._spans.append(record)
            self._enforce_cap()

    # ------------------------------------------------------------------
    # Cross-process plumbing
    # ------------------------------------------------------------------
    def export_spans(self) -> list[dict[str, Any]]:
        """Completed spans as plain dicts (picklable, ids process-local)."""
        return [dict(span) for span in self._spans]

    def adopt(
        self,
        spans: list[dict[str, Any]],
        parent_id: int | None = None,
    ) -> None:
        """Graft spans exported by another tracer into this one.

        Every span gets a fresh id from this tracer's sequence; spans
        whose parent is not in the batch (the worker's roots) are
        re-parented under ``parent_id``. This is how worker-process
        spans rejoin the run tree instead of being silently lost.
        """
        if not spans:
            return
        mapping: dict[int, int] = {}
        for record in spans:
            mapping[record["span_id"]] = self._next_id
            self._next_id += 1
        for record in spans:
            adopted = dict(record)
            adopted["attrs"] = dict(record.get("attrs", {}))
            adopted["span_id"] = mapping[record["span_id"]]
            old_parent = record.get("parent_id")
            adopted["parent_id"] = mapping.get(old_parent, parent_id)
            self._spans.append(adopted)
        self._enforce_cap()

    def last_span_id(
        self, name: str, kind: str | None = None
    ) -> int | None:
        """Id of the most recently closed span with this name (and kind)."""
        for record in reversed(self._spans):
            if record["name"] == name and (
                kind is None or record["kind"] == kind
            ):
                return record["span_id"]
        return None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def write_jsonl(self, path: str | Path) -> Path:
        """Persist the trace: one header line, then one span per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "trace_schema": TRACE_SCHEMA_VERSION,
            "n_spans": len(self._spans),
        }
        lines = [json.dumps(header, sort_keys=True)]
        for record in sorted(
            self._spans, key=lambda r: (r["start_unix"], r["span_id"])
        ):
            lines.append(json.dumps(record, sort_keys=True))
        path.write_text("\n".join(lines) + "\n")
        return path


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load a JSONL trace, returning its span records (header dropped)."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as error:
        raise TraceError(f"{path}: unreadable trace: {error}") from error
    if not lines:
        raise TraceError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        raise TraceError(f"{path}: malformed header: {error}") from error
    if (
        not isinstance(header, dict)
        or header.get("trace_schema") != TRACE_SCHEMA_VERSION
    ):
        raise TraceError(
            f"{path}: missing or unsupported trace_schema header"
        )
    spans = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            span = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceError(
                f"{path}:{number}: malformed span: {error}"
            ) from error
        if not isinstance(span, dict):
            raise TraceError(
                f"{path}:{number}: span is not a JSON object"
            )
        spans.append(span)
    return spans


def validate_spans(spans: list[dict[str, Any]]) -> list[str]:
    """Schema-check span records; returns human-readable violations."""
    errors: list[str] = []
    seen: set[int] = set()
    for index, record in enumerate(spans):
        where = f"span[{index}]"
        if not isinstance(record, dict):
            errors.append(f"{where}: not an object")
            continue
        missing = [key for key in SPAN_FIELDS if key not in record]
        if missing:
            errors.append(f"{where}: missing fields {missing}")
            continue
        if record["kind"] not in SPAN_KINDS:
            errors.append(
                f"{where}: unknown kind {record['kind']!r}"
            )
        if (
            not isinstance(record["duration"], (int, float))
            or isinstance(record["duration"], bool)
            or not math.isfinite(record["duration"])
            or record["duration"] < 0
        ):
            errors.append(
                f"{where}: negative, NaN, or non-numeric duration"
            )
        if record["status"] not in ("ok", "error"):
            errors.append(
                f"{where}: status must be ok|error, "
                f"got {record['status']!r}"
            )
        if record["span_id"] in seen:
            errors.append(
                f"{where}: duplicate span_id {record['span_id']}"
            )
        seen.add(record["span_id"])
    ids = {
        record["span_id"]
        for record in spans
        if isinstance(record, dict) and "span_id" in record
    }
    for index, record in enumerate(spans):
        if not isinstance(record, dict):
            continue
        parent = record.get("parent_id")
        if parent is not None and parent not in ids:
            errors.append(
                f"span[{index}]: dangling parent_id {parent}"
            )
    return errors


def validate_trace(path: str | Path) -> list[str]:
    """Read and schema-check a trace file (raises on unreadable files)."""
    return validate_spans(read_trace(path))

"""Fault-tolerance primitives for the sharded pipeline runtime.

The paper's extraction stage ran over a 40 TB snapshot on up to 5000
nodes — a regime where malformed documents, flaky workers, and
stragglers are the norm. This module provides the building blocks the
single-machine executor uses to reproduce that operational posture:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *seeded* jitter, so retry schedules are deterministic in tests;
* :class:`DeadLetter` — the quarantine record for one document whose
  annotation/extraction raised;
* :class:`ShardEvidence` — one shard's mapped output (evidence counter
  plus its dead letters), also the unit of checkpointing;
* :class:`PipelineHealth` — the run-level health ledger (retries,
  quarantined documents, failed shards, degraded combinations)
  surfaced by ``PipelineReport.summary()`` and the CLI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.errors import ReproError
from ..extraction.provenance import ProvenanceLedger
from ..extraction.statement import EvidenceCounter

#: How much quarantined document text is kept for post-mortems.
DEAD_LETTER_TEXT_LIMIT = 120


class ShardTimeoutError(ReproError):
    """A shard attempt exceeded its wall-clock budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry configuration with deterministic backoff.

    Parameters
    ----------
    max_attempts:
        Total attempts per shard (1 means no retries).
    base_delay / multiplier / max_delay:
        Exponential backoff: attempt ``k`` waits
        ``min(base_delay * multiplier**(k-1), max_delay)`` seconds
        before the next attempt.
    jitter:
        Fractional jitter: the wait is scaled by a factor drawn
        uniformly from ``[1 - jitter, 1 + jitter]``.
    seed:
        Seeds the jitter RNG (together with the shard key and attempt
        number), so schedules are reproducible run to run.
    retryable:
        Exception classes worth retrying; anything else fails the
        shard immediately.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.25
    seed: int = 0
    retryable: tuple[type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    def delay(self, attempt: int, key: int = 0) -> float:
        """Backoff before the attempt *after* ``attempt`` on shard ``key``."""
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1),
            self.max_delay,
        )
        if raw <= 0.0 or self.jitter <= 0.0:
            return raw
        rng = random.Random(
            self.seed * 1_000_003 + key * 9_176 + attempt
        )
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


#: Single-attempt policy: the pre-resilience fail-fast behaviour.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)

#: Default for the pipeline runner: three attempts, short backoff.
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=3, base_delay=0.02)


# ---------------------------------------------------------------------------
# Quarantine records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DeadLetter:
    """One quarantined document: what failed, where, and a text sample."""

    doc_id: str
    stage: str
    error: str
    text: str = ""

    @classmethod
    def from_exception(
        cls, doc_id: str, stage: str, error: BaseException, text: str = ""
    ) -> "DeadLetter":
        return cls(
            doc_id=doc_id,
            stage=stage,
            error=f"{type(error).__name__}: {error}",
            text=text[:DEAD_LETTER_TEXT_LIMIT],
        )

    def to_dict(self) -> dict[str, str]:
        return {
            "doc_id": self.doc_id,
            "stage": self.stage,
            "error": self.error,
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, str]) -> "DeadLetter":
        return cls(
            doc_id=str(payload["doc_id"]),
            stage=str(payload["stage"]),
            error=str(payload["error"]),
            text=str(payload.get("text", "")),
        )


@dataclass(frozen=True, slots=True)
class ShardFailure:
    """One shard that exhausted its retries and was skipped."""

    shard_id: int
    attempts: int
    error: str


@dataclass(frozen=True, slots=True)
class WorkerTelemetry:
    """Observability payload a worker ships back with its shard result.

    Everything here is primitives so it pickles across the process-pool
    boundary — this is how counters bumped *inside* a worker process
    reach the parent's ledger instead of dying with the worker:

    * ``counters`` — folded into the parent's ``map`` stage metrics;
    * ``observations`` — ``(histogram_name, value)`` pairs replayed
      into the parent's metrics registry;
    * ``spans`` — exported tracer spans, re-parented under the parent's
      ``map`` stage span by ``Tracer.adopt``;
    * ``prefilter`` — the worker annotator's fast-path accounting
      (sentences seen/skipped, memo hits/misses/evictions), folded into
      the health ledger and the prefilter metric counters.
    """

    counters: dict[str, int] = field(default_factory=dict)
    observations: tuple[tuple[str, float], ...] = ()
    spans: tuple[dict, ...] = ()
    prefilter: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ShardEvidence:
    """One shard's mapped output; the unit of checkpointing.

    ``telemetry`` rides along only for freshly-mapped shards; shards
    resumed from a checkpoint carry ``None`` (their worker's telemetry
    belonged to the run that wrote the checkpoint).

    ``provenance`` is the shard's evidence-lineage ledger
    (:class:`~repro.extraction.provenance.ProvenanceLedger`); ``None``
    when capture is off or the checkpoint predates the sidecar format.
    """

    shard_id: int
    counter: EvidenceCounter
    dead_letters: tuple[DeadLetter, ...] = ()
    telemetry: WorkerTelemetry | None = None
    provenance: ProvenanceLedger | None = None


# ---------------------------------------------------------------------------
# Run-level health ledger
# ---------------------------------------------------------------------------

@dataclass
class PipelineHealth:
    """Resilience accounting for one pipeline run.

    A run is *healthy* when nothing was retried, quarantined, skipped,
    or degraded — i.e. the fail-fast runtime would have produced the
    same result.
    """

    retries: int = 0
    quarantined: list[DeadLetter] = field(default_factory=list)
    failed_shards: list[ShardFailure] = field(default_factory=list)
    empty_shards: int = 0
    resumed_shards: int = 0
    checkpointed_shards: int = 0
    corrupt_checkpoints: int = 0
    degraded_combinations: list[str] = field(default_factory=list)
    prefilter_sentences: int = 0
    prefilter_skipped: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_evictions: int = 0

    @property
    def healthy(self) -> bool:
        return not (
            self.retries
            or self.quarantined
            or self.failed_shards
            or self.corrupt_checkpoints
            or self.degraded_combinations
        )

    def record_quarantine(self, letters) -> None:
        self.quarantined.extend(letters)

    def record_prefilter(self, counters: dict[str, int]) -> None:
        """Fold one worker's fast-path accounting into the ledger."""
        self.prefilter_sentences += counters.get("sentences", 0)
        self.prefilter_skipped += counters.get("skipped", 0)
        self.memo_hits += counters.get("memo_hits", 0)
        self.memo_misses += counters.get("memo_misses", 0)
        self.memo_evictions += counters.get("memo_evictions", 0)

    @property
    def prefilter_skip_rate(self) -> float:
        if not self.prefilter_sentences:
            return 0.0
        return self.prefilter_skipped / self.prefilter_sentences

    def report(self) -> str:
        """The health section of ``PipelineReport.summary()``."""
        status = "ok" if self.healthy else "degraded"
        lines = [
            f"health: {status}  retries={self.retries}"
            f"  quarantined={len(self.quarantined)}"
            f"  failed_shards={len(self.failed_shards)}"
            f"  degraded_combinations={len(self.degraded_combinations)}"
        ]
        if self.resumed_shards or self.checkpointed_shards:
            lines.append(
                f"  checkpoints: resumed={self.resumed_shards}"
                f" written={self.checkpointed_shards}"
                f" corrupt={self.corrupt_checkpoints}"
            )
        if self.prefilter_sentences:
            lines.append(
                f"  fast path: sentences={self.prefilter_sentences}"
                f" skipped={self.prefilter_skipped}"
                f" ({self.prefilter_skip_rate:.1%})"
                f" memo_hits={self.memo_hits}"
                f" memo_misses={self.memo_misses}"
                f" evictions={self.memo_evictions}"
            )
        for failure in self.failed_shards:
            lines.append(
                f"  failed shard {failure.shard_id} after "
                f"{failure.attempts} attempt(s): {failure.error}"
            )
        for letter in self.quarantined[:5]:
            lines.append(
                f"  quarantined {letter.doc_id} [{letter.stage}]: "
                f"{letter.error}"
            )
        if len(self.quarantined) > 5:
            lines.append(
                f"  ... and {len(self.quarantined) - 5} more "
                "quarantined documents"
            )
        for combo in self.degraded_combinations:
            lines.append(f"  degraded combination: {combo}")
        return "\n".join(lines)

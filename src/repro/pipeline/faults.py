"""Deterministic fault injection for the pipeline runtime.

Proving the resilience layer works requires failures on demand. The
:class:`FaultInjector` plugs into :class:`~repro.pipeline.runner.
SurveyorPipeline` and produces the failure modes a real cluster sees,
deterministically:

* **fail-every-Nth-doc** — roughly one in N documents raises during
  annotation (selection is a seeded hash of the doc id, so the failing
  set is identical run to run and independent of execution order);
* **poison-shard** — a shard that fails on every attempt, exercising
  retry exhaustion and shard skipping;
* **slow-shard** — a shard that sleeps before mapping, exercising
  per-shard timeouts;
* **flaky-then-succeed** — a shard that fails its first attempt(s) and
  then succeeds, exercising the retry path end to end.

The flaky decision is a pure function of the *attempt number* the
executor threads through the task (``on_shard_start(shard_id,
attempt)``), so both executors — including ``process``, whose workers
hold pickled copies of this injector and share no memory — behave
identically.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

from ..core.errors import ExtractionError


class InjectedFault(ExtractionError):
    """Raised by the fault injector; quarantined like organic failures."""


@dataclass
class FaultInjector:
    """Seeded, deterministic failure source for resilience tests."""

    seed: int = 0
    fail_every_nth: int = 0
    poison_shards: tuple[int, ...] = ()
    slow_shards: tuple[int, ...] = ()
    slow_seconds: float = 0.05
    flaky_shards: tuple[int, ...] = ()
    flaky_failures: int = 1

    # ------------------------------------------------------------------
    # Selection rules (pure, so tests can predict the injected set)
    # ------------------------------------------------------------------
    def should_fail_document(self, doc_id: str) -> bool:
        """Whether the every-Nth mode fails this document."""
        if self.fail_every_nth <= 0:
            return False
        digest = zlib.crc32(f"{self.seed}:{doc_id}".encode())
        return digest % self.fail_every_nth == 0

    # ------------------------------------------------------------------
    # Hooks called by the pipeline mapper
    # ------------------------------------------------------------------
    def on_shard_start(self, shard_id: int, attempt: int) -> None:
        """Shard-level faults; called once per shard attempt.

        ``attempt`` is the 1-based attempt number the executor threads
        through the task, so the flaky decision is stateless
        (``attempt <= flaky_failures`` fails) and holds across process
        boundaries.
        """
        if shard_id in self.slow_shards and self.slow_seconds > 0:
            time.sleep(self.slow_seconds)
        if shard_id in self.poison_shards:
            raise InjectedFault(f"poisoned shard {shard_id}")
        if shard_id in self.flaky_shards and (
            attempt <= self.flaky_failures
        ):
            raise InjectedFault(
                f"flaky shard {shard_id}, attempt {attempt}"
            )

    def on_document(self, doc_id: str) -> None:
        """Document-level faults; called once per document."""
        if self.should_fail_document(doc_id):
            raise InjectedFault(f"injected document fault: {doc_id}")

"""A minimal sharded map/combine/reduce executor.

The paper's extraction ran as a distributed job over a 40 TB snapshot
on up to 5000 nodes. This executor reproduces the *dataflow* at
single-machine scale: the corpus is split into shards, a mapper runs
per shard producing partial results, per-shard combiners pre-aggregate,
and a reducer folds the partials into the final result. Workers can be
simulated sequentially (deterministic, default) or run on a process
pool.

The executor is also where the resilience layer lives: a shard attempt
that raises is retried under the job's :class:`RetryPolicy`, a shard
that exceeds ``shard_timeout`` on the process executor is treated as
failed (and retried), and — with ``skip_failed_shards`` — a shard that
exhausts its attempts is dropped from the run instead of aborting it,
with the skip recorded in the metrics' health ledger. Both executors
go through one dispatch loop; they differ only in how many attempts
it keeps in flight.

The abstraction is deliberately generic — the extraction stage maps
documents to statements and reduces evidence counters (each shard's
:class:`~repro.pipeline.resilience.ShardEvidence` also carries its
worker's telemetry and evidence-lineage ledger back through the same
channel, so provenance needs no side path through the executor), but
tests also exercise word-count-style jobs.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Generic, TypeVar

from .counters import PipelineMetrics
from .resilience import (
    NO_RETRY,
    PipelineHealth,
    RetryPolicy,
    ShardFailure,
    ShardTimeoutError,
)

Item = TypeVar("Item")
Partial = TypeVar("Partial")
Result = TypeVar("Result")

#: Accepted executor names.
EXECUTORS = ("serial", "process")


class _InlineExecutor:
    """The serial executor: ``submit`` runs the call on the spot and
    returns its already finished :class:`Future`."""

    def __enter__(self) -> "_InlineExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as error:
            future.set_exception(error)
        return future


@dataclass
class MapReduceJob(Generic[Item, Partial, Result]):
    """One sharded job.

    Parameters
    ----------
    mapper:
        Called as ``mapper(shard, attempt)`` with the 1-based attempt
        number; turns one shard (an iterable of items) into a partial
        result. Only the executor knows the attempt count, and on the
        ``process`` executor the workers share no memory with the
        coordinator, so anything attempt-dependent (e.g. flaky fault
        injection) receives the number through the task itself.
    reducer:
        Folds a sequence of partial results into the final result.
    n_workers:
        Simulated cluster width; with the process executor, also the
        pool size and the number of attempts in flight. Must be at
        least 1.
    executor:
        ``serial`` (default, deterministic and fastest for small
        inputs: shard *k*, retries included, finishes before shard
        *k+1* starts) or ``process`` (true parallelism; the mapper,
        the shards, and the partial results must be picklable, and
        pool startup costs a few hundred milliseconds — worth it only
        for large corpora). A job with at most one non-empty shard
        runs serially either way.
    retry_policy:
        Per-shard retry configuration; ``None`` keeps the historical
        fail-fast single attempt.
    shard_timeout:
        Wall-clock budget per shard attempt, in seconds, counted from
        the attempt's dispatch to a worker. Process executor only: a
        timed-out attempt counts as a retryable
        :class:`ShardTimeoutError`, but it is abandoned, not killed —
        it keeps its worker until it returns, and ``run`` still waits
        for it before returning. The serial executor cannot preempt a
        running mapper and ignores the setting.
    skip_failed_shards:
        When true, a shard that fails after all attempts is recorded
        in the health ledger and dropped; the job continues on the
        surviving shards. When false (default), the last error is
        re-raised.
    shard_observer:
        Optional callback ``(shard_id, seconds, attempts)`` fired when
        a shard succeeds, with the wall-clock latency of its whole
        attempt chain (first dispatch to success, retries and backoff
        included). The pipeline runner wires this into the metrics
        registry's per-shard latency histogram; it lives here because
        only the executor can see the full chain — a worker timing
        itself would miss queueing, retries, and timeouts.

    Empty shards are never dispatched to the mapper: they contribute
    nothing to the reduction and, on a pool, would only pay scheduling
    overhead. The skip is counted in the health ledger.
    """

    mapper: Callable[[Sequence[Item], int], Partial]
    reducer: Callable[[Sequence[Partial]], Result]
    n_workers: int = 4
    executor: str = "serial"
    retry_policy: RetryPolicy | None = None
    shard_timeout: float | None = None
    skip_failed_shards: bool = False
    shard_observer: Callable[[int, float, int], None] | None = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.n_workers < 1:
            raise ValueError(
                f"n_workers must be at least 1, got {self.n_workers}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive, got {self.shard_timeout}"
            )

    def run(
        self,
        shards: Sequence[Sequence[Item]],
        metrics: PipelineMetrics | None = None,
    ) -> Result:
        """Execute the job over pre-built shards."""
        metrics = metrics or PipelineMetrics()
        with metrics.timed("map") as stage:
            partials = self._map_all(shards, metrics.health)
            stage.bump("shards", len(shards))
            stage.bump(
                "items", sum(len(shard) for shard in shards)
            )
        with metrics.timed("reduce") as stage:
            result = self.reducer(partials)
            stage.bump("partials", len(partials))
        return result

    # ------------------------------------------------------------------
    # Mapping with retries, timeouts, and shard quarantine
    # ------------------------------------------------------------------
    def _map_all(
        self,
        shards: Sequence[Sequence[Item]],
        health: PipelineHealth,
    ) -> list[Partial]:
        live = [
            (index, shard)
            for index, shard in enumerate(shards)
            if len(shard) > 0
        ]
        health.empty_shards += len(shards) - len(live)
        policy = self.retry_policy or NO_RETRY
        inline = self.executor == "serial" or len(live) <= 1
        width = 1 if inline else self.n_workers
        timeout = None if inline else self.shard_timeout
        # Attempts waiting for a slot, in dispatch order; a retry goes
        # to the front, so serially a shard's whole chain runs before
        # the next shard's first attempt.
        queue = deque((index, shard, 1) for index, shard in live)
        running: dict[
            Future, tuple[int, Sequence[Item], int, float]
        ] = {}
        # Timed-out attempts still hold their worker until they return.
        abandoned: set[Future] = set()
        chain_started: dict[int, float] = {}
        results: dict[int, Partial] = {}
        pool = (
            _InlineExecutor()
            if inline
            else ProcessPoolExecutor(max_workers=self.n_workers)
        )
        with pool:
            while queue or running:
                while queue and len(running) + len(abandoned) < width:
                    index, shard, attempt = queue.popleft()
                    chain_started.setdefault(
                        index, time.perf_counter()
                    )
                    future = pool.submit(self.mapper, shard, attempt)
                    deadline = (
                        time.monotonic() + timeout
                        if timeout is not None
                        else float("inf")
                    )
                    running[future] = (index, shard, attempt, deadline)
                wait_for = None
                if timeout is not None and running:
                    earliest = min(
                        entry[3] for entry in running.values()
                    )
                    wait_for = max(0.0, earliest - time.monotonic())
                done, _ = wait(
                    [*running, *abandoned],
                    timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )
                abandoned -= done
                now = time.monotonic()
                finished = sorted(
                    (
                        future
                        for future, entry in running.items()
                        if future in done or entry[3] <= now
                    ),
                    key=lambda future: running[future][0],
                )
                for future in finished:
                    index, shard, attempt, _ = running.pop(future)
                    if future not in done:
                        abandoned.add(future)
                        error: BaseException = ShardTimeoutError(
                            f"shard attempt exceeded {timeout}s"
                        )
                    elif (error := future.exception()) is None:
                        results[index] = future.result()
                        if self.shard_observer is not None:
                            self.shard_observer(
                                index,
                                time.perf_counter()
                                - chain_started[index],
                                attempt,
                            )
                        continue
                    if attempt < policy.max_attempts and (
                        policy.is_retryable(error)
                    ):
                        health.retries += 1
                        pause = policy.delay(attempt, index)
                        if pause > 0:
                            time.sleep(pause)
                        queue.appendleft((index, shard, attempt + 1))
                    elif self.skip_failed_shards:
                        health.failed_shards.append(
                            ShardFailure(
                                shard_id=index,
                                attempts=attempt,
                                error=(
                                    f"{type(error).__name__}: {error}"
                                ),
                            )
                        )
                    else:
                        raise error
        return [results[index] for index in sorted(results)]


def shard_items(
    items: Iterable[Item], n_shards: int
) -> list[list[Item]]:
    """Round-robin sharding of an arbitrary iterable.

    May produce empty shards when there are fewer items than shards;
    :class:`MapReduceJob` skips those instead of dispatching them.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be positive")
    shards: list[list[Item]] = [[] for _ in range(n_shards)]
    for index, item in enumerate(items):
        shards[index % n_shards].append(item)
    return shards

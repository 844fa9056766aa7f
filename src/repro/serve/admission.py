"""Admission control for the query server: budgets before work.

The serving workload is "answer millions of low-latency lookups" — the
failure mode that matters is *overload*, and the defence is refusing
work early and explicitly instead of queueing without bound. This
module holds the primitives the HTTP layer composes (see
docs/robustness.md, "Serving resilience"):

* :class:`Deadline` — a per-request wall-clock budget checked at
  query-evaluation checkpoints; an expired budget raises
  :class:`DeadlineExceeded`, which the server maps to 503 with a
  ``deadline_exceeded`` error body. A request that cannot finish in
  time is shed mid-flight rather than allowed to pile up behind the
  next one.
* :class:`TokenBucket` — the classic refill-over-time limiter, one per
  client, so a single chatty client exhausts *its* budget (429) before
  it can exhaust the server's (503).
* :class:`AsyncAdmissionController` — per-client buckets
  (LRU-bounded, so an adversarial client-id stream cannot grow
  memory), a bounded wait queue in front of the in-flight slots, and
  the ``draining`` latch used by graceful shutdown. Every rejection is
  a typed :class:`AdmissionDecision` carrying the HTTP status, error
  code, and ``Retry-After`` hint the response should surface. It
  lives on the event loop, so it uses plain counters and a deque of
  waiter futures and the hot path takes **no locks at all**.
* :class:`CircuitBreaker` — consecutive-failure breaker for the
  storage/reload path: once reloads keep failing, further attempts
  fail fast for a cooldown instead of hammering a broken artefact
  store, and the server keeps answering from its last good snapshot.

Everything takes an injectable monotonic ``clock`` so tests are
deterministic; nothing here imports the HTTP layer.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

from ..core.errors import ReproError

#: Default per-request wall-clock budget (seconds).
DEFAULT_REQUEST_DEADLINE = 0.25
#: Requests allowed to wait for an in-flight slot before shedding.
DEFAULT_QUEUE_DEPTH = 16
#: How long one queued request may wait for a slot (seconds).
DEFAULT_QUEUE_TIMEOUT = 0.05
#: Default per-client burst allowance (tokens).
DEFAULT_CLIENT_BURST = 20.0
#: Distinct client buckets kept before the LRU evicts the coldest.
DEFAULT_MAX_CLIENTS = 1024


class DeadlineExceeded(ReproError):
    """A request ran past its wall-clock budget (becomes a 503)."""


class Deadline:
    """One request's wall-clock budget.

    Created at admission, threaded through query evaluation, and
    checked at *checkpoints* — the evaluation loop is cooperative, so
    enforcement happens at the points where abandoning the request is
    safe and cheap.
    """

    __slots__ = ("budget", "_expires", "_clock")

    def __init__(
        self, budget_seconds: float, clock=time.monotonic
    ) -> None:
        if budget_seconds <= 0:
            raise ValueError(
                f"deadline budget must be positive, got {budget_seconds}"
            )
        self.budget = float(budget_seconds)
        self._clock = clock
        self._expires = clock() + self.budget

    def remaining(self) -> float:
        """Seconds left; negative once the budget is spent."""
        return self._expires - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def checkpoint(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            suffix = f" (at {where})" if where else ""
            raise DeadlineExceeded(
                f"request deadline of {self.budget * 1000:.0f} ms "
                f"exceeded{suffix}"
            )


class TokenBucket:
    """Refill-over-time rate limiter (not internally locked; the
    :class:`AsyncAdmissionController` touches it from one thread)."""

    __slots__ = ("rate", "burst", "_tokens", "_stamp", "_clock")

    def __init__(
        self, rate: float, burst: float, clock=time.monotonic
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be at least 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = self.burst
        self._clock = clock
        self._stamp = clock()

    def _refill(self, now: float) -> None:
        self._tokens = min(
            self.burst, self._tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now

    def try_take(self, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available; False means over the limit."""
        self._refill(self._clock())
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available again."""
        self._refill(self._clock())
        deficit = tokens - self._tokens
        return max(0.0, deficit / self.rate)


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """The outcome of one admission attempt.

    Truthy iff the request was admitted; a rejection carries the HTTP
    status (429 per-client, 503 global/draining), the stable error
    code for the response envelope, and a ``Retry-After`` hint.
    """

    admitted: bool
    status: int = 200
    code: str = "admitted"
    message: str = ""
    retry_after: float | None = None

    def __bool__(self) -> bool:
        return self.admitted


ADMITTED = AdmissionDecision(admitted=True)


def _draining_decision() -> AdmissionDecision:
    return AdmissionDecision(
        admitted=False,
        status=503,
        code="draining",
        message="server is draining; connection will not be "
        "served",
    )


def _overloaded_decision() -> AdmissionDecision:
    return AdmissionDecision(
        admitted=False,
        status=503,
        code="overloaded",
        message="server is at its in-flight request "
        "limit; retry shortly",
        retry_after=1.0,
    )


def _rate_limited_decision(
    client_id: str, retry_after: float
) -> AdmissionDecision:
    return AdmissionDecision(
        admitted=False,
        status=429,
        code="rate_limited",
        message=f"client {client_id!r} is over its rate "
        "limit; slow down",
        retry_after=retry_after,
    )


class ClientBuckets:
    """LRU-bounded per-client :class:`TokenBucket` map.

    Not internally locked: the admission controller calls it from the
    single event-loop thread.
    """

    __slots__ = ("rate", "burst", "max_clients", "_clock", "_buckets")

    def __init__(
        self,
        rate: float,
        burst: float,
        max_clients: int,
        clock=time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.max_clients = int(max_clients)
        self._clock = clock
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    def __len__(self) -> int:
        return len(self._buckets)

    def check(self, client_id: str) -> float | None:
        """None = allowed; else the client's Retry-After in seconds.

        Touching a client refreshes it in the LRU; past
        ``max_clients`` the coldest bucket is evicted, so an
        adversarial client-id stream cannot grow memory (an evicted
        idle client simply starts over with a full burst).
        """
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, self._clock)
            self._buckets[client_id] = bucket
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client_id)
        if bucket.try_take():
            return None
        return bucket.retry_after()


class CircuitBreaker:
    """Consecutive-failure breaker with a cooldown and half-open probe.

    ``closed`` lets everything through; ``failure_threshold``
    consecutive failures trip it ``open``, where :meth:`allow` fails
    fast until ``cooldown_seconds`` elapse; the first call after the
    cooldown is the ``half_open`` probe — its success closes the
    breaker, its failure re-opens it for another cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                "failure_threshold must be at least 1, "
                f"got {failure_threshold}"
            )
        if cooldown_seconds <= 0:
            raise ValueError(
                f"cooldown must be positive, got {cooldown_seconds}"
            )
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether the protected operation may run right now."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if (
                    self._clock() - self._opened_at
                    >= self.cooldown_seconds
                ):
                    self._state = "half_open"
                    return True
                return False
            return True  # half_open: the probe is in flight

    def retry_after(self) -> float:
        """Seconds until the next half-open probe is allowed."""
        with self._lock:
            if self._state != "open":
                return 0.0
            return max(
                0.0,
                self.cooldown_seconds
                - (self._clock() - self._opened_at),
            )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if (
                self._state == "half_open"
                or self._failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()

    def reset(self) -> None:
        """Operator override (rollback closes the breaker)."""
        self.record_success()


class AsyncAdmissionController:
    """Event-loop-native admission: budgets before work, zero locks.

    Over-limit clients are rejected with 429 before they can starve
    everyone else, a short bounded queue absorbs micro-bursts, anything
    beyond it is shed with 503, and :meth:`begin_drain` flips the
    controller into the draining state used by graceful shutdown (new
    work rejected, :meth:`wait_idle_async` waits for in-flight work to
    finish). Every touch happens on the one loop thread, so slots are
    plain integer accounting plus a deque of waiter futures;
    ``release`` hands a freed slot directly to the oldest live waiter
    (FIFO, no wakeup storm).

    Protocol: call :meth:`poll` first. A decision settles the request
    immediately; ``None`` means "the queue has room — ``await``
    :meth:`wait_for_slot`" (which resolves to a decision within
    ``queue_timeout``). Pair every admitted decision with
    :meth:`release`.
    """

    def __init__(
        self,
        max_inflight: int = 32,
        *,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        queue_timeout: float = DEFAULT_QUEUE_TIMEOUT,
        client_rate: float = 0.0,
        client_burst: float = DEFAULT_CLIENT_BURST,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        clock=time.monotonic,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be at least 1, got {max_inflight}"
            )
        if queue_depth < 0:
            raise ValueError(
                f"queue_depth must be non-negative, got {queue_depth}"
            )
        if queue_timeout < 0:
            raise ValueError(
                f"queue_timeout must be non-negative, got {queue_timeout}"
            )
        if client_rate < 0:
            raise ValueError(
                f"client_rate must be non-negative, got {client_rate}"
            )
        if max_clients < 1:
            raise ValueError(
                f"max_clients must be at least 1, got {max_clients}"
            )
        self.max_inflight = int(max_inflight)
        self.queue_depth = int(queue_depth)
        self.queue_timeout = float(queue_timeout)
        self.client_rate = float(client_rate)
        self.client_burst = float(client_burst)
        self.max_clients = int(max_clients)
        self._clock = clock
        self._buckets = ClientBuckets(
            client_rate or 1.0, client_burst, max_clients, clock
        )
        self._available = self.max_inflight
        self._waiters: deque[asyncio.Future] = deque()
        self._inflight = 0
        self._draining = False
        self._idle_event: asyncio.Event | None = None
        self.admitted_total = 0
        self.rate_limited_total = 0
        self.shed_total = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def poll(self, client_id: str | None = None) -> AdmissionDecision | None:
        """One lock-free admission attempt.

        Returns a decision (truthy = admitted, pair with
        :meth:`release`), or ``None`` when the request should wait for
        a slot via :meth:`wait_for_slot`.
        """
        if self._draining:
            return _draining_decision()
        if self.client_rate > 0 and client_id:
            retry_after = self._buckets.check(client_id)
            if retry_after is not None:
                self.rate_limited_total += 1
                return _rate_limited_decision(client_id, retry_after)
        if self._available > 0:
            self._available -= 1
            self._inflight += 1
            self.admitted_total += 1
            return ADMITTED
        if (
            self.queue_timeout <= 0
            or len(self._waiters) >= self.queue_depth
        ):
            self.shed_total += 1
            return _overloaded_decision()
        return None

    async def wait_for_slot(self) -> AdmissionDecision:
        """Wait (bounded by ``queue_timeout``) for a freed slot.

        Resolves to ``ADMITTED`` when :meth:`release` hands this
        waiter a slot in time, else the ``overloaded`` 503 that
        :meth:`poll` sheds with when the queue is full.
        """
        fut = asyncio.get_running_loop().create_future()
        self._waiters.append(fut)
        try:
            await asyncio.wait_for(fut, self.queue_timeout)
        except asyncio.TimeoutError:
            self._discard(fut)
            self.shed_total += 1
            return _overloaded_decision()
        except asyncio.CancelledError:
            self._discard(fut)
            raise
        if self._draining:
            # Lost the race with begin_drain(): give the slot back.
            self._return_slot()
            return _draining_decision()
        self._inflight += 1
        self.admitted_total += 1
        return ADMITTED

    def _discard(self, fut: asyncio.Future) -> None:
        try:
            self._waiters.remove(fut)
        except ValueError:
            # Already granted by release(); the abandoned grant's slot
            # goes back into circulation.
            if fut.done() and not fut.cancelled():
                self._return_slot()

    def _return_slot(self) -> None:
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                fut.set_result(True)
                return
        self._available += 1

    def release(self) -> None:
        self._inflight -= 1
        self._return_slot()
        if self._inflight <= 0 and self._idle_event is not None:
            self._idle_event.set()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        self._draining = True
        if self._inflight <= 0 and self._idle_event is not None:
            self._idle_event.set()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    async def wait_idle_async(
        self, timeout: float | None = None
    ) -> bool:
        """Wait until no request is in flight; False on timeout."""
        if self._inflight <= 0:
            return True
        if self._idle_event is None:
            self._idle_event = asyncio.Event()
        try:
            await asyncio.wait_for(
                self._idle_event.wait(), timeout
            )
        except asyncio.TimeoutError:
            return False
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float | int | bool]:
        """Snapshot for ``/healthz``."""
        return {
            "max_inflight": self.max_inflight,
            "inflight": self._inflight,
            "waiting": len(self._waiters),
            "queue_depth": self.queue_depth,
            "client_rate": self.client_rate,
            "client_burst": self.client_burst,
            "clients_tracked": len(self._buckets),
            "admitted": self.admitted_total,
            "rate_limited": self.rate_limited_total,
            "shed": self.shed_total,
            "draining": self._draining,
        }

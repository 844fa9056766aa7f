"""Deterministic fake-clock tests for admission token buckets.

The per-client rate-limit maths lives in
:class:`repro.serve.ClientBuckets`; these tests drive it directly and
through :class:`AsyncAdmissionController`: burst drain, steady-state
refill, Retry-After hints, and LRU eviction at ``max_clients``. The
controller's waiter-queue handoff (poll -> wait_for_slot -> release)
gets its own section.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import (
    AsyncAdmissionController,
    ClientBuckets,
    TokenBucket,
)


class FakeClock:
    """Injectable monotonic clock advanced by hand."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert all(bucket.try_take() for _ in range(3))
        assert not bucket.try_take()

    def test_retry_after_is_deficit_over_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.try_take()
        # One token short at 2 tokens/s => available in 0.5 s.
        assert bucket.retry_after() == pytest.approx(0.5)

    def test_steady_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=2.0, clock=clock)
        assert bucket.try_take(2.0)
        assert not bucket.try_take()
        clock.advance(0.25)  # refills exactly one token
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.try_take(2.0)
        assert not bucket.try_take()

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


# ---------------------------------------------------------------------------
# ClientBuckets LRU
# ---------------------------------------------------------------------------

class TestClientBuckets:
    def test_eviction_resets_the_coldest_client(self):
        clock = FakeClock()
        buckets = ClientBuckets(
            rate=1.0, burst=1.0, max_clients=2, clock=clock
        )
        assert buckets.check("a") is None
        assert buckets.check("b") is None
        assert buckets.check("a") is not None  # burst spent
        # "c" evicts the coldest tracked client ("b": "a" was touched
        # more recently), and the map never exceeds max_clients.
        assert buckets.check("c") is None
        assert len(buckets) == 2
        # The evicted client starts over with a full burst...
        assert buckets.check("b") is None
        # ...while the still-tracked "c" remembers its spent burst.
        assert buckets.check("c") is not None

    def test_touch_refreshes_lru_position(self):
        clock = FakeClock()
        buckets = ClientBuckets(
            rate=100.0, burst=5.0, max_clients=2, clock=clock
        )
        buckets.check("a")
        buckets.check("b")
        buckets.check("a")  # refresh: "b" is now the coldest
        buckets.check("c")
        clock.advance(1.0)
        # "a" survived the eviction with history intact; a full-burst
        # re-check of "b" proves it was the one evicted (fresh bucket).
        assert len(buckets) == 2


# ---------------------------------------------------------------------------
# Controller rate limiting
# ---------------------------------------------------------------------------

class TestControllerRateLimiting:
    def test_burst_drain_then_429(self):
        clock = FakeClock()
        controller = AsyncAdmissionController(
            max_inflight=64, client_rate=1.0, client_burst=3.0,
            clock=clock,
        )
        for _ in range(3):
            decision = controller.poll("alice")
            assert decision
            controller.release()
        decision = controller.poll("alice")
        assert not decision
        assert decision.status == 429
        assert decision.code == "rate_limited"
        assert "alice" in decision.message
        assert decision.retry_after == pytest.approx(1.0)
        assert controller.rate_limited_total == 1

    def test_steady_state_refill_readmits(self):
        clock = FakeClock()
        controller = AsyncAdmissionController(
            max_inflight=64, client_rate=2.0, client_burst=1.0,
            clock=clock,
        )
        assert controller.poll("bob")
        controller.release()
        rejected = controller.poll("bob")
        assert rejected.status == 429
        clock.advance(rejected.retry_after)
        assert controller.poll("bob")
        controller.release()

    def test_rate_limit_is_per_client(self):
        clock = FakeClock()
        controller = AsyncAdmissionController(
            max_inflight=64, client_rate=1.0, client_burst=1.0,
            clock=clock,
        )
        assert controller.poll("alice")
        controller.release()
        assert controller.poll("alice").status == 429
        # A different client still has its own full burst.
        assert controller.poll("carol")
        controller.release()

    def test_lru_eviction_at_max_clients(self):
        clock = FakeClock()
        controller = AsyncAdmissionController(
            max_inflight=64, client_rate=1.0, client_burst=1.0,
            max_clients=2, clock=clock,
        )
        for client in ("a", "b"):
            assert controller.poll(client)
            controller.release()
        # "c" evicts "a" (the coldest); the evicted client returns
        # with a fresh burst instead of its spent one.
        assert controller.poll("c")
        controller.release()
        assert controller.stats()["clients_tracked"] == 2
        assert controller.poll("a")
        controller.release()

    def test_draining_rejects_with_503(self):
        controller = AsyncAdmissionController(max_inflight=4)
        controller.begin_drain()
        decision = controller.poll("any")
        assert decision.status == 503
        assert decision.code == "draining"


# ---------------------------------------------------------------------------
# Async waiter-queue handoff
# ---------------------------------------------------------------------------

class TestAsyncQueueHandoff:
    def test_poll_returns_none_when_queue_has_room(self):
        controller = AsyncAdmissionController(
            max_inflight=1, queue_depth=2, queue_timeout=5.0
        )
        assert controller.poll()  # takes the only slot
        assert controller.poll() is None  # must wait

    def test_release_hands_slot_to_oldest_waiter(self):
        async def scenario():
            controller = AsyncAdmissionController(
                max_inflight=1, queue_depth=4, queue_timeout=5.0
            )
            assert controller.poll()
            order = []

            async def waiter(tag):
                decision = await controller.wait_for_slot()
                assert decision
                order.append(tag)

            first = asyncio.ensure_future(waiter("first"))
            await asyncio.sleep(0)
            second = asyncio.ensure_future(waiter("second"))
            await asyncio.sleep(0)
            controller.release()  # -> first
            await asyncio.sleep(0)
            controller.release()  # -> second
            await asyncio.gather(first, second)
            assert order == ["first", "second"]
            assert controller.inflight == 1  # second never released
            controller.release()
            assert controller.inflight == 0

        asyncio.run(scenario())

    def test_wait_timeout_sheds_with_503(self):
        async def scenario():
            controller = AsyncAdmissionController(
                max_inflight=1, queue_depth=4, queue_timeout=0.01
            )
            assert controller.poll()
            decision = await controller.wait_for_slot()
            assert decision.status == 503
            assert decision.code == "overloaded"
            assert controller.shed_total == 1
            # The timed-out waiter left the queue; release restores
            # the free slot for the next poll.
            controller.release()
            assert controller.poll()

        asyncio.run(scenario())

    def test_full_queue_sheds_immediately(self):
        async def scenario():
            controller = AsyncAdmissionController(
                max_inflight=1, queue_depth=1, queue_timeout=5.0
            )
            assert controller.poll()
            assert controller.poll() is None
            task = asyncio.ensure_future(controller.wait_for_slot())
            await asyncio.sleep(0)
            # The queue's single seat is occupied: poll sheds now.
            decision = controller.poll()
            assert decision is not None and decision.status == 503
            controller.release()
            assert await task
            controller.release()

        asyncio.run(scenario())

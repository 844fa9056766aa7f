"""Tests for the serving resilience layer (PR 6).

Covers the admission primitives (deadlines, token buckets, breaker,
bounded queue), safe hot-reload with quarantine and rollback, the
degraded-mode health state machine, the seeded serve-side chaos
injector, the shared error envelope (golden-file pinned, CLI/HTTP
byte-identical), and graceful drain on SIGTERM.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import EXIT_USAGE, main
from repro.core import (
    EvidenceCounts,
    Opinion,
    OpinionTable,
    PropertyTypeKey,
    SubjectiveProperty,
)
from repro.obs import MetricsRegistry
from repro.serve import (
    AsyncAdmissionController,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    OpinionIndex,
    OpinionService,
    ServeError,
    ServeFaultInjector,
    TokenBucket,
    error_response,
)
from repro.serve.faults import InjectedDisconnect
from repro.storage import save

from .conftest import AsyncHarness

GOLDEN = Path(__file__).parent / "data" / "serve_error.golden"

CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
BIG = PropertyTypeKey(SubjectiveProperty("big"), "animal")


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def demo_table() -> OpinionTable:
    def op(entity, key, p):
        return Opinion(entity, key, p, EvidenceCounts(2, 1))

    return OpinionTable(
        [
            op("/animal/kitten", CUTE, 0.97),
            op("/animal/shark", CUTE, 0.05),
            op("/animal/pony", CUTE, 0.80),
            op("/animal/shark", BIG, 0.90),
        ]
    )


def uniform_table(p: float, n: int = 8) -> OpinionTable:
    """Homogeneous posteriors: any mixed response is a torn read."""
    return OpinionTable(
        [
            Opinion(f"/animal/e{i}", key, p, EvidenceCounts(1, 0))
            for key in (CUTE, BIG)
            for i in range(n)
        ]
    )


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(0.25, clock=clock)
        assert deadline.remaining() == pytest.approx(0.25)
        assert not deadline.expired
        deadline.checkpoint()  # within budget: no raise
        clock.advance(0.3)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded) as info:
            deadline.checkpoint("scoring")
        assert "250 ms" in str(info.value)
        assert "scoring" in str(info.value)

    def test_index_answer_honours_deadline(self):
        index = OpinionIndex(demo_table())
        clock = FakeClock()
        live = Deadline(1.0, clock=clock)
        assert index.answer("cute animals", deadline=live)
        expired = Deadline(0.01, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded):
            index.answer("cute animals", deadline=expired)


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 5)
        with pytest.raises(ValueError):
            TokenBucket(1.0, 0)

    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(3)] == [True] * 3
        assert not bucket.try_take()
        # Refill at 2 tokens/s: half a second buys one token.
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        clock.advance(100.0)
        assert [bucket.try_take() for _ in range(3)] == [
            True, True, False,
        ]


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_threshold_and_half_open_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_seconds=10.0, clock=clock
        )
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(10.0)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half_open"
        breaker.record_failure()  # probe failed: open again
        assert breaker.state == "open"
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"


# ---------------------------------------------------------------------------
# AsyncAdmissionController
# ---------------------------------------------------------------------------

class TestAdmissionController:
    def test_slots_then_queue_then_shed(self):
        controller = AsyncAdmissionController(
            2, queue_depth=0, queue_timeout=0.0
        )
        first, second = controller.poll(), controller.poll()
        assert first and second
        shed = controller.poll()
        assert not shed
        assert shed.status == 503
        assert shed.code == "overloaded"
        assert shed.retry_after == 1.0
        controller.release()
        assert controller.poll()
        controller.release()
        controller.release()
        assert controller.inflight == 0

    def test_queue_absorbs_a_released_slot(self):
        async def scenario():
            controller = AsyncAdmissionController(
                1, queue_depth=1, queue_timeout=5.0
            )
            assert controller.poll()
            assert controller.poll() is None  # room in the queue
            waiter = asyncio.ensure_future(controller.wait_for_slot())
            await asyncio.sleep(0)  # let the waiter park
            controller.release()
            return await waiter

        assert asyncio.run(scenario()).admitted

    def test_per_client_rate_limit_and_isolation(self):
        clock = FakeClock()
        controller = AsyncAdmissionController(
            8, client_rate=1.0, client_burst=2, clock=clock
        )
        assert controller.poll("alice")
        assert controller.poll("alice")
        limited = controller.poll("alice")
        assert not limited
        assert limited.status == 429
        assert limited.code == "rate_limited"
        assert limited.retry_after == pytest.approx(1.0)
        # A different client has its own bucket.
        assert controller.poll("bob")
        clock.advance(1.0)
        assert controller.poll("alice")
        assert controller.rate_limited_total == 1

    def test_client_buckets_are_lru_bounded(self):
        controller = AsyncAdmissionController(
            64, client_rate=1.0, max_clients=4
        )
        for i in range(10):
            decision = controller.poll(f"client-{i}")
            assert decision
            controller.release()
        assert controller.stats()["clients_tracked"] == 4

    def test_draining_rejects_and_wait_idle(self):
        async def scenario():
            controller = AsyncAdmissionController(4)
            assert controller.poll()
            controller.begin_drain()
            refused = controller.poll()
            assert not refused
            assert refused.status == 503
            assert refused.code == "draining"
            assert not await controller.wait_idle_async(timeout=0.05)
            asyncio.get_running_loop().call_later(
                0.01, controller.release
            )
            assert await controller.wait_idle_async(timeout=5)
            assert controller.inflight == 0

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# ServeFaultInjector
# ---------------------------------------------------------------------------

class TestServeFaultInjector:
    def test_corrupt_fires_on_exact_period(self):
        injector = ServeFaultInjector(seed=0, corrupt_every_nth=2)
        fired = [
            injector.reload_fault() is not None for _ in range(6)
        ]
        assert fired == [True, False] * 3
        assert injector.fired_counts()["corrupt"] == 3

    def test_seed_shifts_the_phase(self):
        injector = ServeFaultInjector(seed=1, corrupt_every_nth=2)
        fired = [
            injector.reload_fault() is not None for _ in range(4)
        ]
        assert fired == [False, True] * 2

    def test_slow_query_sleeps_and_reports(self):
        injector = ServeFaultInjector(
            seed=0, slow_every_nth=2, slow_seconds=0.01
        )
        assert injector.on_query("a") is True
        assert injector.on_query("b") is False

    def test_disconnect_raises(self):
        injector = ServeFaultInjector(seed=0, disconnect_every_nth=1)
        with pytest.raises(InjectedDisconnect):
            injector.on_response("/query")

    def test_parse_spec(self):
        injector = ServeFaultInjector.parse(
            "slow_every=5,slow_ms=300,corrupt_every=2,"
            "corrupt_mode=truncate,disconnect_every=50,seed=7"
        )
        assert injector.seed == 7
        assert injector.slow_every_nth == 5
        assert injector.slow_seconds == pytest.approx(0.3)
        assert injector.corrupt_every_nth == 2
        assert injector.corrupt_mode == "truncate"
        assert injector.disconnect_every_nth == 50

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ServeFaultInjector.parse("slow_every")
        with pytest.raises(ValueError):
            ServeFaultInjector.parse("unknown_key=1")
        with pytest.raises(ValueError):
            ServeFaultInjector.parse("slow_every=abc")
        with pytest.raises(ValueError):
            ServeFaultInjector.parse("corrupt_mode=nonsense")


# ---------------------------------------------------------------------------
# Safe hot-reload: validation, quarantine, breaker, rollback
# ---------------------------------------------------------------------------

class TestSafeReload:
    def make_service(self, tmp_path, **kwargs):
        path = save(demo_table(), tmp_path / "op.json")
        registry = MetricsRegistry()
        service = OpinionService(
            demo_table(),
            source_path=path,
            registry=registry,
            **kwargs,
        )
        return service, path, registry

    def test_corrupt_artefact_is_quarantined(
        self, tmp_path, capsys
    ):
        service, path, registry = self.make_service(tmp_path)
        path.write_text('{"format": "opinions", "version"')  # truncated
        with pytest.raises(ServeError) as info:
            service.reload()
        assert info.value.status == 500
        assert info.value.code == "reload_failed"
        # Old generation still serves; the service is degraded.
        assert service.index.generation == 1
        assert service.degraded
        assert service.health_state() == "degraded"
        response, _ = service.ask("cute animals")
        assert response["degraded_mode"] is True
        health = service.healthz()
        assert health["status"] == "degraded"
        assert health["quarantine"][0]["source"] == str(path)
        assert registry.counter_value(
            "repro_serve_reload_failures_total"
        ) == 1
        assert registry.counter_value(
            "repro_serve_quarantined_artefacts_total"
        ) == 1
        # One structured log line on stderr.
        line = capsys.readouterr().err.strip().splitlines()[-1]
        event = json.loads(line)
        assert event["event"] == "serve.reload_failed"
        assert event["source"] == str(path)

    def test_empty_table_fails_validation(self, tmp_path):
        service, path, _ = self.make_service(tmp_path)
        save(OpinionTable(), path)
        with pytest.raises(ServeError, match="no opinions"):
            service.reload()
        assert service.degraded

    def test_recovery_clears_degraded(self, tmp_path):
        service, path, _ = self.make_service(tmp_path)
        path.write_text("garbage")
        with pytest.raises(ServeError):
            service.reload()
        assert service.degraded
        save(demo_table(), path)
        summary = service.reload()
        assert summary["status"] == "reloaded"
        assert summary["generation"] == 2
        assert not service.degraded
        response, _ = service.ask("cute animals")
        assert response["degraded_mode"] is False

    def test_breaker_opens_after_repeated_failures(self, tmp_path):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_seconds=30.0, clock=clock
        )
        service, path, _ = self.make_service(
            tmp_path, reload_breaker=breaker
        )
        path.write_text("garbage")
        for _ in range(2):
            with pytest.raises(ServeError):
                service.reload()
        assert breaker.state == "open"
        with pytest.raises(ServeError) as info:
            service.reload()
        assert info.value.status == 503
        assert info.value.code == "breaker_open"
        assert info.value.retry_after == pytest.approx(30.0)
        # After the cooldown the half-open probe gets through and a
        # repaired artefact closes the breaker.
        clock.advance(30.0)
        save(demo_table(), path)
        assert service.reload()["status"] == "reloaded"
        assert breaker.state == "closed"

    def test_rollback_returns_to_previous_generation(self, tmp_path):
        service, path, registry = self.make_service(tmp_path)
        bigger = demo_table()
        bigger.add(
            Opinion("/animal/mouse", CUTE, 0.9, EvidenceCounts(3, 0))
        )
        save(bigger, path)
        assert service.reload()["opinions"] == 5
        summary = service.rollback()
        assert summary["status"] == "rolled_back"
        # A rollback is a swap too: the generation moves FORWARD to a
        # new number holding the previous table's contents.
        assert summary["generation"] == 3
        assert summary["opinions"] == 4
        assert service.index.n_opinions == 4
        assert registry.counter_value(
            "repro_serve_rollbacks_total"
        ) == 1
        # One step only: a second rollback has nothing to return to.
        with pytest.raises(ServeError) as info:
            service.rollback()
        assert info.value.status == 409
        assert info.value.code == "rollback_unavailable"

    def test_rollback_clears_degraded_without_previous(
        self, tmp_path
    ):
        service, path, _ = self.make_service(tmp_path)
        path.write_text("garbage")
        with pytest.raises(ServeError):
            service.reload()
        assert service.degraded
        summary = service.rollback()
        assert summary["status"] == "cleared"
        assert not service.degraded
        assert service.health_state() == "healthy"

    def test_swap_keeps_rollback_candidate(self, tmp_path):
        service, _, _ = self.make_service(tmp_path)
        service.swap(uniform_table(0.9))
        assert service.healthz()["rollback_available"] is True
        service.rollback()
        assert service.index.n_opinions == 4


# ---------------------------------------------------------------------------
# Cache: stale put after a swap must not resurrect old generations
# ---------------------------------------------------------------------------

class TestCacheStalePutGuard:
    def test_put_from_older_generation_is_dropped(self):
        from repro.serve import QueryCache

        cache = QueryCache(16)
        cache.put((1, "ask", "cute", 10), {"generation": 1})
        cache.purge_generations(2)
        # A request that raced the swap finishes late and stores its
        # old-generation answer; the cache must refuse it.
        cache.put((1, "ask", "cute", 10), {"generation": 1})
        assert cache.get((1, "ask", "cute", 10)) is None
        cache.put((2, "ask", "cute", 10), {"generation": 2})
        assert cache.get((2, "ask", "cute", 10)) == {"generation": 2}


# ---------------------------------------------------------------------------
# HTTP surface: envelopes, deadlines, rate limits, rollback route
# ---------------------------------------------------------------------------

def get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return (
                response.status,
                dict(response.headers),
                response.read(),
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def post(url, payload=None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload or {}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


ENVELOPE_KEYS = {
    "format", "version", "code", "error", "retry_after", "degraded",
    "request_id",
}


class TestHTTPResilience:
    def test_error_envelope_shape_everywhere(self, tmp_path):
        path = save(demo_table(), tmp_path / "op.json")
        service = OpinionService(demo_table(), source_path=path)
        with AsyncHarness(service) as harness:
            base = harness.url
            cases = [
                get(f"{base}/query?q=%21%21"),           # 400
                get(f"{base}/nope"),                      # 404
                post(f"{base}/admin/rollback"),           # 409
            ]
            for result in cases:
                status, *rest = result
                body = rest[-1]
                payload = (
                    json.loads(body)
                    if isinstance(body, bytes)
                    else body
                )
                assert status in (400, 404, 409)
                assert payload["format"] == "serve_error"
                assert set(payload) == ENVELOPE_KEYS
                # HTTP-side envelopes always carry the real id.
                assert payload["request_id"]

    def test_deadline_exceeded_is_503_with_retry_after(
        self, tmp_path
    ):
        injector = ServeFaultInjector(
            seed=0, slow_every_nth=1, slow_seconds=0.2
        )
        service = OpinionService(
            demo_table(),
            request_deadline=0.05,
            fault_injector=injector,
        )
        with AsyncHarness(service) as harness:
            base = harness.url
            status, headers, body = get(
                f"{base}/query?q=cute+animals"
            )
            assert status == 503
            payload = json.loads(body)
            assert payload["code"] == "deadline_exceeded"
            assert headers["Retry-After"] == "1"
            assert service.registry.counter_value(
                "repro_serve_deadline_exceeded_total"
            ) == 1

    def test_per_client_429_with_client_header(self, tmp_path):
        service = OpinionService(
            demo_table(), client_rate=0.001, client_burst=2
        )
        with AsyncHarness(service) as harness:
            base = harness.url
            url = f"{base}/query?q=cute+animals"
            noisy = {"X-Client-Id": "noisy"}
            assert get(url, noisy)[0] == 200
            assert get(url, noisy)[0] == 200
            status, headers, body = get(url, noisy)
            assert status == 429
            payload = json.loads(body)
            assert payload["code"] == "rate_limited"
            assert "Retry-After" in headers
            # Another client is unaffected.
            assert get(url, {"X-Client-Id": "quiet"})[0] == 200
            assert service.registry.counter_value(
                "repro_serve_rate_limited_total"
            ) == 1

    def test_reload_rollback_cycle_over_http(self, tmp_path):
        path = save(demo_table(), tmp_path / "op.json")
        injector = ServeFaultInjector(seed=0, corrupt_every_nth=2)
        service = OpinionService(
            demo_table(), source_path=path, fault_injector=injector
        )
        with AsyncHarness(service) as harness:
            base = harness.url
            # Ordinal 0 fires: the reload is sabotaged.
            status, payload = post(f"{base}/admin/reload")
            assert status == 500
            assert payload["code"] == "reload_failed"
            assert json.loads(
                get(f"{base}/healthz")[2]
            )["status"] == "degraded"
            status, body = get(
                f"{base}/query?q=cute+animals"
            )[0], get(f"{base}/query?q=cute+animals")[2]
            assert status == 200
            assert json.loads(body)["degraded_mode"] is True
            # Rollback (here: clearing the degraded flag) recovers.
            status, payload = post(f"{base}/admin/rollback")
            assert status == 200
            assert json.loads(
                get(f"{base}/healthz")[2]
            )["status"] == "healthy"
            # Ordinal 1 does not fire: a clean reload succeeds.
            status, payload = post(f"{base}/admin/reload")
            assert status == 200
            assert payload["generation"] == 2

    def test_disconnect_fault_is_not_an_error_5xx(self, tmp_path):
        injector = ServeFaultInjector(
            seed=0, disconnect_every_nth=1
        )
        service = OpinionService(
            demo_table(), fault_injector=injector
        )
        with AsyncHarness(service) as harness:
            base = harness.url
            with pytest.raises(
                (http.client.HTTPException, OSError)
            ):
                get(f"{base}/query?q=cute+animals")
            assert service.registry.counter_value(
                "repro_serve_errors_total"
            ) == 0
            assert service.registry.counter_value(
                "repro_serve_faults_injected_total"
            ) == 1


# ---------------------------------------------------------------------------
# Golden file: the error envelope is schema-stable and CLI == HTTP
# ---------------------------------------------------------------------------

class TestErrorEnvelopeGolden:
    BAD_QUERY = "!!"
    MESSAGE = (
        "cannot parse query: query needs at least one property and "
        "a type noun"
    )

    def test_envelope_matches_golden(self):
        rendered = json.dumps(
            error_response("bad_request", self.MESSAGE),
            sort_keys=True,
        )
        assert rendered == GOLDEN.read_text().strip()

    def test_cli_json_error_matches_golden(self, tmp_path, capsys):
        path = save(demo_table(), tmp_path / "op.json")
        rc = main(
            ["ask", str(path), self.BAD_QUERY, "--format", "json"]
        )
        assert rc == EXIT_USAGE
        assert (
            capsys.readouterr().out.strip()
            == GOLDEN.read_text().strip()
        )

    def test_http_400_matches_golden(self, tmp_path):
        """The HTTP envelope is the golden envelope plus the echoed
        request id — normalising the id back to null must restore the
        golden bytes exactly."""
        service = OpinionService(demo_table())
        with AsyncHarness(service) as harness:
            base = harness.url
            status, headers, body = get(f"{base}/query?q=%21%21")
            assert status == 400
            payload = json.loads(body)
            assert payload["request_id"] == headers["X-Request-Id"]
            payload["request_id"] = None
            assert (
                json.dumps(payload, sort_keys=True)
                == GOLDEN.read_text().strip()
            )


# ---------------------------------------------------------------------------
# Chaos: reload/query races with alternating good/corrupt reloads
# ---------------------------------------------------------------------------

class TestReloadChaos:
    def test_responses_stay_consistent_under_corrupt_reloads(
        self, tmp_path, capsys
    ):
        """Satellite: hammer queries while reloads alternate good and
        corrupt (seeded, exact alternation). Invariants: every
        response is internally consistent (homogeneous posteriors —
        no half-swapped index), its generation maps to exactly the
        table published under that generation, and at the end the
        degraded flag holds iff the LAST reload failed."""
        path = save(uniform_table(0.9), tmp_path / "op.json")
        # Period 3 on purpose: with the table content alternating per
        # round (0.9 / 0.1) and faults firing every third reload, the
        # SUCCESSFUL reloads carry both posteriors — the generations
        # really change content under the readers' feet.
        injector = ServeFaultInjector(
            seed=0, corrupt_every_nth=3, corrupt_mode="truncate"
        )
        service = OpinionService(
            uniform_table(0.9),
            source_path=path,
            fault_injector=injector,
            reload_breaker=CircuitBreaker(
                failure_threshold=1_000_000
            ),
        )
        # The fault sequence is seeded and exact, so the expected
        # posterior per generation is computable up front — no
        # publication race between the reloader recording a
        # generation and a reader observing it.
        rounds = [
            (0.9 if i % 2 == 0 else 0.1, i % 3 == 0)
            for i in range(40)
        ]
        expected_by_generation = {1: 0.9}
        generation = 1
        for p, fails in rounds:
            if not fails:
                generation += 1
                expected_by_generation[generation] = p
        stop = threading.Event()
        violations: list[str] = []

        def reader():
            while not stop.is_set():
                response, _ = service.ask(
                    "cute big animals", top=4
                )
                probs = {
                    p
                    for hit in response["hits"]
                    for p in hit["per_term"]
                }
                if len(probs) != 1:
                    violations.append(
                        f"mixed posteriors {sorted(probs)} in "
                        f"generation {response['generation']}"
                    )
                    continue
                expected = expected_by_generation.get(
                    response["generation"]
                )
                if expected is None or probs != {expected}:
                    violations.append(
                        f"generation {response['generation']} served "
                        f"{sorted(probs)}, published {expected}"
                    )

        readers = [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for thread in readers:
            thread.start()
        last_failed = False
        for p, fails in rounds:
            save(uniform_table(p), path)
            if fails:
                with pytest.raises(ServeError):
                    service.reload()
                last_failed = True
            else:
                service.reload()
                last_failed = False
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
        # Both paths were exercised, per the deterministic schedule.
        assert injector.fired_counts()["corrupt"] == 14
        assert service.index.generation == generation
        assert service.degraded == last_failed
        assert service.degraded  # round 39 (39 % 3 == 0) failed last
        assert not violations, violations[:5]

    def test_generation_is_published_before_readers_see_it(
        self, tmp_path, capsys
    ):
        """Tighter variant of the race: pre-compute the expected
        posterior per FUTURE generation so a reader observing a new
        generation before the reloader records it cannot false-alarm;
        any mismatch is then a true torn state."""
        path = save(uniform_table(0.9), tmp_path / "op.json")
        service = OpinionService(
            uniform_table(0.9), source_path=path
        )
        # Each successful reload bumps the generation by exactly one;
        # reload i publishes posterior schedule[i].
        schedule = [0.1 if i % 2 == 0 else 0.9 for i in range(30)]
        expected_by_generation = {1: 0.9}
        for i, p in enumerate(schedule):
            expected_by_generation[i + 2] = p
        stop = threading.Event()
        violations: list[str] = []

        def reader():
            while not stop.is_set():
                response, _ = service.ask("cute big animals", top=4)
                probs = {
                    p
                    for hit in response["hits"]
                    for p in hit["per_term"]
                }
                expected = expected_by_generation.get(
                    response["generation"]
                )
                if expected is None or probs != {expected}:
                    violations.append(
                        f"generation {response['generation']}: "
                        f"{sorted(probs)} != {expected}"
                    )

        readers = [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for thread in readers:
            thread.start()
        for p in schedule:
            save(uniform_table(p), path)
            service.reload()
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
        assert service.index.generation == 31
        assert not violations, violations[:5]


# ---------------------------------------------------------------------------
# Graceful drain on SIGTERM (satellite: in-flight requests survive)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(
    not hasattr(signal, "SIGHUP"), reason="POSIX signals required"
)
class TestGracefulDrain:
    def test_sigterm_finishes_inflight_request(self, tmp_path):
        path = save(demo_table(), tmp_path / "op.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(path),
                "--port", "0",
                # Every query sleeps 1.5 s — long enough to SIGTERM
                # mid-flight, well inside the widened deadline.
                "--fault-inject", "slow_every=1,slow_ms=1500,seed=0",
                "--request-deadline-ms", "10000",
                "--drain-timeout", "10",
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stderr.readline()
            assert "serving 4 opinions" in banner
            port = int(banner.rsplit(":", 1)[1])
            deadline = time.monotonic() + 10
            while True:
                try:
                    status, _, _ = get(
                        f"http://127.0.0.1:{port}/healthz"
                    )
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)

            # A keep-alive connection opened BEFORE the SIGTERM stays
            # open after the listener closes, so it can still observe
            # /healthz while the server drains.
            probe = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=10
            )
            probe.request("GET", "/healthz")
            first = probe.getresponse()
            assert first.status == 200
            first.read()  # drain the body so the connection can be reused

            results: list[tuple[int, dict]] = []

            def slow_query():
                status, _, body = get(
                    f"http://127.0.0.1:{port}/query?q=cute+animals"
                )
                results.append((status, json.loads(body)))

            worker = threading.Thread(target=slow_query)
            worker.start()
            time.sleep(0.5)  # the query is now sleeping server-side
            process.send_signal(signal.SIGTERM)
            time.sleep(0.2)

            probe.request("GET", "/healthz")
            health = json.loads(probe.getresponse().read())
            assert health["status"] == "draining"

            worker.join(timeout=15)
            stderr = process.communicate(timeout=15)[1]
            assert process.returncode == 0
            assert "draining" in stderr
            assert "shut down cleanly" in stderr
            # The in-flight request was served, not dropped.
            assert results and results[0][0] == 200
            assert results[0][1]["hits"]
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

"""Tests for the query-serving subsystem (index, cache, HTTP API)."""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core import (
    EvidenceCounts,
    Opinion,
    OpinionTable,
    Polarity,
    PropertyTypeKey,
    SubjectiveProperty,
)
from repro.core.query import QueryEngine, SubjectiveQuery
from repro.extraction import (
    EvidenceCounter,
    EvidenceStatement,
    ProvenanceIndex,
    ProvenanceLedger,
)
from repro.obs import MetricsRegistry, Tracer
from repro.serve import (
    OpinionIndex,
    OpinionService,
    QueryCache,
    ServeError,
    load_provenance_sidecar,
)
from repro.storage import provenance_path_for, save

from .conftest import AsyncHarness

CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
BIG = PropertyTypeKey(SubjectiveProperty("big"), "animal")
CALM = PropertyTypeKey(SubjectiveProperty("calm"), "city")


def random_table(seed: int, n_entities: int = 30) -> OpinionTable:
    """A randomized multi-type table exercising ties and gaps."""
    rng = random.Random(seed)
    table = OpinionTable()
    keys = [
        CUTE,
        BIG,
        PropertyTypeKey(SubjectiveProperty("dangerous"), "animal"),
        CALM,
        PropertyTypeKey(SubjectiveProperty("cheap"), "city"),
    ]
    for key in keys:
        for i in range(n_entities):
            if rng.random() < 0.6:
                # Coarse grid so equal probabilities (tie-breaks by
                # entity id) actually occur.
                p = rng.choice((0.1, 0.25, 0.5, 0.75, 0.9))
                table.add(
                    Opinion(
                        f"/{key.entity_type}/e{i:02d}",
                        key,
                        p,
                        EvidenceCounts(
                            rng.randrange(6), rng.randrange(6)
                        ),
                    )
                )
    return table


def demo_table() -> OpinionTable:
    def op(entity, key, p):
        return Opinion(entity, key, p, EvidenceCounts(2, 1))

    table = OpinionTable(
        [
            op("/animal/kitten", CUTE, 0.97),
            op("/animal/shark", CUTE, 0.05),
            op("/animal/pony", CUTE, 0.80),
            op("/animal/shark", BIG, 0.90),
            op("/animal/kitten", BIG, 0.10),
            op("/city/bruges", CALM, 0.95),
        ]
    )
    table.mark_degraded(BIG)
    return table


def demo_provenance() -> ProvenanceIndex:
    """Lineage for the demo table's kitten/cute pair."""
    ledger = ProvenanceLedger()
    statements = [
        EvidenceStatement(
            entity_id="/animal/kitten",
            entity_type="animal",
            property=SubjectiveProperty("cute"),
            polarity=Polarity.POSITIVE,
            pattern="pred_adj",
            doc_id=f"d{i}",
            sentence="Kittens are cute.",
        )
        for i in range(2)
    ]
    statements.append(
        EvidenceStatement(
            entity_id="/animal/kitten",
            entity_type="animal",
            property=SubjectiveProperty("cute"),
            polarity=Polarity.NEGATIVE,
            pattern="pred_adj",
            doc_id="d9",
            sentence="That kitten is not cute.",
            negations=1,
        )
    )
    counter = EvidenceCounter()
    for index, statement in enumerate(statements):
        counter.add(statement)
        ledger.record(statement, sentence_index=index)
    return ProvenanceIndex.from_run(ledger, counter)


# ---------------------------------------------------------------------------
# OpinionIndex
# ---------------------------------------------------------------------------

class TestOpinionIndex:
    QUERIES = (
        "cute animals",
        "big animals",
        "cute big animals",
        "not cute animals",
        "cute not big dangerous animals",
        "calm cities",
        "calm cheap cities",
    )

    @pytest.mark.parametrize("seed", range(5))
    def test_answer_matches_query_engine(self, seed):
        table = random_table(seed)
        engine = QueryEngine(table)
        index = OpinionIndex(table)
        for text in self.QUERIES:
            for top in (1, 5, 100):
                assert engine.answer(text, top=top) == index.answer(
                    text, top=top
                ), f"{text!r} top={top} seed={seed}"

    @pytest.mark.parametrize("seed", range(3))
    def test_entities_with_matches_table(self, seed):
        table = random_table(seed)
        index = OpinionIndex(table)
        for key in table.keys():
            for polarity in Polarity:
                for floor in (0.0, 0.4, 0.75, 0.99):
                    assert table.entities_with(
                        key, polarity, floor
                    ) == index.entities_with(key, polarity, floor)

    def test_unknown_type_empty(self):
        index = OpinionIndex(demo_table())
        assert index.answer("exciting jobs") == []
        assert index.entities_with(
            PropertyTypeKey(SubjectiveProperty("rare"), "profession")
        ) == []

    def test_introspection(self):
        index = OpinionIndex(demo_table(), generation=7)
        assert index.generation == 7
        assert index.n_opinions == 6
        assert index.n_keys == 3
        assert index.entity_types() == ["animal", "city"]
        assert index.entities_of_type("animal") == (
            "/animal/kitten",
            "/animal/pony",
            "/animal/shark",
        )

    def test_degraded_flags_carried(self):
        index = OpinionIndex(demo_table())
        assert index.is_degraded(BIG)
        assert not index.is_degraded(CUTE)
        assert index.degraded_keys == frozenset({BIG})

    def test_accepts_prebuilt_query(self):
        index = OpinionIndex(demo_table())
        query = SubjectiveQuery.parse("cute animals")
        assert index.answer(query) == index.answer("cute animals")


# ---------------------------------------------------------------------------
# QueryCache
# ---------------------------------------------------------------------------

class TestQueryCache:
    def test_hit_and_miss_counters(self):
        cache = QueryCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_order(self):
        cache = QueryCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: b is now least recently used
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.evictions == 1

    def test_purge_generations(self):
        cache = QueryCache(8)
        cache.put((1, "ask", "cute animals"), "old")
        cache.put((2, "ask", "cute animals"), "new")
        dropped = cache.purge_generations(2)
        assert dropped == 1
        assert cache.get((1, "ask", "cute animals")) is None
        assert cache.get((2, "ask", "cute animals")) == "new"
        assert cache.invalidations == 1

    def test_clear(self):
        cache = QueryCache(8)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_rejects_none_values(self):
        with pytest.raises(ValueError):
            QueryCache(2).put("a", None)

    def test_rejects_zero_bound(self):
        with pytest.raises(ValueError):
            QueryCache(0)

    def test_registry_mirrors_counters(self):
        registry = MetricsRegistry()
        cache = QueryCache(1, registry)
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts a
        cache.purge_generations(99)  # drops b
        assert registry.counter_value(
            "repro_serve_cache_hits_total"
        ) == 1
        assert registry.counter_value(
            "repro_serve_cache_misses_total"
        ) == 1
        assert registry.counter_value(
            "repro_serve_cache_evictions_total"
        ) == 1
        assert registry.counter_value(
            "repro_serve_cache_invalidations_total"
        ) == 1


# ---------------------------------------------------------------------------
# OpinionService
# ---------------------------------------------------------------------------

class TestOpinionService:
    def test_ask_caches_by_normalized_text(self):
        service = OpinionService(demo_table())
        first, cached_first = service.ask("cute animals")
        again, cached_again = service.ask("  CUTE   Animals ")
        assert not cached_first
        assert cached_again
        assert first == again
        assert first["hits"][0]["entity"] == "/animal/kitten"

    def test_ask_rejects_bad_input(self):
        service = OpinionService(demo_table())
        with pytest.raises(ServeError):
            service.ask("cute xyzzy")
        with pytest.raises(ServeError):
            service.ask("cute animals", top=0)
        with pytest.raises(ServeError):
            service.listing("cute", "animal", min_probability=2.0)

    def test_listing_caches(self):
        service = OpinionService(demo_table())
        first, cached_first = service.listing("cute", "animal")
        again, cached_again = service.listing("cute", "animal")
        assert (cached_first, cached_again) == (False, True)
        assert first == again
        assert first["degraded"] is False
        degraded, _ = service.listing("big", "animal")
        assert degraded["degraded"] is True

    def test_negative_zero_floor_renders_like_zero(self):
        # -0.0 == 0.0 shares a cache key, so a listing's bytes must not
        # depend on which of the two filled the cache first.
        def body(service, floor):
            response, cached = service.listing(
                "cute", "animal", min_probability=floor
            )
            return json.dumps(response, sort_keys=True), cached

        cold, cached = body(OpinionService(demo_table()), -0.0)
        assert not cached
        warm_service = OpinionService(demo_table())
        body(warm_service, 0.0)
        warm, cached = body(warm_service, -0.0)
        assert cached
        assert cold == warm
        assert '"min_probability": 0.0' in cold

    def test_swap_bumps_generation_and_purges(self):
        service = OpinionService(demo_table())
        before, _ = service.ask("cute animals")
        assert before["generation"] == 1
        replacement = OpinionTable(
            [Opinion("/animal/slug", CUTE, 0.9, EvidenceCounts(1, 0))]
        )
        service.swap(replacement)
        after, cached = service.ask("cute animals")
        assert not cached  # the old answer was invalidated
        assert after["generation"] == 2
        assert [h["entity"] for h in after["hits"]] == ["/animal/slug"]

    def test_reload_from_file(self, tmp_path):
        path = save(demo_table(), tmp_path / "op.json")
        service = OpinionService(demo_table(), source_path=path)
        summary = service.reload()
        assert summary["generation"] == 2
        assert summary["opinions"] == 6

    def test_reload_failure_keeps_serving(self, tmp_path):
        service = OpinionService(
            demo_table(), source_path=tmp_path / "missing.json"
        )
        with pytest.raises(Exception):
            service.reload()
        assert service.index.generation == 1
        response, _ = service.ask("cute animals")
        assert response["hits"]

    def test_admission_control(self):
        service = OpinionService(
            demo_table(), max_inflight=2, queue_depth=0
        )
        assert service.admission.poll()
        assert service.admission.poll()
        assert not service.admission.poll()
        service.admission.release()
        assert service.admission.poll()

    def test_batch_answers_and_reports_errors(self):
        service = OpinionService(demo_table())
        payload = service.batch(["cute animals", "cute xyzzy"])
        assert payload["format"] == "serve_batch"
        assert payload["results"][0]["hits"]
        assert "error" in payload["results"][1]

    def test_observe_request_metrics_and_span(self):
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        service = OpinionService(
            demo_table(), registry=registry, tracer=tracer
        )
        service.observe_request(
            method="GET",
            path="/query",
            status=200,
            seconds=0.01,
            cached=True,
        )
        service.observe_request(
            method="GET", path="/query", status=503, seconds=0.001
        )
        assert registry.counter_value(
            "repro_serve_requests_total"
        ) == 2
        assert registry.counter_value(
            "repro_serve_rejected_total"
        ) == 1
        spans = tracer.export_spans()
        assert [s["name"] for s in spans] == [
            "serve.request",
            "serve.request",
        ]
        assert spans[0]["attrs"]["cached"] is True
        assert spans[1]["status"] == "ok"  # 503 is shedding, not error

    def test_healthz_shape(self):
        service = OpinionService(demo_table())
        health = service.healthz()
        assert health["status"] == "healthy"
        assert health["generation"] == 1
        assert health["degraded_combinations"] == ["big animal"]
        assert health["cache"]["entries"] == 0
        assert health["breaker"] == "closed"
        assert health["rollback_available"] is False
        assert health["admission"]["inflight"] == 0


class TestHotReloadAtomicity:
    def test_readers_never_see_mixed_generations(self):
        """Concurrent swaps must never surface a half-built table.

        Two tables assign every pair a homogeneous posterior (all 0.9
        vs all 0.1); a reader that ever observes a mixed ``per_term``
        vector has caught a partially-swapped index.
        """
        keys = (CUTE, BIG,
                PropertyTypeKey(
                    SubjectiveProperty("dangerous"), "animal"
                ))

        def uniform(p):
            return OpinionTable(
                [
                    Opinion(f"/animal/e{i}", key, p,
                            EvidenceCounts(1, 0))
                    for key in keys
                    for i in range(8)
                ]
            )

        high, low = uniform(0.9), uniform(0.1)
        service = OpinionService(high)
        stop = threading.Event()
        violations: list[tuple] = []

        def reader():
            while not stop.is_set():
                # Bypass the cache: the raw index is under test.
                hits = service.index.answer(
                    "cute big dangerous animals", top=4
                )
                for hit in hits:
                    if len(set(hit.per_term)) != 1:
                        violations.append(hit.per_term)

        def swapper():
            for i in range(200):
                service.swap(low if i % 2 == 0 else high)

        readers = [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for thread in readers:
            thread.start()
        swapper()
        stop.set()
        for thread in readers:
            thread.join()
        assert not violations, violations[:3]
        assert service.index.generation == 201


# ---------------------------------------------------------------------------
# HTTP API
# ---------------------------------------------------------------------------

@pytest.fixture()
def served(tmp_path):
    """A live server over the demo table; yields (service, base_url)."""
    path = save(demo_table(), tmp_path / "op.json")
    registry = MetricsRegistry()
    service = OpinionService(
        demo_table(),
        source_path=path,
        registry=registry,
        tracer=Tracer(enabled=True),
    )
    with AsyncHarness(service) as harness:
        yield service, harness.url


def get(url):
    with urllib.request.urlopen(url) as response:
        return (
            response.status,
            dict(response.headers),
            response.read(),
        )


def post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


class TestHTTPAPI:
    def test_free_text_query(self, served):
        _, base = served
        status, headers, body = get(f"{base}/query?q=cute+animals")
        payload = json.loads(body)
        assert status == 200
        assert headers["X-Cache"] == "miss"
        assert payload["format"] == "serve_ask"
        assert payload["hits"][0]["entity"] == "/animal/kitten"
        _, headers, again = get(f"{base}/query?q=cute+animals")
        assert headers["X-Cache"] == "hit"
        assert again == body

    def test_listing_query(self, served):
        _, base = served
        status, _, body = get(
            f"{base}/query?property=big&type=animal"
            "&min_probability=0.5&top=5"
        )
        payload = json.loads(body)
        assert status == 200
        assert payload["format"] == "serve_query"
        assert payload["degraded"] is True
        assert [h["entity"] for h in payload["hits"]] == [
            "/animal/shark"
        ]

    def test_bad_query_is_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(f"{base}/query?q=cute+xyzzy")
        assert excinfo.value.code == 400
        assert "cannot parse" in json.loads(
            excinfo.value.read()
        )["error"]

    def test_missing_params_is_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(f"{base}/query")
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(f"{base}/nope")
        assert excinfo.value.code == 404

    def test_batch(self, served):
        _, base = served
        status, payload = post(
            f"{base}/batch",
            {"queries": ["cute animals", "calm cities"], "top": 2},
        )
        assert status == 200
        assert len(payload["results"]) == 2
        assert payload["results"][1]["hits"][0]["entity"] == (
            "/city/bruges"
        )

    def test_batch_validates_body(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"{base}/batch", {"queries": "cute animals"})
        assert excinfo.value.code == 400

    def test_healthz_and_metrics(self, served):
        service, base = served
        get(f"{base}/query?q=cute+animals")
        status, _, body = get(f"{base}/healthz")
        assert status == 200
        assert json.loads(body)["generation"] == 1
        status, _, body = get(f"{base}/metrics")
        text = body.decode()
        assert status == 200
        assert "repro_serve_requests_total" in text
        assert "repro_serve_cache_misses_total" in text
        assert service.registry.counter_value(
            "repro_serve_requests_total"
        ) >= 2

    def test_admin_reload(self, served):
        service, base = served
        get(f"{base}/query?q=cute+animals")
        status, payload = post(f"{base}/admin/reload", {})
        assert status == 200
        assert payload["generation"] == 2
        assert service.index.generation == 2
        _, headers, _ = get(f"{base}/query?q=cute+animals")
        assert headers["X-Cache"] == "miss"  # cache was invalidated

    def test_admin_reload_bad_path_is_500(self, served):
        service, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(
                f"{base}/admin/reload", {"path": "/does/not/exist"}
            )
        assert excinfo.value.code == 500
        assert service.index.generation == 1  # still serving

    def test_overload_sheds_with_503(self, served):
        service, base = served
        # Exhaust every in-flight slot, as saturated handlers would.
        for _ in range(service.max_inflight):
            assert service.admission.poll()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(f"{base}/query?q=cute+animals")
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "1"
            # Health and metrics stay reachable under overload.
            status, _, _ = get(f"{base}/healthz")
            assert status == 200
        finally:
            for _ in range(service.max_inflight):
                service.admission.release()
        status, _, _ = get(f"{base}/query?q=cute+animals")
        assert status == 200
        assert service.registry.counter_value(
            "repro_serve_rejected_total"
        ) == 1


# ---------------------------------------------------------------------------
# GET /explain (answer provenance)
# ---------------------------------------------------------------------------

@pytest.fixture()
def served_with_lineage(tmp_path):
    """A live server whose table has a provenance sidecar on disk;
    yields (service, base_url, opinions_path)."""
    path = save(demo_table(), tmp_path / "op.json")
    save(demo_provenance(), provenance_path_for(path))
    service = OpinionService(
        demo_table(),
        source_path=path,
        provenance=load_provenance_sidecar(path),
    )
    with AsyncHarness(service) as harness:
        yield service, harness.url, path


class TestExplainHTTP:
    def test_full_lineage_payload(self, served_with_lineage):
        _, base, _ = served_with_lineage
        status, headers, body = get(
            f"{base}/explain?entity=/animal/kitten&property=cute"
        )
        payload = json.loads(body)
        assert status == 200
        assert headers["X-Cache"] == "miss"
        assert payload["format"] == "serve_explain"
        assert payload["entity"] == "/animal/kitten"
        assert payload["posterior"] == 0.97
        assert payload["polarity"] == "+"
        assert payload["lineage"]["available"] is True
        assert payload["lineage"]["positive_seen"] == 2
        assert payload["lineage"]["negative_seen"] == 1
        samples = payload["lineage"]["samples"]
        assert [s["polarity"] for s in samples] == [
            "positive", "positive", "negative",
        ]
        assert samples[2]["negations"] == 1
        assert samples[2]["sentence"] == "That kitten is not cute."

    def test_second_hit_is_cached(self, served_with_lineage):
        _, base, _ = served_with_lineage
        url = f"{base}/explain?entity=/animal/kitten&property=cute"
        _, _, first = get(url)
        _, headers, again = get(url)
        assert headers["X-Cache"] == "hit"
        assert again == first

    def test_explicit_type_param(self, served_with_lineage):
        _, base, _ = served_with_lineage
        status, _, body = get(
            f"{base}/explain?entity=/animal/kitten&property=cute"
            "&type=animal"
        )
        assert status == 200
        assert json.loads(body)["entity_type"] == "animal"

    def test_without_sidecar_degrades_to_counts(self, served):
        _, base = served
        status, _, body = get(
            f"{base}/explain?entity=/animal/kitten&property=cute"
        )
        payload = json.loads(body)
        assert status == 200
        assert payload["lineage"]["available"] is False
        assert payload["lineage"]["samples"] == []
        assert payload["model"] is None
        assert payload["evidence"] == {"positive": 2, "negative": 1}

    def test_unknown_pair_is_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(f"{base}/explain?entity=/animal/slug&property=cute")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["code"] == "not_found"

    def test_missing_params_is_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(f"{base}/explain?entity=/animal/kitten")
        assert excinfo.value.code == 400


class TestBatchRequestIds:
    def test_items_stamped_with_envelope_id(self, served):
        _, base = served
        request = urllib.request.Request(
            f"{base}/batch",
            data=json.dumps(
                {"queries": ["cute animals", "cute xyzzy"]}
            ).encode(),
            headers={"X-Request-Id": "req-42"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            assert response.headers["X-Request-Id"] == "req-42"
            payload = json.loads(response.read())
        assert [
            item["request_id"] for item in payload["results"]
        ] == ["req-42", "req-42"]

    def test_service_level_batch_without_id_stays_unstamped(self):
        service = OpinionService(demo_table())
        payload = service.batch(["cute animals"])
        assert "request_id" not in payload["results"][0]

    def test_stamping_leaves_cached_entries_clean(self):
        service = OpinionService(demo_table())
        service.batch(["cute animals"], request_id="one")
        response, was_cached = service.ask("cute animals")
        assert was_cached
        assert "request_id" not in response


# ---------------------------------------------------------------------------
# CLI/HTTP schema identity (the --format json satellite)
# ---------------------------------------------------------------------------

class TestCLIServerParity:
    def test_ask_json_identical_to_http(
        self, served, tmp_path, capsys
    ):
        path = save(demo_table(), tmp_path / "cli.json")
        _, base = served
        rc = main(
            ["ask", str(path), "cute animals", "--format", "json"]
        )
        assert rc == 0
        cli_body = capsys.readouterr().out.strip()
        _, _, http_body = get(f"{base}/query?q=cute+animals")
        assert cli_body == http_body.decode()

    def test_query_json_identical_to_http(
        self, served, tmp_path, capsys
    ):
        path = save(demo_table(), tmp_path / "cli.json")
        _, base = served
        rc = main(
            [
                "query", str(path), "big", "animal",
                "--min-probability", "0.5",
                "--format", "json",
            ]
        )
        assert rc == 0
        cli_body = capsys.readouterr().out.strip()
        _, _, http_body = get(
            f"{base}/query?property=big&type=animal"
            "&min_probability=0.5"
        )
        assert cli_body == http_body.decode()

    def test_explain_json_identical_to_http(
        self, served_with_lineage, capsys
    ):
        """`repro explain --format json` and GET /explain agree byte
        for byte, lineage samples included."""
        _, base, path = served_with_lineage
        rc = main(
            [
                "explain", str(path), "/animal/kitten", "cute",
                "--format", "json",
            ]
        )
        assert rc == 0
        cli_body = capsys.readouterr().out.strip()
        _, _, http_body = get(
            f"{base}/explain?entity=/animal/kitten&property=cute"
        )
        assert cli_body == http_body.decode()
        assert json.loads(cli_body)["lineage"]["samples"]

    @pytest.mark.parametrize(
        "argv, route",
        [
            pytest.param(
                ["query", "big", "animal", "--top", "0"],
                "/query?property=big&type=animal&top=0",
                id="query-top-0",
            ),
            pytest.param(
                ["query", "big", "animal", "--top", "5000"],
                "/query?property=big&type=animal&top=5000",
                id="query-top-5000",
            ),
            pytest.param(
                ["ask", "cute animals", "--top", "0"],
                "/query?q=cute+animals&top=0",
                id="ask-top-0",
            ),
            pytest.param(
                ["ask", "cute animals", "--top", "5000"],
                "/query?q=cute+animals&top=5000",
                id="ask-top-5000",
            ),
            pytest.param(
                ["query", "big", "animal", "--min-probability", "-0.0"],
                "/query?property=big&type=animal&min_probability=-0.0",
                id="query-min-probability-negative-zero",
            ),
            pytest.param(
                ["query", "big", "animal", "--min-probability", "1.5"],
                "/query?property=big&type=animal&min_probability=1.5",
                id="query-min-probability-1.5",
            ),
            pytest.param(
                ["query", " ", "animal"],
                "/query?property=+&type=animal",
                id="query-unparsable-property",
            ),
            pytest.param(
                ["explain", "/animal/kitten", " "],
                "/explain?entity=/animal/kitten&property=+",
                id="explain-unparsable-property",
            ),
        ],
    )
    def test_edge_input_identical_to_http(
        self, served, tmp_path, capsys, argv, route
    ):
        """Inputs the route rejects are the same 400 envelope (exit 2)
        on the CLI; the HTTP side's request id is set back to null."""
        path = save(demo_table(), tmp_path / "cli.json")
        _, base = served
        rc = main([argv[0], str(path), *argv[1:], "--format", "json"])
        cli_body = capsys.readouterr().out.strip()
        try:
            status, _, http_body = get(f"{base}{route}")
        except urllib.error.HTTPError as error:
            status, http_body = error.code, error.read()
        if status == 400:
            payload = json.loads(http_body)
            payload["request_id"] = None
            http_body = json.dumps(payload, sort_keys=True).encode()
        assert rc == (2 if status == 400 else 0)
        assert cli_body == http_body.decode()


# ---------------------------------------------------------------------------
# The `repro serve` process (signals, clean shutdown)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(
    not hasattr(signal, "SIGHUP"), reason="POSIX signals required"
)
class TestServeProcess:
    def test_workers_2_serves_like_workers_1(self, tmp_path):
        """Both run modes: one banner, the fresh-ingest warning once,
        the same /query bytes, and a clean SIGTERM; with two workers
        /metrics reports both, and worker 1 traces to `<path>.w1`."""
        path = save(demo_table(), tmp_path / "op.json")
        processes = {}
        try:
            for workers in ("1", "2"):
                journal = tmp_path / f"journal-{workers}"
                journal.mkdir()
                processes[workers] = _spawn_serve(
                    path,
                    "--workers", workers,
                    "--ingest-journal", str(journal),
                    "--trace", str(tmp_path / f"trace-{workers}.jsonl"),
                )
            boots = {w: _read_banner(p) for w, p in processes.items()}
            bodies = {
                workers: get(f"{base}/query?q=cute+animals")[2]
                for workers, (base, _) in boots.items()
            }
            assert bodies["1"] == bodies["2"]
            _, _, metrics = get(f"{boots['2'][0]}/metrics")
            assert b"\nrepro_serve_workers 2\n" in metrics
            for process in processes.values():
                process.terminate()  # SIGTERM
            for workers, process in processes.items():
                stderr = boots[workers][1] + process.communicate(
                    timeout=20
                )[1]
                assert process.returncode == 0, stderr
                assert stderr.count("serving 6 opinions") == 1, stderr
                assert stderr.count("is fresh") == 1, stderr
                assert "shut down cleanly" in stderr
        finally:
            for process in processes.values():
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)
        assert sorted(p.name for p in tmp_path.glob("trace-*")) == [
            "trace-1.jsonl", "trace-2.jsonl", "trace-2.jsonl.w1",
        ]

    def test_sighup_reload_and_sigterm_shutdown(self, tmp_path):
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
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stderr.readline()
            assert "serving 6 opinions" in banner
            port = int(banner.rsplit(":", 1)[1])
            base = f"http://127.0.0.1:{port}"
            deadline = time.monotonic() + 10
            while True:
                try:
                    status, _, body = get(f"{base}/healthz")
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            assert json.loads(body)["generation"] == 1

            process.send_signal(signal.SIGHUP)
            deadline = time.monotonic() + 10
            while True:
                _, _, body = get(f"{base}/healthz")
                if json.loads(body)["generation"] == 2:
                    break
                assert time.monotonic() < deadline, (
                    "SIGHUP reload never landed"
                )
                time.sleep(0.05)

            process.terminate()  # SIGTERM
            stderr = process.communicate(timeout=10)[1]
            assert process.returncode == 0
            assert "shut down cleanly" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


def _spawn_serve(path, *flags):
    """Start `repro serve PATH --port 0 FLAGS` in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(path),
            "--port", "0", *flags,
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _read_banner(process):
    """(base url, stderr up to and including the serving banner)."""
    boot = ""
    while "serving" not in boot:
        line = process.stderr.readline()
        assert line, f"no banner before exit: {boot}"
        boot += line
    port = int(boot.rstrip().rsplit(":", 1)[1])
    return f"http://127.0.0.1:{port}", boot

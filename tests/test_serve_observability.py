"""Tests for the serving observability layer (PR 7).

Covers SLO burn-rate tracking (obs/slo), the JSONL access log
(serve/access_log), streamhist integration in the metrics registry
(exemplar exposition, JSON export, merge), request-id propagation
through headers / error envelopes / access log / spans, head sampling
with the always-keep-slow tail rule, and the ``repro top`` console
(exposition parser, frame rendering, golden-schema validator, CLI).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core import (
    EvidenceCounts,
    Opinion,
    OpinionTable,
    PropertyTypeKey,
    SubjectiveProperty,
)
from repro.obs import (
    MetricsError,
    MetricsRegistry,
    SloTracker,
    StreamingHistogram,
    Tracer,
    parse_exposition,
    validate_metrics_payload,
    validate_serve_observability,
)
from repro.obs.live import BurnHistory, Sample, render_frame
from repro.serve import (
    AccessLog,
    OpinionService,
    read_access_log,
)

from .conftest import AsyncHarness

CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def demo_table() -> OpinionTable:
    return OpinionTable(
        [
            Opinion(
                "/animal/kitten", CUTE, 0.97, EvidenceCounts(2, 1)
            ),
            Opinion(
                "/animal/shark", CUTE, 0.05, EvidenceCounts(1, 2)
            ),
        ]
    )


def get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.status,
                dict(response.headers),
                response.read(),
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture()
def served(tmp_path):
    access_log = AccessLog(
        tmp_path / "access.jsonl", flush_every=1
    )
    service = OpinionService(
        demo_table(),
        registry=MetricsRegistry(),
        tracer=Tracer(enabled=True),
        access_log=access_log,
    )
    try:
        with AsyncHarness(service) as harness:
            yield service, harness.url
    finally:
        access_log.close()


# ---------------------------------------------------------------------------
# SLO tracker
# ---------------------------------------------------------------------------

class TestSloTracker:
    def tracker(self, **kwargs):
        clock = FakeClock(1000.0)
        kwargs.setdefault("clock", clock)
        return SloTracker(**kwargs), clock

    def test_burn_rate_math(self):
        """1 bad in 10 at a 99.9% objective burns 100x budget."""
        tracker, _ = self.tracker()
        for _ in range(9):
            tracker.record(200, 0.01)
        tracker.record(503, 0.01)
        rates = tracker.burn_rates()
        assert rates["availability"]["fast"] == pytest.approx(100.0)
        assert rates["availability"]["slow"] == pytest.approx(100.0)

    def test_empty_windows_burn_zero(self):
        tracker, _ = self.tracker()
        rates = tracker.burn_rates()
        assert rates["availability"] == {"fast": 0.0, "slow": 0.0}
        assert tracker.state() == "ok"

    def test_latency_slo_counts_slow_requests(self):
        tracker, _ = self.tracker(latency_threshold=0.1)
        tracker.record(200, 0.05)  # fast enough
        tracker.record(200, 0.5)   # too slow
        rates = tracker.burn_rates()
        assert rates["latency"]["fast"] == pytest.approx(
            0.5 / 0.01
        )
        assert rates["availability"]["fast"] == 0.0

    def test_5xx_counts_against_both_slos(self):
        tracker, _ = self.tracker()
        tracker.record(500, 0.001)  # fast but failed
        rates = tracker.burn_rates()
        assert rates["availability"]["fast"] > 0
        assert rates["latency"]["fast"] > 0

    def test_multi_window_rule_needs_both_windows(self):
        """Bad requests only in the fast window while the slow window
        is dominated by good history → no page."""
        tracker, clock = self.tracker(
            fast_window=300.0, slow_window=3600.0
        )
        # Old good traffic fills the slow window...
        for _ in range(1000):
            tracker.record(200, 0.01)
        # ...then a small burst of errors after the fast window
        # rolled over. Fast burn is huge, slow burn stays under the
        # warn threshold, so the multi-window rule holds at "ok".
        clock.advance(301.0)
        for _ in range(5):
            tracker.record(503, 0.01)
        rates = tracker.burn_rates()
        assert rates["availability"]["fast"] >= 14.4
        assert rates["availability"]["slow"] < 6.0
        assert tracker.state() == "ok"

    def test_sustained_errors_page(self):
        tracker, _ = self.tracker()
        for _ in range(50):
            tracker.record(503, 0.01)
        assert tracker.state() == "page"
        report = tracker.report()
        assert report["state"] == "page"
        assert report["availability"]["state"] == "page"

    def test_old_outcomes_age_out(self):
        tracker, clock = self.tracker(
            fast_window=300.0, slow_window=3600.0
        )
        tracker.record(503, 0.01)
        assert tracker.burn_rates()["availability"]["fast"] > 0
        clock.advance(3601.0)
        rates = tracker.burn_rates()
        assert rates["availability"] == {"fast": 0.0, "slow": 0.0}

    def test_report_shape(self):
        tracker, _ = self.tracker()
        tracker.record(200, 0.01)
        report = tracker.report()
        for slo in ("availability", "latency"):
            entry = report[slo]
            assert 0.0 < entry["objective"] < 1.0
            assert set(entry["burn_rates"]) == {"fast", "slow"}
            assert entry["state"] in ("ok", "warn", "page")
        assert report["latency"]["threshold_seconds"] > 0
        assert report["windows_seconds"]["fast"] == 300.0
        json.dumps(report)  # JSON-safe

    def test_validation(self):
        with pytest.raises(ValueError):
            SloTracker(latency_threshold=0.0)
        with pytest.raises(ValueError):
            SloTracker(fast_window=600.0, slow_window=300.0)
        with pytest.raises(ValueError):
            SloTracker(availability_objective=1.0)


# ---------------------------------------------------------------------------
# Access log
# ---------------------------------------------------------------------------

class TestAccessLog:
    def test_roundtrip_and_schema(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with AccessLog(path, flush_every=1) as log:
            log.write(
                request_id="abc",
                method="GET",
                path="/query",
                status=200,
                seconds=0.0123,
                cached=True,
                client="127.0.0.1",
                generation=3,
            )
            log.write(
                request_id="def",
                method="GET",
                path="/query",
                status=503,
                seconds=0.001,
                code="overloaded",
            )
        records = list(read_access_log(path))
        assert [r["request_id"] for r in records] == ["abc", "def"]
        assert records[0]["cached"] is True
        assert records[0]["generation"] == 3
        assert records[1]["code"] == "overloaded"
        assert records[1]["cached"] is None

    def test_strings_needing_escapes_stay_valid_json(
        self, tmp_path
    ):
        """The fast-path serializer must fall back to full JSON
        escaping for quotes, backslashes, and control bytes."""
        path = tmp_path / "access.jsonl"
        nasty = 'a"b\\c\td'
        with AccessLog(path, flush_every=1) as log:
            log.write(
                request_id=None,
                method="GET",
                path=nasty,
                status=200,
                seconds=0.1,
                code=nasty,
            )
        (record,) = read_access_log(path)
        assert record["path"] == nasty
        assert record["code"] == nasty
        assert record["request_id"] is None

    def test_buffered_writes_flush_on_close(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path, flush_every=1000)
        log.write(
            request_id="x", method="GET", path="/", status=200,
            seconds=0.1,
        )
        log.close()
        assert len(list(read_access_log(path))) == 1

    def test_write_after_close_is_a_noop(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path, flush_every=1)
        log.close()
        log.write(
            request_id="x", method="GET", path="/", status=200,
            seconds=0.1,
        )
        assert list(read_access_log(path)) == []

    def test_items_round_trip_and_optional_on_read(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with AccessLog(path, flush_every=1) as log:
            log.write(
                request_id="b1", method="POST", path="/batch",
                status=200, seconds=0.02, items=7,
            )
        (record,) = read_access_log(path)
        assert record["items"] == 7
        # Logs that pre-date the field read back with items = null.
        legacy = tmp_path / "legacy.jsonl"
        line = dict(record)
        del line["items"]
        legacy.write_text(json.dumps(line) + "\n")
        (old,) = read_access_log(legacy)
        assert old["items"] is None

    def test_rotation_seals_parts_and_reads_in_order(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with AccessLog(path, flush_every=1, max_bytes=300) as log:
            for i in range(12):
                log.write(
                    request_id=f"r{i:02d}", method="GET",
                    path="/query", status=200, seconds=0.001,
                )
        parts = sorted(
            sibling.name
            for sibling in tmp_path.iterdir()
            if sibling.name.startswith("access.jsonl.")
        )
        assert parts, "no rotated parts were produced"
        # Every sealed part respects the byte cap.
        for part in parts:
            assert (tmp_path / part).stat().st_size <= 300
        # The reader stitches parts + live file chronologically.
        records = list(read_access_log(path))
        assert [r["request_id"] for r in records] == [
            f"r{i:02d}" for i in range(12)
        ]

    def test_rotation_resumes_numbering_across_reopen(self, tmp_path):
        path = tmp_path / "access.jsonl"

        def fill(count):
            with AccessLog(
                path, flush_every=1, max_bytes=150
            ) as log:
                for i in range(count):
                    log.write(
                        request_id=f"x{i}", method="GET", path="/",
                        status=200, seconds=0.001,
                    )

        fill(3)
        first_parts = {
            s.name
            for s in tmp_path.iterdir()
            if s.name.startswith("access.jsonl.")
        }
        fill(3)
        numbers = sorted(
            int(s.name.rsplit(".", 1)[1])
            for s in tmp_path.iterdir()
            if s.name.startswith("access.jsonl.")
        )
        assert numbers == list(range(1, len(numbers) + 1))
        assert len(numbers) > len(first_parts)
        assert len(list(read_access_log(path))) == 6

    def test_rotation_validates_max_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            AccessLog(tmp_path / "a.jsonl", max_bytes=0)

    def test_reader_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "access.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="malformed"):
            list(read_access_log(path))

    def test_reader_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "access.jsonl"
        path.write_text('{"ts": 1.0}\n')
        with pytest.raises(ValueError, match="missing fields"):
            list(read_access_log(path))


# ---------------------------------------------------------------------------
# Registry streamhist integration
# ---------------------------------------------------------------------------

class TestStreamhistRegistry:
    def test_exposition_has_buckets_and_exemplar(self):
        registry = MetricsRegistry()
        registry.observe(
            "repro_serve_request_seconds", 0.002, exemplar="tr1"
        )
        registry.observe("repro_serve_request_seconds", 0.8)
        text = registry.exposition()
        assert (
            "# TYPE repro_serve_request_seconds histogram" in text
        )
        assert 'repro_serve_request_seconds_bucket{le="+Inf"} 2' in text
        assert '# {trace_id="tr1"} 0.002' in text
        assert "repro_serve_request_seconds_count 2" in text

    def test_to_dict_payload_validates(self):
        registry = MetricsRegistry()
        registry.observe("repro_serve_request_seconds", 0.01)
        payload = registry.to_dict()
        row = payload["metrics"]["repro_serve_request_seconds"]
        assert row["type"] == "streamhist"
        assert row["count"] == 1
        assert validate_metrics_payload(payload) == []

    def test_merge_folds_streams(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("repro_serve_request_seconds", 0.01)
        b.observe(
            "repro_serve_request_seconds", 0.02, exemplar="tb"
        )
        a.merge(b)
        snapshot = a.stream_snapshot(
            "repro_serve_request_seconds"
        )
        assert snapshot.count == 2
        a.merge(MetricsRegistry())
        assert a.stream_snapshot(
            "repro_serve_request_seconds"
        ).count == 2

    def test_exemplar_on_fixed_histogram_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError, match="exemplar"):
            registry.observe(
                "repro_document_seconds", 0.01, exemplar="x"
            )

    def test_stream_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.observe("repro_serve_request_seconds", 0.01)
        snapshot = registry.stream_snapshot(
            "repro_serve_request_seconds"
        )
        snapshot.observe(0.5)
        assert registry.stream_snapshot(
            "repro_serve_request_seconds"
        ).count == 1


# ---------------------------------------------------------------------------
# Request ids, sampling, and the HTTP surfaces
# ---------------------------------------------------------------------------

class TestRequestIds:
    def test_generated_id_on_success_header_only(self, served):
        service, base = served
        status, headers, body = get(f"{base}/query?q=cute+animals")
        assert status == 200
        request_id = headers["X-Request-Id"]
        assert len(request_id) == 16
        # Success bodies carry no id: CLI/HTTP byte-parity holds.
        assert "request_id" not in json.loads(body)

    def test_client_supplied_id_is_echoed(self, served):
        service, base = served
        status, headers, body = get(
            f"{base}/query?q=cute+animals",
            headers={"X-Request-Id": "my-id_42"},
        )
        assert headers["X-Request-Id"] == "my-id_42"

    def test_malformed_client_id_is_replaced(self, served):
        service, base = served
        status, headers, _ = get(
            f"{base}/query?q=cute+animals",
            headers={"X-Request-Id": "bad id with spaces!"},
        )
        assert headers["X-Request-Id"] != "bad id with spaces!"
        assert len(headers["X-Request-Id"]) == 16

    def test_error_envelope_carries_matching_id(self, served):
        service, base = served
        status, headers, body = get(f"{base}/query?q=%21%21")
        assert status == 400
        payload = json.loads(body)
        assert payload["request_id"] == headers["X-Request-Id"]

    def test_access_log_lines_match_ids_and_codes(
        self, served, tmp_path
    ):
        service, base = served
        _, ok_headers, _ = get(f"{base}/query?q=cute+animals")
        _, bad_headers, _ = get(f"{base}/query?q=%21%21")
        # The access-log line is written after the response bytes
        # flush to the client, so poll briefly for both records.
        wanted = {
            ok_headers["X-Request-Id"],
            bad_headers["X-Request-Id"],
        }
        records = {}
        for _ in range(50):
            service.access_log.flush()
            records = {
                record["request_id"]: record
                for record in read_access_log(
                    service.access_log.path
                )
            }
            if wanted <= records.keys():
                break
            time.sleep(0.02)
        ok = records[ok_headers["X-Request-Id"]]
        assert ok["status"] == 200 and ok["code"] is None
        bad = records[bad_headers["X-Request-Id"]]
        assert bad["status"] == 400
        assert bad["code"] == "bad_request"
        assert bad["path"] == "/query"  # no query string logged

    def test_metrics_endpoint_exposes_exemplars_and_burn(
        self, served
    ):
        service, base = served
        get(f"{base}/query?q=cute+animals")
        status, _, body = get(f"{base}/metrics")
        text = body.decode()
        assert "repro_serve_request_seconds_bucket" in text
        assert '# {trace_id="' in text
        assert "repro_serve_availability_burn_fast" in text
        assert "repro_serve_slo_state 0" in text

    def test_healthz_reports_slo_and_latency(self, served):
        service, base = served
        get(f"{base}/query?q=cute+animals")
        _, _, body = get(f"{base}/healthz")
        health = json.loads(body)
        assert health["slo"]["state"] == "ok"
        assert health["slo"]["availability"]["burn_rates"]
        assert health["latency"]["count"] >= 1
        assert health["latency"]["p50"] is not None

    def test_validator_passes_against_live_server(self, served):
        service, base = served
        get(f"{base}/query?q=cute+animals")
        _, _, metrics = get(f"{base}/metrics")
        _, _, health = get(f"{base}/healthz")
        assert (
            validate_serve_observability(
                json.loads(health), metrics.decode()
            )
            == []
        )


class TestHeadSampling:
    def observe(self, service, **kwargs):
        defaults = dict(
            method="GET", path="/query", status=200, seconds=0.001
        )
        defaults.update(kwargs)
        service.observe_request(**defaults)

    def test_keeps_every_nth_span(self):
        tracer = Tracer(enabled=True)
        service = OpinionService(
            demo_table(), tracer=tracer, trace_sample=3
        )
        for _ in range(9):
            self.observe(service)
        assert len(tracer.export_spans()) == 3

    def test_slow_requests_always_kept(self):
        tracer = Tracer(enabled=True)
        service = OpinionService(
            demo_table(),
            tracer=tracer,
            trace_sample=1000,
            trace_slow_seconds=0.1,
        )
        self.observe(service, seconds=0.001)
        self.observe(service, seconds=0.5, request_id="slow1")
        spans = tracer.export_spans()
        assert len(spans) == 1
        assert spans[0]["attrs"]["request_id"] == "slow1"

    def test_errors_always_kept(self):
        tracer = Tracer(enabled=True)
        service = OpinionService(
            demo_table(), tracer=tracer, trace_sample=1000
        )
        self.observe(service, status=500, code="internal")
        spans = tracer.export_spans()
        assert len(spans) == 1
        assert spans[0]["attrs"]["code"] == "internal"
        assert spans[0]["status"] == "error"

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            OpinionService(demo_table(), trace_sample=0)


# ---------------------------------------------------------------------------
# repro top: parser, renderer, validator, CLI
# ---------------------------------------------------------------------------

class TestExpositionParser:
    def test_parses_counters_gauges_and_exemplars(self):
        text = (
            "# HELP foo_total requests\n"
            "# TYPE foo_total counter\n"
            "foo_total 42\n"
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.001"} 2 # {trace_id="ab"} 0.0008\n'
            'lat_bucket{le="+Inf"} 3\n'
            "lat_sum 0.01\n"
            "lat_count 3\n"
        )
        series = parse_exposition(text)
        assert series["foo_total"] == [({}, 42.0, None)]
        assert series["#types"]["lat"] == "histogram"
        labels, value, exemplar = series["lat_bucket"][0]
        assert labels == {"le": "0.001"}
        assert value == 2.0
        assert exemplar == ({"trace_id": "ab"}, 0.0008)
        assert series["lat_bucket"][1][2] is None

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_exposition("!!! not a metric line")


def _sample(at, counters, health):
    series = {"#types": {}}
    for name, value in counters.items():
        series[name] = [({}, float(value), None)]
    return Sample(at=at, series=series, health=health)


class TestRenderFrame:
    HEALTH = {
        "status": "healthy",
        "generation": 2,
        "opinions": 10,
        "admission": {"inflight": 1},
        "latency": {
            "window_seconds": 300.0,
            "count": 7,
            "p50": 0.0005,
            "p95": 0.02,
            "p99": 1.5,
        },
        "slo": {
            "state": "ok",
            "availability": {
                "burn_rates": {"fast": 0.0, "slow": 0.0},
                "state": "ok",
            },
            "latency": {
                "burn_rates": {"fast": 7.5, "slow": 1.0},
                "state": "ok",
            },
        },
    }

    def test_rates_come_from_deltas(self):
        prev = _sample(
            0.0,
            {
                "repro_serve_requests_total": 100,
                "repro_serve_cache_hits_total": 10,
                "repro_serve_cache_misses_total": 10,
            },
            self.HEALTH,
        )
        curr = _sample(
            2.0,
            {
                "repro_serve_requests_total": 160,
                "repro_serve_cache_hits_total": 40,
                "repro_serve_cache_misses_total": 20,
            },
            self.HEALTH,
        )
        history = BurnHistory()
        history.push(self.HEALTH)
        frame = render_frame(prev, curr, history)
        assert "qps     30.0" in frame
        assert "cache hit  75.0%" in frame
        assert "healthy" in frame
        assert "p99 1.50s" in frame
        assert "7.50" in frame  # latency fast burn

    def test_degraded_reason_is_shown(self):
        health = dict(self.HEALTH)
        health["degraded_reason"] = "reload of x failed"
        sample = _sample(
            0.0, {"repro_serve_requests_total": 0}, health
        )
        later = _sample(
            1.0, {"repro_serve_requests_total": 0}, health
        )
        frame = render_frame(sample, later, BurnHistory())
        assert "degraded: reload of x failed" in frame


class TestValidator:
    def test_flags_missing_surfaces(self):
        problems = validate_serve_observability({}, "")
        assert any("slo" in p for p in problems)
        assert any(
            "repro_serve_request_seconds_bucket" in p
            for p in problems
        )

    def test_flags_missing_exemplars(self):
        registry = MetricsRegistry()
        # Observed without exemplars: buckets exist, no trace ids.
        registry.observe("repro_serve_request_seconds", 0.01)
        service = OpinionService(demo_table(), registry=registry)
        service.publish_slo_gauges()
        problems = validate_serve_observability(
            service.healthz(), registry.exposition()
        )
        assert any("exemplar" in p for p in problems)


class TestTopCLI:
    def test_top_once_against_live_server(
        self, served, capsys
    ):
        from repro.cli import main

        service, base = served
        get(f"{base}/query?q=cute+animals")
        rc = main(["top", "--url", base, "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "qps" in out
        assert "p99" in out
        assert "burn" in out
        assert "\x1b[" not in out  # --once emits no escape codes

    def test_top_rejects_bad_interval(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["top", "--interval", "0"])

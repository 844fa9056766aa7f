"""Tests for the observability subsystem (tracing, metrics, telemetry)."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.core.em import EMLearner
from repro.core.types import EvidenceCounts
from repro.obs import (
    CATALOG,
    ConvergenceRecord,
    MetricsError,
    MetricSpec,
    MetricsRegistry,
    NULL_SPAN,
    TraceError,
    Tracer,
    build_manifest,
    load_convergence,
    manifest_path_for,
    read_manifest,
    read_trace,
    render_convergence,
    render_metrics,
    render_trace,
    save_convergence,
    validate_metrics_payload,
    validate_spans,
    validate_trace,
    write_manifest,
)
from repro.obs.convergence import record_from_fit
from repro.obs.metrics import COUNT_BUCKETS

GOLDEN = Path(__file__).parent / "data" / "metrics_exposition.golden"


class TestTracer:
    def test_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("run", kind="run") as run:
            with tracer.span("stage", kind="stage") as stage:
                with tracer.span("document", kind="document"):
                    pass
        spans = {s["name"]: s for s in tracer.export_spans()}
        assert spans["run"]["parent_id"] is None
        assert spans["stage"]["parent_id"] == run.span_id
        assert spans["document"]["parent_id"] == stage.span_id

    def test_attrs_recorded(self):
        tracer = Tracer()
        with tracer.span("shard", kind="shard", shard_id=3) as span:
            span.set("documents", 7)
        (record,) = tracer.export_spans()
        assert record["attrs"] == {"shard_id": 3, "documents": 7}
        assert record["status"] == "ok"
        assert record["duration"] >= 0.0

    def test_exception_tags_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.span("doomed"):
                raise KeyError("boom")
        (record,) = tracer.export_spans()
        assert record["status"] == "error"
        assert record["error"] == "KeyError"
        assert record["duration"] >= 0.0

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("run", kind="run") as span:
            assert span is NULL_SPAN
            span.set("ignored", 1)  # no-op, must not raise
        assert len(tracer) == 0
        assert tracer.export_spans() == []

    def test_disabled_span_is_one_shared_object(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("run", kind="run")
        assert first is NULL_SPAN
        assert tracer.span("document", kind="document", doc_id="d") is first
        with pytest.raises(KeyError):
            with tracer.span("doomed"):
                raise KeyError("boom")

    def test_adopt_reparents_worker_roots(self):
        parent = Tracer()
        with parent.span("map", kind="stage"):
            pass
        map_id = parent.last_span_id("map", kind="stage")

        worker = Tracer()
        with worker.span("shard", kind="shard", shard_id=0):
            with worker.span("document", kind="document"):
                pass
        parent.adopt(worker.export_spans(), parent_id=map_id)

        spans = {s["name"]: s for s in parent.export_spans()}
        # the worker's root hangs off the map stage, its child off the
        # root — with fresh ids from the parent's sequence
        assert spans["shard"]["parent_id"] == map_id
        assert spans["document"]["parent_id"] == spans["shard"]["span_id"]
        ids = [s["span_id"] for s in parent.export_spans()]
        assert len(ids) == len(set(ids))
        assert validate_spans(parent.export_spans()) == []

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("run", kind="run", seed=7):
            with tracer.span("em", kind="stage"):
                pass
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        spans = read_trace(path)
        assert [s["name"] for s in spans] == ["run", "em"]
        assert spans[0]["attrs"] == {"seed": 7}
        assert validate_trace(path) == []

    def test_read_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"span_id": 0}\n')
        with pytest.raises(TraceError):
            read_trace(path)

    def test_validate_flags_violations(self):
        bad = [
            {
                "span_id": 0,
                "parent_id": 99,
                "name": "x",
                "kind": "warp",
                "start_unix": 0.0,
                "duration": -1.0,
                "attrs": {},
                "status": "meh",
            }
        ]
        problems = validate_spans(bad)
        assert any("unknown kind" in p for p in problems)
        assert any("duration" in p for p in problems)
        assert any("status" in p for p in problems)
        assert any("dangling parent_id" in p for p in problems)

    def test_validate_rejects_nan_duration(self):
        tracer = Tracer()
        with tracer.span("run", kind="run"):
            pass
        (span,) = tracer.export_spans()
        span["duration"] = float("nan")
        problems = validate_spans([span])
        assert any("duration" in p for p in problems)

    def test_profile_memory_annotates_spans(self):
        tracer = Tracer(profile_memory=True)
        with tracer.span("run", kind="run"):
            blob = bytearray(1 << 20)
            del blob
        (span,) = tracer.export_spans()
        assert span["attrs"]["rss_peak_bytes"] > 0
        assert span["attrs"]["tracemalloc_peak_bytes"] >= 0
        assert "tracemalloc_net_bytes" in span["attrs"]
        assert validate_spans([span]) == []

    def test_profile_memory_off_adds_no_attrs(self):
        tracer = Tracer()
        with tracer.span("run", kind="run"):
            pass
        (span,) = tracer.export_spans()
        assert "rss_peak_bytes" not in span["attrs"]


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("repro_documents_total")
        registry.inc("repro_documents_total", 4)
        assert registry.counter_value("repro_documents_total") == 5

    def test_undeclared_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError, match="undeclared"):
            registry.inc("repro_invented_total")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError, match="declared as a"):
            registry.observe("repro_documents_total", 1.0)

    def test_negative_counter_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError, match="only go up"):
            registry.inc("repro_documents_total", -1)

    def test_histogram_bucket_edges(self):
        # le semantics: a value equal to an edge belongs to that
        # bucket; past the last edge lands in the +Inf slot.
        registry = MetricsRegistry()
        for value in (0.0, 1.0, 1.5, 100.0, 100.1):
            registry.observe("repro_em_iterations", value)
        state = registry.to_dict()["metrics"]["repro_em_iterations"]
        assert state["buckets"] == list(COUNT_BUCKETS)
        by_edge = dict(zip(state["buckets"], state["counts"]))
        assert by_edge[0.0] == 1
        assert by_edge[1.0] == 1
        assert by_edge[2.0] == 1  # 1.5 rolls up to le=2
        assert by_edge[100.0] == 1
        assert state["counts"][-1] == 1  # 100.1 overflows to +Inf
        assert state["count"] == 5

    def test_merge_sums_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("repro_shards_total", 2)
        b.inc("repro_shards_total", 3)
        a.observe("repro_em_iterations", 4)
        b.observe("repro_em_iterations", 6)
        b.set_gauge("repro_kb_entities", 42)
        a.merge(b)
        assert a.counter_value("repro_shards_total") == 5
        merged = a.to_dict()["metrics"]
        assert merged["repro_em_iterations"]["count"] == 2
        assert merged["repro_kb_entities"]["value"] == 42

    def test_exposition_matches_golden_file(self):
        registry = MetricsRegistry()
        registry.inc("repro_documents_total", 3)
        registry.inc("repro_statements_total", 7)
        registry.set_gauge("repro_kb_entities", 100)
        for value in (1, 5, 7, 200):
            registry.observe("repro_em_iterations", value)
        assert registry.exposition() == GOLDEN.read_text()

    def test_payload_round_trip_validates(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("repro_opinions_total", 9)
        registry.observe("repro_shard_seconds", 0.25)
        path = registry.write_json(tmp_path / "m.json")
        import json

        payload = json.loads(path.read_text())
        assert validate_metrics_payload(payload) == []

    def test_payload_validation_rejects_undeclared(self):
        payload = {
            "format": "metrics",
            "version": 1,
            "metrics": {
                "repro_rogue_total": {"type": "counter", "value": 1}
            },
        }
        problems = validate_metrics_payload(payload)
        assert any("undeclared" in p for p in problems)

    def test_catalog_covers_acceptance_floor(self):
        # the ISSUE requires at least 12 distinct metric names; the
        # catalogue is the upper bound on what a run can emit
        assert len(CATALOG) >= 12
        for name, spec in CATALOG.items():
            assert isinstance(spec, MetricSpec)
            assert spec.name == name


class TestConvergence:
    def fitted(self):
        learner = EMLearner(record_path=True)
        counts = [
            EvidenceCounts(positive=9, negative=1),
            EvidenceCounts(positive=8, negative=2),
            EvidenceCounts(positive=1, negative=9),
            EvidenceCounts(positive=0, negative=0),
        ] * 5
        result = learner.fit(counts)

        class Fit:
            key = "cute animal"
            trace = result.trace
            n_entities = len(counts)
            n_statements = sum(c.total for c in counts)

        return Fit()

    def test_record_from_fit(self):
        record = record_from_fit(self.fitted())
        assert record.key == "cute animal"
        assert record.verdict in (
            "converged", "max-iterations", "degraded-fallback"
        )
        assert record.iterations == len(record.log_likelihoods)
        assert len(record.agreement_path) >= record.iterations
        assert record.final_log_likelihood == record.log_likelihoods[-1]

    def test_save_load_round_trip(self, tmp_path):
        record = record_from_fit(self.fitted())
        path = save_convergence([record], tmp_path / "conv.json")
        (loaded,) = load_convergence(path)
        assert loaded == record

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "opinions"}')
        with pytest.raises(ValueError, match="not an EM convergence"):
            load_convergence(path)

    def test_from_dict_forward_compatible(self):
        """Records written by newer (or older) code still load: every
        field but ``key`` defaults, unknown keys are ignored."""
        record = ConvergenceRecord.from_dict(
            {"key": "cute animal", "a_future_field": [1, 2, 3]}
        )
        assert record.key == "cute animal"
        assert record.verdict == "unknown"
        assert record.iterations == 0
        assert record.converged is False
        assert record.degraded is False
        assert record.log_likelihoods == ()
        assert math.isnan(record.final_log_likelihood)

    def test_from_dict_round_trips_full_record(self):
        record = record_from_fit(self.fitted())
        assert ConvergenceRecord.from_dict(record.to_dict()) == record

    def test_from_dict_requires_key(self):
        with pytest.raises(KeyError, match="key"):
            ConvergenceRecord.from_dict({"verdict": "converged"})


class TestManifest:
    def test_build_and_write(self, tmp_path):
        manifest = build_manifest(
            command="mine",
            config={"threshold": 100, "workers": 4},
            started_unix=1_700_000_000.0,
            duration_seconds=1.25,
            outputs={"opinions": "opinions.json"},
        )
        assert manifest["format"] == "run_manifest"
        assert manifest["command"] == "mine"
        assert manifest["config"]["threshold"] == 100
        assert manifest["duration_seconds"] == 1.25
        path = write_manifest(tmp_path / "m.json", manifest)
        assert path.exists()

    def test_manifest_path_convention(self):
        assert (
            manifest_path_for("out/opinions.json").name
            == "opinions.json.manifest.json"
        )

    def test_write_read_round_trip(self, tmp_path):
        manifest = build_manifest(
            command="mine",
            config={"threshold": 100, "workers": 4},
            started_unix=1_700_000_000.0,
            duration_seconds=1.25,
            outputs={"opinions": "opinions.json"},
        )
        path = write_manifest(tmp_path / "m.json", manifest)
        assert read_manifest(path) == manifest

    def test_read_preserves_unknown_keys(self, tmp_path):
        manifest = build_manifest(
            command="mine",
            config={},
            started_unix=0.0,
            duration_seconds=0.0,
            outputs={},
        )
        manifest["a_future_field"] = {"nested": True}
        path = write_manifest(tmp_path / "m.json", manifest)
        assert read_manifest(path)["a_future_field"] == {"nested": True}

    def test_read_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "opinions", "version": 1}')
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_read_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "run_manifest", "version": 99}')
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_read_rejects_non_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        def manifest(command):
            return build_manifest(
                command=command,
                config={},
                started_unix=0.0,
                duration_seconds=0.0,
            )

        path = write_manifest(tmp_path / "m.json", manifest("mine"))
        original = path.read_bytes()

        # A write that dies before its rename leaves the previous
        # manifest whole: the new bytes only ever land in a temp file.
        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr("repro.storage.serialize.os.replace", crash)
        with pytest.raises(OSError):
            write_manifest(path, manifest("ingest"))
        assert path.read_bytes() == original
        assert read_manifest(path)["command"] == "mine"


class TestRendering:
    def trace_spans(self):
        tracer = Tracer()
        with tracer.span("run", kind="run"):
            with tracer.span("map", kind="stage"):
                with tracer.span("shard", kind="shard", shard_id=0):
                    with tracer.span(
                        "document", kind="document",
                        doc_id="d1", statements=2,
                    ):
                        pass
        return tracer.export_spans()

    def test_render_trace(self):
        text = render_trace(self.trace_spans())
        assert "stage timeline" in text
        assert "per-shard latency" in text
        assert "slowest documents" in text
        assert "d1" in text

    def test_render_empty_trace(self):
        assert render_trace([]) == "(empty trace)"

    def test_render_tolerates_unfinished_spans(self):
        spans = self.trace_spans()
        stage = next(s for s in spans if s["kind"] == "stage")
        del stage["duration"]  # crashed mid-flight: never closed
        text = render_trace(spans)
        assert "RUNNING" in text
        stage["status"] = "error"
        text = render_trace(spans)
        assert "ABORTED" in text

    def test_render_shows_memory_columns_when_profiled(self):
        tracer = Tracer(profile_memory=True)
        with tracer.span("run", kind="run"):
            with tracer.span("em", kind="stage"):
                with tracer.span(
                    "combination", kind="combination", key="cute animal"
                ):
                    pass
        text = render_trace(tracer.export_spans())
        assert "rss=" in text
        assert "heap+=" in text

    def test_render_fast_path_panel(self):
        tracer = Tracer()
        with tracer.span("run", kind="run"):
            for shard_id in (0, 1):
                with tracer.span(
                    "shard",
                    kind="shard",
                    shard_id=shard_id,
                ) as span:
                    span.set(
                        "prefilter",
                        {
                            "sentences": 100,
                            "skipped": 40,
                            "memo_hits": 30,
                            "memo_misses": 70,
                            "memo_evictions": 1,
                            "skip_rate": 0.4,
                        },
                    )
        text = render_trace(tracer.export_spans())
        assert "extraction fast path:" in text
        assert "sentences=200" in text
        assert "skipped=80 (40.0%)" in text
        assert "hits=60" in text
        assert "hit rate=30.0%" in text

    def test_no_fast_path_panel_without_prefilter_attrs(self):
        text = render_trace(self.trace_spans())
        assert "extraction fast path" not in text

    def test_render_metrics(self):
        registry = MetricsRegistry()
        registry.inc("repro_opinions_total", 3)
        registry.observe("repro_em_iterations", 4)
        text = render_metrics(registry.to_dict())
        assert "repro_opinions_total" in text
        assert "le=+Inf" in text

    def test_render_convergence(self):
        record = ConvergenceRecord(
            key="cute animal",
            verdict="converged",
            iterations=3,
            converged=True,
            degraded=False,
            n_entities=10,
            n_statements=50,
            final_log_likelihood=-12.5,
            log_likelihoods=(-20.0, -14.0, -12.5),
            agreement_path=(0.8, 0.9, 0.95, 0.95),
            rate_positive_path=(0.1, 0.2, 0.3, 0.3),
            rate_negative_path=(0.3, 0.2, 0.1, 0.1),
        )
        text = render_convergence([record])
        assert "cute animal" in text
        assert "converged" in text
        assert "pA 0.80→0.95" in text

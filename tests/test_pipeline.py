"""Tests for the map/reduce executor and the full pipeline runner."""

from __future__ import annotations

import pytest

from repro.core import Polarity, PropertyTypeKey, SubjectiveProperty
from repro.corpus import CorpusGenerator
from repro.pipeline import (
    FaultInjector,
    MapReduceJob,
    PipelineMetrics,
    SurveyorPipeline,
    shard_items,
)


class TestShardItems:
    def test_round_robin(self):
        shards = shard_items(range(7), 3)
        assert shards == [[0, 3, 6], [1, 4], [2, 5]]

    def test_fewer_items_than_shards(self):
        shards = shard_items([1], 4)
        assert shards == [[1], [], [], []]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            shard_items([1], 0)


def _count_words(shard, attempt):
    return sum(len(s.split()) for s in shard)


class TestMapReduceJob:
    def word_count_job(self, executor: str = "serial") -> MapReduceJob:
        return MapReduceJob(
            mapper=_count_words,
            reducer=sum,
            n_workers=3,
            executor=executor,
        )

    def test_sequential_word_count(self):
        job = self.word_count_job()
        shards = shard_items(
            ["a b c", "d e", "f", "g h i j"], 3
        )
        assert job.run(shards) == 10

    def test_parallel_equals_sequential(self):
        shards = shard_items([f"w{i} w{i}" for i in range(20)], 4)
        sequential = self.word_count_job().run(shards)
        parallel = self.word_count_job("process").run(shards)
        assert sequential == parallel == 40

    def test_metrics_recorded(self):
        metrics = PipelineMetrics()
        job = self.word_count_job()
        job.run(shard_items(["a b", "c"], 2), metrics)
        assert metrics.stage("map").counters["shards"] == 2
        assert metrics.stage("map").counters["items"] == 2
        assert metrics.stage("reduce").counters["partials"] == 2
        assert metrics.total_seconds >= 0.0

    def test_metrics_report_readable(self):
        metrics = PipelineMetrics()
        job = self.word_count_job()
        job.run(shard_items(["a"], 1), metrics)
        report = metrics.report()
        assert "map" in report
        assert "total" in report


class TestSurveyorPipeline:
    @pytest.fixture()
    def report(self, small_kb, cute_scenario):
        corpus = CorpusGenerator(seed=21).generate(cute_scenario)
        pipeline = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, n_workers=3
        )
        return pipeline.run(corpus)

    def test_stages_timed(self, report):
        stages = set(report.metrics.stages)
        assert {"map", "reduce", "kb", "group", "em"} <= stages

    def test_opinions_produced(self, report):
        key = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
        assert report.opinions.polarity("/animal/kitten", key) is (
            Polarity.POSITIVE
        )
        assert report.opinions.polarity("/animal/snake", key) is (
            Polarity.NEGATIVE
        )

    def test_evidence_statements_counted(self, report):
        assert report.evidence.n_statements > 0
        assert report.metrics.stage("map").counters["statements"] == (
            report.evidence.n_statements
        )

    def test_summary_renders(self, report):
        summary = report.summary()
        assert "opinions emitted" in summary
        assert "evidence statements" in summary

    def test_parallel_run_equals_sequential(self, small_kb, cute_scenario):
        corpus = CorpusGenerator(seed=22).generate(cute_scenario)
        sequential = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10
        ).run(corpus)
        parallel = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, executor="process",
            n_workers=4,
        ).run(corpus)
        key = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
        for entity_id in ("/animal/kitten", "/animal/snake"):
            assert sequential.evidence.get(
                key, entity_id
            ) == parallel.evidence.get(key, entity_id)

    def test_threshold_skips_small_combinations(
        self, small_kb, cute_scenario
    ):
        corpus = CorpusGenerator(seed=23).generate(cute_scenario)
        pipeline = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=100_000
        )
        report = pipeline.run(corpus)
        assert len(report.opinions) == 0
        assert report.result.skipped

    def test_process_executor_equals_serial(
        self, small_kb, cute_scenario
    ):
        corpus = CorpusGenerator(seed=24).generate(cute_scenario)
        serial = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10
        ).run(corpus)
        process = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=10,
            executor="process",
            n_workers=2,
        ).run(corpus)
        assert (
            serial.evidence.n_statements
            == process.evidence.n_statements
        )
        key = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
        for entity_id in small_kb.entity_ids_of_type("animal"):
            assert serial.evidence.get(
                key, entity_id
            ) == process.evidence.get(key, entity_id)

    def test_invalid_executor_rejected(self):
        from repro.pipeline import MapReduceJob

        import pytest

        for executor in ("quantum", "thread"):
            with pytest.raises(ValueError):
                MapReduceJob(
                    mapper=len, reducer=sum, executor=executor
                )


class TestTimedStage:
    def test_exception_keeps_elapsed_and_tags_error(self):
        metrics = PipelineMetrics()
        with pytest.raises(RuntimeError):
            with metrics.timed("em"):
                raise RuntimeError("solver blew up")
        stage = metrics.stage("em")
        # regression: partial timings used to be lost on exception
        assert stage.wall_seconds > 0.0
        assert stage.counters["errors.RuntimeError"] == 1

    def test_exception_marks_span_error(self):
        from repro.obs import Tracer

        tracer = Tracer()
        metrics = PipelineMetrics(tracer=tracer)
        with pytest.raises(ValueError):
            with metrics.timed("group"):
                raise ValueError("bad evidence")
        (span,) = tracer.export_spans()
        assert span["name"] == "group"
        assert span["status"] == "error"
        assert span["error"] == "ValueError"

    def test_stage_metrics_merge(self):
        from repro.pipeline import StageMetrics

        parent = StageMetrics(name="map", wall_seconds=1.0)
        parent.bump("documents", 2)
        worker = StageMetrics(name="map", wall_seconds=0.5)
        worker.bump("documents", 3)
        worker.bump("sentences", 7)
        parent.merge(worker)
        assert parent.wall_seconds == 1.5
        assert parent.counters["documents"] == 5
        assert parent.counters["sentences"] == 7


class TestObservabilityIntegration:
    def run_with_executor(self, small_kb, cute_scenario, executor):
        from repro.obs import MetricsRegistry, Tracer

        corpus = CorpusGenerator(seed=31).generate(cute_scenario)
        tracer = Tracer()
        registry = MetricsRegistry()
        report = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=10,
            executor=executor,
            n_workers=2,
            tracer=tracer,
            registry=registry,
        ).run(corpus)
        return report, tracer, registry

    def worker_counters(self, report):
        counters = report.metrics.stage("map").counters
        return {
            key: counters[key]
            for key in (
                "documents", "sentences", "mentions",
                "statements_positive", "statements_negative",
            )
        }

    @pytest.mark.trace
    def test_worker_counters_survive_process_pool(
        self, small_kb, cute_scenario
    ):
        # regression: counters bumped inside process-pool workers were
        # silently dropped before WorkerTelemetry shipped them back
        serial, _, _ = self.run_with_executor(
            small_kb, cute_scenario, "serial"
        )
        pooled, tracer, registry = self.run_with_executor(
            small_kb, cute_scenario, "process"
        )
        assert self.worker_counters(pooled) == self.worker_counters(
            serial
        )
        # worker spans crossed the pool boundary and were re-parented
        from repro.obs import validate_spans

        spans = tracer.export_spans()
        kinds = {span["kind"] for span in spans}
        assert {"run", "stage", "shard", "document"} <= kinds
        assert validate_spans(spans) == []

    def test_trace_covers_all_layers(self, small_kb, cute_scenario):
        report, tracer, registry = self.run_with_executor(
            small_kb, cute_scenario, "serial"
        )
        from repro.obs import validate_spans

        spans = tracer.export_spans()
        assert validate_spans(spans) == []
        kinds = {span["kind"] for span in spans}
        assert {
            "run", "stage", "shard", "document",
            "combination", "em_iteration",
        } <= kinds
        # shard/document spans hang under the map stage span
        by_id = {span["span_id"]: span for span in spans}
        shard_spans = [s for s in spans if s["kind"] == "shard"]
        assert shard_spans
        for span in shard_spans:
            assert by_id[span["parent_id"]]["name"] == "map"

    def test_registry_and_convergence_populated(
        self, small_kb, cute_scenario
    ):
        report, _, registry = self.run_with_executor(
            small_kb, cute_scenario, "serial"
        )
        names = registry.names()
        assert len(names) >= 12
        assert registry.counter_value("repro_documents_total") > 0
        assert registry.counter_value("repro_statements_total") == (
            report.evidence.n_statements
        )
        assert report.convergence
        for record in report.convergence:
            assert record.verdict in (
                "converged", "max-iterations", "degraded-fallback"
            )
            assert record.log_likelihoods

    def test_untraced_run_has_no_telemetry_artifacts(
        self, small_kb, cute_scenario
    ):
        corpus = CorpusGenerator(seed=31).generate(cute_scenario)
        report = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10
        ).run(corpus)
        assert report.convergence == []


class TestWorkerTelemetry:
    """Per-document telemetry is built only for a consumer: spans for
    a traced run, histogram observations for a run with a registry."""

    PER_DOCUMENT = (
        "repro_document_seconds",
        "repro_statements_per_document",
        "repro_sentences_per_document",
    )

    def test_untraced_run_without_registry_ships_nothing(
        self, small_kb, cute_scenario
    ):
        corpus = CorpusGenerator(seed=31).generate(cute_scenario)
        pipeline = SurveyorPipeline(kb=small_kb, n_workers=1)
        (shard,) = corpus.shards(1)
        telemetry = pipeline._map_shard(shard, 1).telemetry
        assert telemetry.counters["documents"] == len(corpus)
        assert telemetry.observations == ()
        assert telemetry.spans == ()

    def test_registry_observes_each_document(
        self, small_kb, cute_scenario
    ):
        from repro.obs import MetricsRegistry

        corpus = CorpusGenerator(seed=31).generate(cute_scenario)
        registry = MetricsRegistry()
        report = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=10,
            n_workers=2,
            registry=registry,
            fault_injector=FaultInjector(seed=3, fail_every_nth=7),
        ).run(corpus)
        quarantined = len(report.health.quarantined)
        assert quarantined
        metrics = registry.to_dict()["metrics"]
        counts = {name: metrics[name]["count"] for name in self.PER_DOCUMENT}
        # A quarantined document records its latency only.
        assert counts == {
            "repro_document_seconds": len(corpus),
            "repro_statements_per_document": len(corpus) - quarantined,
            "repro_sentences_per_document": len(corpus) - quarantined,
        }

"""Fault-injection suite for the resilient pipeline runtime.

All injectors and retry policies use fixed seeds, so every run of this
suite exercises the identical failure schedule.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core import EMLearner, Polarity, PropertyTypeKey, SubjectiveProperty
from repro.core.errors import (
    CheckpointError,
    ExtractionError,
    FormatError,
    ModelFitError,
    ReproError,
)
from repro.corpus import CorpusGenerator
from repro.pipeline import (
    FaultInjector,
    InjectedFault,
    MapReduceJob,
    PipelineMetrics,
    RetryPolicy,
    ShardTimeoutError,
    SurveyorPipeline,
    shard_items,
)
from repro.storage import load_shard_checkpoint, save

CUTE_ANIMAL = PropertyTypeKey(SubjectiveProperty("cute"), "animal")


# Process-executor mappers live at module level so workers can unpickle
# them; each is called as ``mapper(shard, attempt)``.
def _sum_unless_two(shard, attempt):
    if 2 in shard:
        raise RuntimeError("always down")
    return sum(shard)


def _len_after_slow(shard, attempt):
    if "slow" in shard:
        time.sleep(0.3)
    return len(shard)


def _len_after_nap(shard, attempt):
    time.sleep(0.3)
    return len(shard)


def _single_shard_job(mapper, policy):
    return MapReduceJob(
        mapper=mapper, reducer=sum, retry_policy=policy
    )


# ---------------------------------------------------------------------------
# RetryPolicy under the executor's retry loop
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0,
            max_delay=0.3, jitter=0.0,
        )
        delays = [policy.delay(attempt) for attempt in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.1, jitter=0.5, seed=42
        )
        first = policy.delay(1, key=7)
        assert first == policy.delay(1, key=7)
        assert 0.05 <= first <= 0.15
        # Different shard keys draw different jitter.
        assert first != policy.delay(1, key=8)

    def test_succeeds_after_transient_failures(self):
        attempts = []

        def flaky(shard, attempt):
            attempts.append(attempt)
            if attempt < 3:
                raise RuntimeError("transient")
            return sum(shard)

        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        metrics = PipelineMetrics()
        job = _single_shard_job(flaky, policy)
        assert job.run([[5]], metrics) == 5
        assert attempts == [1, 2, 3]
        assert metrics.health.retries == 2

    def test_exhaustion_raises_last_error(self):
        def always(shard, attempt):
            raise RuntimeError(f"permanent {attempt}")

        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with pytest.raises(RuntimeError, match="permanent 2"):
            _single_shard_job(always, policy).run([[1]])

    def test_non_retryable_raises_immediately(self):
        attempts = []

        def fails(shard, attempt):
            attempts.append(attempt)
            raise KeyError("not retryable")

        policy = RetryPolicy(
            max_attempts=5, base_delay=0.0, jitter=0.0,
            retryable=(RuntimeError,),
        )
        with pytest.raises(KeyError):
            _single_shard_job(fails, policy).run([[1]])
        assert attempts == [1]


# ---------------------------------------------------------------------------
# MapReduceJob resilience
# ---------------------------------------------------------------------------

class TestMapReduceResilience:
    def test_n_workers_validated(self):
        with pytest.raises(ValueError, match="n_workers"):
            MapReduceJob(mapper=len, reducer=sum, n_workers=0)
        with pytest.raises(ValueError, match="n_workers"):
            MapReduceJob(mapper=len, reducer=sum, n_workers=-3)

    def test_shard_timeout_validated(self):
        with pytest.raises(ValueError, match="shard_timeout"):
            MapReduceJob(mapper=len, reducer=sum, shard_timeout=0.0)

    def test_empty_shards_not_dispatched(self):
        seen = []

        def mapper(shard, attempt):
            seen.append(list(shard))
            return len(shard)

        metrics = PipelineMetrics()
        job = MapReduceJob(mapper=mapper, reducer=sum)
        total = job.run(shard_items([1, 2], 5), metrics)
        assert total == 2
        assert seen == [[1], [2]]
        assert metrics.health.empty_shards == 3

    def test_serial_retry_then_success(self):
        calls = []

        def mapper(shard, attempt):
            calls.append((shard[0], attempt))
            if shard == [2] and attempt == 1:
                raise RuntimeError("flaky shard")
            return sum(shard)

        metrics = PipelineMetrics()
        job = MapReduceJob(
            mapper=mapper,
            reducer=sum,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.0, jitter=0.0
            ),
        )
        assert job.run([[1], [2], [3]], metrics) == 6
        # Serially a shard's retries run before the next shard starts.
        assert calls == [(1, 1), (2, 1), (2, 2), (3, 1)]
        assert metrics.health.retries == 1
        assert not metrics.health.failed_shards

    def test_failed_shard_skipped_and_recorded(self):
        def mapper(shard, attempt):
            if 2 in shard:
                raise RuntimeError("poisoned")
            return sum(shard)

        metrics = PipelineMetrics()
        job = MapReduceJob(
            mapper=mapper,
            reducer=sum,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0
            ),
            skip_failed_shards=True,
        )
        assert job.run([[1], [2], [3]], metrics) == 4
        failures = metrics.health.failed_shards
        assert [f.shard_id for f in failures] == [1]
        assert failures[0].attempts == 2
        assert "poisoned" in failures[0].error
        assert metrics.health.retries == 1

    def test_failed_shard_raises_without_skip(self):
        def mapper(shard, attempt):
            raise RuntimeError("boom")

        job = MapReduceJob(mapper=mapper, reducer=sum)
        with pytest.raises(RuntimeError, match="boom"):
            job.run([[1], [2]])

    def test_serial_failure_maps_no_later_shard(self):
        seen = []

        def mapper(shard, attempt):
            seen.append((shard[0], attempt))
            if shard == [2]:
                raise RuntimeError("down")
            return sum(shard)

        job = MapReduceJob(
            mapper=mapper,
            reducer=sum,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0
            ),
        )
        with pytest.raises(RuntimeError, match="down"):
            job.run([[1], [2], [3], [4]])
        assert seen == [(1, 1), (2, 1), (2, 2)]

    @pytest.mark.slow
    def test_process_executor_retries_and_skips(self):
        metrics = PipelineMetrics()
        job = MapReduceJob(
            mapper=_sum_unless_two,
            reducer=sum,
            executor="process",
            n_workers=2,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.0, jitter=0.0
            ),
            skip_failed_shards=True,
        )
        assert job.run([[1], [2], [3], [4]], metrics) == 8
        assert metrics.health.retries == 2
        assert [f.shard_id for f in metrics.health.failed_shards] == [1]

    @pytest.mark.slow
    def test_process_executor_shard_timeout(self):
        metrics = PipelineMetrics()
        job = MapReduceJob(
            mapper=_len_after_slow,
            reducer=sum,
            executor="process",
            n_workers=2,
            shard_timeout=0.1,
            retry_policy=RetryPolicy(
                max_attempts=1, base_delay=0.0, jitter=0.0
            ),
            skip_failed_shards=True,
        )
        assert job.run([["a", "b"], ["slow"], ["c"]], metrics) == 3
        failures = metrics.health.failed_shards
        assert [f.shard_id for f in failures] == [1]
        assert "ShardTimeoutError" in failures[0].error

    @pytest.mark.slow
    def test_queued_shard_deadline_starts_at_dispatch(self):
        """Regression: every shard used to be submitted up front with
        its deadline already running, so shards still waiting for a
        free worker timed out before they started."""
        metrics = PipelineMetrics()
        job = MapReduceJob(
            mapper=_len_after_nap,
            reducer=sum,
            executor="process",
            n_workers=2,
            shard_timeout=0.5,
            retry_policy=RetryPolicy(
                max_attempts=1, base_delay=0.0, jitter=0.0
            ),
            skip_failed_shards=True,
        )
        assert job.run([[i] for i in range(6)], metrics) == 6
        assert metrics.health.failed_shards == []

    def test_shard_timeout_error_is_repro_error(self):
        assert issubclass(ShardTimeoutError, ReproError)


# ---------------------------------------------------------------------------
# Fault injector determinism
# ---------------------------------------------------------------------------

class TestFaultInjector:
    def test_document_selection_is_deterministic(self):
        injector = FaultInjector(seed=7, fail_every_nth=10)
        ids = [f"doc-{i:04d}" for i in range(500)]
        first = {d for d in ids if injector.should_fail_document(d)}
        again = {d for d in ids if injector.should_fail_document(d)}
        assert first == again
        # Roughly one in ten, and the seed changes the selection.
        assert 20 <= len(first) <= 90
        other = FaultInjector(seed=8, fail_every_nth=10)
        assert first != {
            d for d in ids if other.should_fail_document(d)
        }

    def test_poison_shard_always_raises(self):
        injector = FaultInjector(poison_shards=(2,))
        injector.on_shard_start(1, 1)
        for attempt in (1, 2, 3):
            with pytest.raises(InjectedFault):
                injector.on_shard_start(2, attempt)

    def test_flaky_shard_fails_then_succeeds(self):
        injector = FaultInjector(flaky_shards=(0,), flaky_failures=2)
        with pytest.raises(InjectedFault):
            injector.on_shard_start(0, 1)
        with pytest.raises(InjectedFault):
            injector.on_shard_start(0, 2)
        injector.on_shard_start(0, 3)  # third attempt succeeds

    def test_flaky_decision_is_stateless_with_explicit_attempt(self):
        """With the attempt number threaded through, flakiness is a
        pure function — a fresh injector copy per attempt (what the
        process executor's workers effectively are) still converges."""
        for attempt in (1, 2):
            fresh = FaultInjector(
                flaky_shards=(0,), flaky_failures=2
            )
            with pytest.raises(InjectedFault):
                fresh.on_shard_start(0, attempt)
        fresh = FaultInjector(flaky_shards=(0,), flaky_failures=2)
        fresh.on_shard_start(0, 3)  # no shared state needed

    def test_injected_fault_is_extraction_error(self):
        assert issubclass(InjectedFault, ExtractionError)
        assert issubclass(InjectedFault, ReproError)


# ---------------------------------------------------------------------------
# End-to-end pipeline resilience (the acceptance scenario)
# ---------------------------------------------------------------------------

@pytest.fixture()
def corpus(cute_scenario):
    return CorpusGenerator(seed=21).generate(cute_scenario)


class TestPipelineFaultInjection:
    def test_quarantines_exactly_the_injected_failures(
        self, small_kb, corpus
    ):
        n_workers = 4
        injector = FaultInjector(
            seed=7, fail_every_nth=10, poison_shards=(1,)
        )
        pipeline = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=10,
            n_workers=n_workers,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0
            ),
            fault_injector=injector,
        )
        report = pipeline.run(corpus)
        health = report.health

        # The poisoned shard is skipped after its retries...
        assert [f.shard_id for f in health.failed_shards] == [1]
        assert health.retries >= 1

        # ...and the quarantined documents are exactly the injected
        # per-document faults on the surviving shards.
        poisoned_docs = {
            doc.doc_id for doc in corpus.shards(n_workers)[1]
        }
        expected = {
            doc.doc_id
            for doc in corpus
            if injector.should_fail_document(doc.doc_id)
            and doc.doc_id not in poisoned_docs
        }
        assert expected  # the seed must actually inject something
        quarantined = {letter.doc_id for letter in health.quarantined}
        assert quarantined == expected
        for letter in health.quarantined:
            assert letter.stage == "inject"
            assert "InjectedFault" in letter.error

        # Unaffected entities still get opinions.
        assert report.opinions.polarity(
            "/animal/kitten", CUTE_ANIMAL
        ) is Polarity.POSITIVE
        assert report.opinions.polarity(
            "/animal/snake", CUTE_ANIMAL
        ) is Polarity.NEGATIVE

        # The summary surfaces the health section.
        summary = report.summary()
        assert "health: degraded" in summary
        assert "failed shard 1" in summary

    def test_healthy_run_reports_ok(self, small_kb, corpus):
        report = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10
        ).run(corpus)
        assert report.health.healthy
        assert "health: ok" in report.summary()

    def test_flaky_shard_recovers_via_retry(self, small_kb, corpus):
        pipeline = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=10,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.0, jitter=0.0
            ),
            fault_injector=FaultInjector(
                flaky_shards=(0,), flaky_failures=1
            ),
        )
        report = pipeline.run(corpus)
        assert report.health.retries >= 1
        assert not report.health.failed_shards
        baseline = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10
        ).run(corpus)
        assert (
            report.evidence.n_statements
            == baseline.evidence.n_statements
        )

    @pytest.mark.parametrize(
        "executor",
        ["serial", pytest.param("process", marks=pytest.mark.slow)],
    )
    def test_flaky_recovery_identical_across_executors(
        self, small_kb, corpus, executor
    ):
        """Regression for the documented process-executor gap: flaky
        shards now recover on retry on ALL executors, because the
        attempt number travels with the task instead of living in
        coordinator memory that pickled workers cannot see."""
        pipeline = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=10,
            executor=executor,
            n_workers=4,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.0, jitter=0.0
            ),
            fault_injector=FaultInjector(
                flaky_shards=(0, 2), flaky_failures=2
            ),
        )
        report = pipeline.run(corpus)
        assert report.health.retries >= 2
        assert not report.health.failed_shards
        baseline = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10
        ).run(corpus)
        assert (
            report.evidence.n_statements
            == baseline.evidence.n_statements
        )

    def test_strict_mode_fails_fast(self, small_kb, corpus):
        pipeline = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=10,
            strict=True,
            fault_injector=FaultInjector(seed=7, fail_every_nth=10),
        )
        with pytest.raises(InjectedFault):
            pipeline.run(corpus)

    def test_quarantine_survives_process_executor(
        self, small_kb, corpus
    ):
        injector = FaultInjector(seed=7, fail_every_nth=10)
        serial = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10,
            fault_injector=injector,
        ).run(corpus)
        pooled = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, executor="process",
            n_workers=4,
            fault_injector=FaultInjector(seed=7, fail_every_nth=10),
        ).run(corpus)
        assert {d.doc_id for d in serial.health.quarantined} == {
            d.doc_id for d in pooled.health.quarantined
        }
        assert (
            serial.evidence.n_statements
            == pooled.evidence.n_statements
        )


# ---------------------------------------------------------------------------
# Checkpointing and resume
# ---------------------------------------------------------------------------

class TestCheckpointing:
    def opinions_bytes(self, report, tmp_path, name):
        path = save(report.opinions, tmp_path / name)
        return path.read_bytes()

    def test_interrupted_run_resumes_byte_identical(
        self, small_kb, corpus, tmp_path
    ):
        run_dir = tmp_path / "run"
        clean = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, n_workers=4
        ).run(corpus)
        expected = self.opinions_bytes(clean, tmp_path, "clean.json")

        # First run dies mid-extraction: shard 2 is poisoned and the
        # pipeline is strict, so the run aborts after checkpointing
        # the shards that completed before it.
        interrupted = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=10,
            n_workers=4,
            strict=True,
            checkpoint_dir=run_dir,
            fault_injector=FaultInjector(poison_shards=(2,)),
        )
        with pytest.raises(InjectedFault):
            interrupted.run(corpus)
        checkpoints = sorted(p.name for p in run_dir.glob("*.json"))
        assert checkpoints == ["shard-00000.json", "shard-00001.json"]

        # The resumed run loads them and recomputes only the rest.
        resumed = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=10,
            n_workers=4,
            checkpoint_dir=run_dir,
        ).run(corpus)
        assert resumed.health.resumed_shards == 2
        assert resumed.health.checkpointed_shards == 2
        actual = self.opinions_bytes(resumed, tmp_path, "resumed.json")
        assert actual == expected

    def test_full_rerun_from_checkpoints_is_identical(
        self, small_kb, corpus, tmp_path
    ):
        run_dir = tmp_path / "run"
        first = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, n_workers=3,
            checkpoint_dir=run_dir,
        ).run(corpus)
        assert first.health.checkpointed_shards == 3
        second = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, n_workers=3,
            checkpoint_dir=run_dir,
        ).run(corpus)
        assert second.health.resumed_shards == 3
        assert self.opinions_bytes(
            first, tmp_path, "first.json"
        ) == self.opinions_bytes(second, tmp_path, "second.json")

    def test_checkpoint_roundtrips_dead_letters(
        self, small_kb, corpus, tmp_path
    ):
        run_dir = tmp_path / "run"
        injector = FaultInjector(seed=7, fail_every_nth=10)
        first = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, n_workers=2,
            checkpoint_dir=run_dir, fault_injector=injector,
        ).run(corpus)
        assert first.health.quarantined
        second = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, n_workers=2,
            checkpoint_dir=run_dir,
        ).run(corpus)
        assert second.health.resumed_shards == 2
        assert {d.doc_id for d in second.health.quarantined} == {
            d.doc_id for d in first.health.quarantined
        }

    def test_corrupt_checkpoint_is_recomputed(
        self, small_kb, corpus, tmp_path
    ):
        run_dir = tmp_path / "run"
        SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, n_workers=2,
            checkpoint_dir=run_dir,
        ).run(corpus)
        victim = run_dir / "shard-00000.json"
        victim.write_text("{not json")
        report = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, n_workers=2,
            checkpoint_dir=run_dir,
        ).run(corpus)
        assert report.health.corrupt_checkpoints == 1
        assert report.health.resumed_shards == 1
        assert report.health.checkpointed_shards == 1
        # The corrupt file was replaced by a fresh, loadable one.
        shard_id, counter, letters, _ = load_shard_checkpoint(victim)
        assert shard_id == 0

    def test_load_shard_checkpoint_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("][")
        with pytest.raises(CheckpointError):
            load_shard_checkpoint(path)
        path.write_text(json.dumps({"format": "opinions"}))
        with pytest.raises((CheckpointError, ValueError)):
            load_shard_checkpoint(path)


# ---------------------------------------------------------------------------
# Degenerate EM fits
# ---------------------------------------------------------------------------

class ExplodingLearner(EMLearner):
    """Learner whose M-step reports a NaN likelihood (divergence)."""

    def _m_step(self, pos, neg, resp, weights=None):
        theta, _ = super()._m_step(pos, neg, resp, weights)
        return theta, float("nan")


class TestDegenerateFits:
    def test_empty_evidence_raises_model_fit_error(self):
        with pytest.raises(ModelFitError):
            EMLearner().fit([])
        # Backwards compatible with the historical ValueError contract.
        with pytest.raises(ValueError):
            EMLearner().fit([])

    def test_nan_fit_falls_back_to_majority(self):
        from repro.core import EvidenceCounts

        evidence = [
            EvidenceCounts(5, 1),
            EvidenceCounts(0, 4),
            EvidenceCounts(2, 2),
        ]
        result = ExplodingLearner().fit(evidence)
        assert result.trace.degraded
        assert list(result.responsibilities) == [1.0, 0.0, 0.5]

    def test_pipeline_reports_degraded_combination(
        self, small_kb, corpus
    ):
        pipeline = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=10,
            learner=ExplodingLearner(),
        )
        report = pipeline.run(corpus)
        assert report.result.degraded
        assert report.health.degraded_combinations
        assert "degraded combination" in report.summary()
        # Majority voting still separates the clear-cut animals.
        assert report.opinions.polarity(
            "/animal/kitten", CUTE_ANIMAL
        ) is Polarity.POSITIVE
        assert report.opinions.polarity(
            "/animal/snake", CUTE_ANIMAL
        ) is Polarity.NEGATIVE


# ---------------------------------------------------------------------------
# CLI robustness
# ---------------------------------------------------------------------------

class TestCliRobustness:
    def test_missing_corpus_exits_2_with_message(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["mine", str(tmp_path / "nope.txt")])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1

    def test_corrupt_kb_exits_2_with_message(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        corpus = tmp_path / "docs.txt"
        corpus.write_text("Kittens are cute.\n")
        bad_kb = tmp_path / "kb.json"
        bad_kb.write_text("{broken")
        rc = main(["mine", str(corpus), "--kb", str(bad_kb)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")

    def test_strict_restores_raw_traceback(self, tmp_path):
        from repro.cli import main

        corpus = tmp_path / "docs.txt"
        corpus.write_text("Kittens are cute.\n")
        bad_kb = tmp_path / "kb.json"
        bad_kb.write_text("{broken")
        with pytest.raises(FormatError) as raised:
            main(
                ["mine", str(corpus), "--kb", str(bad_kb), "--strict"]
            )
        assert isinstance(raised.value.__cause__, json.JSONDecodeError)

    def test_mine_with_checkpoints_and_summary_health(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        corpus = tmp_path / "docs.txt"
        corpus.write_text(
            "Kittens are cute.\nTigers are not cute.\n"
        )
        out = tmp_path / "opinions.json"
        rc = main(
            [
                "mine", str(corpus),
                "--out", str(out),
                "--threshold", "1",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
            ]
        )
        assert rc == 0
        assert "health:" in capsys.readouterr().err
        assert sorted(
            p.name for p in (tmp_path / "ckpt").glob("*.json")
        )

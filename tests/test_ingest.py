"""Tests for the streaming ingestion subsystem.

Covers the corpus journal (durability, torn-tail recovery, offset
discipline), the incremental pipeline (differential bit-parity with
the one-shot batch on every harness scenario, persisted-state resume,
manifests, metrics), the server's ingest endpoint and sidecar
stat-cache, and the ``repro top`` ingest panel.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import shutil
import signal
import subprocess
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.corpus import CorpusGenerator, NoiseProfile
from repro.corpus.document import Document, WebCorpus
from repro.evaluation.harness import (
    EVALUATION_TYPES,
    EvaluationHarness,
)
from repro.extraction.provenance import ProvenanceIndex, ProvenanceLedger
from repro.ingest import (
    CorpusJournal,
    DuplicateOffsetError,
    IngestPipeline,
    JournalError,
    load_state,
    save_state,
    state_path_for,
)
from repro.core import OpinionTable, Polarity
from repro.kb.seeds import evaluation_kb
from repro.obs import MetricsRegistry
from repro.obs.convergence import records_from_result
from repro.obs.drift import compare_tables
from repro.obs.live import Sample, render_frame, render_ingest_panel
from repro.obs.manifest import (
    git_describe,
    manifest_path_for,
    read_manifest,
)
from repro.pipeline import SurveyorPipeline
from repro.pipeline.faults import FaultInjector, InjectedFault
from repro.serve import (
    OpinionIndex,
    OpinionService,
    ServeError,
    documents_from_payload,
    load_provenance_sidecar,
    serve_async,
)
from repro.storage import (
    FormatError,
    load,
    opinions_to_dict,
    provenance_path_for,
    provenance_to_dict,
    save,
)

from .conftest import AsyncHarness


def docs(*texts: str, prefix: str = "d") -> list[Document]:
    return [
        Document(doc_id=f"{prefix}{i}", text=text)
        for i, text in enumerate(texts)
    ]


def journal_bytes(journal: CorpusJournal) -> bytes:
    """Concatenated segment bytes, in segment order."""
    return b"".join(
        path.read_bytes() for path in journal._segments()
    )


def journal_frames(data: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` byte ranges of the whole frames in ``data``."""
    frames = []
    position = 0
    while position < len(data):
        newline = data.index(b"\n", position)
        end = newline + 1 + int(data[position:newline]) + 1
        frames.append((position, end))
        position = end
    return frames


def fingerprint(table) -> str:
    return json.dumps(opinions_to_dict(table), sort_keys=True)


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------

class TestJournal:
    def test_roundtrip_assigns_monotonic_offsets(self, tmp_path):
        journal = CorpusJournal(tmp_path / "j")
        offsets = journal.append(docs("one", "two"))
        assert offsets == [0, 1]
        assert journal.append(docs("three")) == [2]
        replayed = list(journal.replay())
        assert [r.offset for r in replayed] == [0, 1, 2]
        assert [r.document.text for r in replayed] == [
            "one", "two", "three",
        ]
        # A cold reopen sees the same committed state.
        reopened = CorpusJournal(tmp_path / "j")
        assert reopened.last_offset == 2
        assert reopened.n_records == 3
        assert reopened.truncated_bytes == 0

    def test_replay_resumes_above_watermark(self, tmp_path):
        journal = CorpusJournal(tmp_path / "j")
        journal.append(docs("a", "b", "c", "d"))
        assert [r.offset for r in journal.replay(after=1)] == [2, 3]
        assert list(journal.replay(after=3)) == []

    def test_blank_doc_ids_get_offset_ids(self, tmp_path):
        journal = CorpusJournal(tmp_path / "j")
        journal.append(
            [Document(doc_id="", text="anonymous upload")]
        )
        (record,) = journal.replay()
        assert record.document.doc_id == "ingested-00000000"

    def test_segments_roll_at_size_limit(self, tmp_path):
        journal = CorpusJournal(tmp_path / "j", max_segment_bytes=1)
        journal.append(docs("a", "b"))
        journal.append(docs("c"))
        assert journal.n_segments >= 2
        reopened = CorpusJournal(tmp_path / "j", max_segment_bytes=1)
        assert [r.offset for r in reopened.replay()] == [0, 1, 2]

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        journal = CorpusJournal(tmp_path / "j")
        journal.append(docs("whole one", "whole two"))
        segment = journal._segments()[-1]
        clean = segment.read_bytes()
        # A crash mid-write leaves a partial record at the tail.
        with segment.open("ab") as handle:
            handle.write(b'87\n{"doc_id": "torn", "off')
        repaired = CorpusJournal(tmp_path / "j")
        assert repaired.truncated_bytes > 0
        assert repaired.n_records == 2
        assert segment.read_bytes() == clean
        # And a second open finds nothing left to repair.
        assert CorpusJournal(tmp_path / "j").truncated_bytes == 0

    def test_mid_file_damage_is_corruption_not_a_crash(
        self, tmp_path
    ):
        journal = CorpusJournal(tmp_path / "j", max_segment_bytes=1)
        journal.append(docs("a"))
        journal.append(docs("b"))
        assert journal.n_segments == 2
        first = journal._segments()[0]
        data = first.read_bytes()
        first.write_bytes(data[: len(data) - 2])  # tear a NON-final segment
        with pytest.raises(JournalError, match="non-final"):
            CorpusJournal(tmp_path / "j", max_segment_bytes=1)

    def test_complete_frame_with_bad_json_is_corruption(
        self, tmp_path
    ):
        journal = CorpusJournal(tmp_path / "j")
        journal.append(docs("fine"))
        segment = journal._segments()[-1]
        # A full, length-consistent frame whose payload is garbage
        # cannot be a torn write — the prefix proves it was framed.
        with segment.open("ab") as handle:
            handle.write(b"7\nnotjson\n")
        with pytest.raises(JournalError, match="corrupt"):
            CorpusJournal(tmp_path / "j")

    @pytest.mark.parametrize(
        "damage",
        [
            # n -> n + 1: the frame still lies inside the file.
            lambda prefix: b"%d" % (int(prefix) + 1),
            # A digit put in front: the frame runs past end-of-file,
            # but across the later frames' newlines, which no
            # cut-short write leaves behind.
            lambda prefix: b"9" + prefix,
        ],
        ids=["one-longer", "past-the-end"],
    )
    def test_damaged_length_prefix_is_corruption_not_a_torn_tail(
        self, tmp_path, damage
    ):
        journal = CorpusJournal(tmp_path / "j")
        journal.append(docs("a", "b", "c", "d", "e", "f"))
        segment = journal._segments()[-1]
        data = segment.read_bytes()
        start = journal_frames(data)[2][0]
        newline = data.index(b"\n", start)
        damaged = data[:start] + damage(data[start:newline]) + data[newline:]
        segment.write_bytes(damaged)
        with pytest.raises(JournalError, match="corrupt"):
            CorpusJournal(tmp_path / "j")
        assert segment.read_bytes() == damaged

    def test_duplicate_offset_rejected_and_nothing_written(
        self, tmp_path
    ):
        journal = CorpusJournal(tmp_path / "j")
        journal.append(docs("a", "b"))
        before = journal_bytes(journal)
        with pytest.raises(DuplicateOffsetError):
            journal.append(docs("late echo"), offsets=[1])
        assert journal_bytes(journal) == before
        assert journal.last_offset == 1
        assert journal.n_records == 2

    def test_a_second_writer_makes_the_first_refuse(self, tmp_path, small_kb):
        def pipeline():
            return IngestPipeline(
                kb=small_kb,
                journal=CorpusJournal(tmp_path / "j"),
                occurrence_threshold=1,
            )

        first = pipeline()
        first.ingest(docs("Kittens are cute.", prefix="a"))
        second = pipeline()
        second.ingest(docs("Snakes are not cute.", prefix="b"))
        before = journal_bytes(first.journal)
        with pytest.raises(JournalError, match="another writer"):
            first.ingest(docs("Bunnies are cute.", prefix="c"))
        assert journal_bytes(first.journal) == before
        reopened = CorpusJournal(tmp_path / "j")
        assert [r.offset for r in reopened.replay()] == [0, 1]
        assert not reopened.behind_disk()

    def test_replay_reads_from_the_first_wanted_record(
        self, tmp_path, monkeypatch
    ):
        journal = CorpusJournal(tmp_path / "j", max_segment_bytes=200)
        journal.append(docs(*(f"document {i}" for i in range(12))))
        journal.append(docs("late"))
        assert journal.n_segments > 1
        monkeypatch.setattr(
            Path, "read_bytes", lambda path: pytest.fail("whole read")
        )
        for after in range(-1, 13):
            replayed = list(journal.replay(after=after))
            assert [r.offset for r in replayed] == list(range(after + 1, 13))
        assert replayed == []

    def test_explicit_offsets_must_line_up(self, tmp_path):
        journal = CorpusJournal(tmp_path / "j")
        with pytest.raises(JournalError, match="offsets"):
            journal.append(docs("a", "b"), offsets=[0])
        assert journal.append(docs("a", "b"), offsets=[5, 9]) == [
            5, 9,
        ]
        assert journal.last_offset == 9


# ---------------------------------------------------------------------------
# Crash recovery (FaultInjector mid-commit kills)
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def test_mid_commit_kill_then_reopen_is_byte_identical(
        self, tmp_path
    ):
        first = docs("committed before the crash", prefix="pre")
        second = docs("arrives during the crash", prefix="crash")
        crashed = CorpusJournal(tmp_path / "crashed")
        crashed.append(first)
        # Kill the writer between the two halves of the next record.
        crashed.fault_injector = FaultInjector(fail_every_nth=1)
        with pytest.raises(InjectedFault):
            crashed.append(second)
        # The torn record is visible on disk...
        committed = journal_bytes(crashed)
        clean_journal = CorpusJournal(tmp_path / "reference")
        clean_journal.append(first)
        assert committed != journal_bytes(clean_journal)
        # ...and this instance refuses to write over it.
        crashed.fault_injector = None
        with pytest.raises(JournalError, match="reopen"):
            crashed.append(docs("more"))

        repaired = CorpusJournal(tmp_path / "crashed")
        assert repaired.truncated_bytes > 0
        assert repaired.n_records == 1
        # After repair + retrying the failed batch, the journal is
        # byte-identical to one that never crashed.
        repaired.append(second)
        clean_journal.append(second)
        assert journal_bytes(repaired) == journal_bytes(clean_journal)
        assert [r.offset for r in repaired.replay()] == [0, 1]

    def test_kill_inside_a_batch_keeps_no_partial_batch(
        self, tmp_path
    ):
        journal = CorpusJournal(
            tmp_path / "j",
            fault_injector=FaultInjector(fail_every_nth=1),
        )
        with pytest.raises(InjectedFault):
            journal.append(docs("a", "b", "c"))
        repaired = CorpusJournal(tmp_path / "j")
        # The batch never committed: offsets did not advance.
        assert repaired.last_offset == -1
        assert repaired.truncated_bytes > 0
        repaired.append(docs("a", "b", "c"))
        assert repaired.last_offset == 2


# ---------------------------------------------------------------------------
# Differential parity: incremental journal replay == one-shot batch
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def harness():
    return EvaluationHarness()


@pytest.fixture(scope="module")
def scenario_by_type(harness):
    return {
        scenario.name.removeprefix("eval-"): scenario
        for scenario in harness.scenarios()
    }


@pytest.fixture(scope="module")
def eval_corpus(scenario_by_type):
    """Memoized per-type harness corpora (regenerating one costs a
    few seconds; the animal world is reused by several tests)."""
    cache = {}

    def corpus_of(entity_type):
        if entity_type not in cache:
            cache[entity_type] = CorpusGenerator(
                seed=2015, noise=NoiseProfile()
            ).generate(scenario_by_type[entity_type])
        return cache[entity_type]

    return corpus_of


@pytest.fixture(scope="module")
def batch_result(harness, eval_corpus):
    """Memoized one-shot batch runs — the parity reference."""
    cache = {}

    def result_of(entity_type):
        if entity_type not in cache:
            cache[entity_type] = SurveyorPipeline(
                kb=harness.kb, n_workers=1
            ).run(eval_corpus(entity_type)).result
        return cache[entity_type]

    return result_of


class TestDifferentialParity:
    @pytest.mark.parametrize("entity_type", EVALUATION_TYPES)
    def test_chunked_ingest_matches_batch(
        self, tmp_path, harness, eval_corpus, batch_result,
        entity_type,
    ):
        corpus = eval_corpus(entity_type)
        batch = batch_result(entity_type)

        journal = CorpusJournal(tmp_path / "journal")
        pipeline = IngestPipeline(kb=harness.kb, journal=journal)
        half = len(corpus.documents) // 2
        pipeline.ingest(corpus.documents[:half])
        report = pipeline.ingest(corpus.documents[half:])

        assert fingerprint(report.table) == fingerprint(
            batch.opinions
        )
        assert set(report.result.degraded) == set(batch.degraded)
        assert report.generation == 2
        assert report.journal_offset == len(corpus.documents) - 1

    def test_resume_from_persisted_state(
        self, tmp_path, harness, eval_corpus, batch_result
    ):
        corpus = eval_corpus("animal")
        batch = batch_result("animal")

        half = len(corpus.documents) // 2
        first = IngestPipeline(
            kb=harness.kb, journal=CorpusJournal(tmp_path / "j")
        )
        first.ingest(corpus.documents[:half])

        # A brand-new process resumes from state.json + the journal.
        second = IngestPipeline(
            kb=harness.kb, journal=CorpusJournal(tmp_path / "j")
        )
        assert not second.state.fresh
        report = second.ingest(corpus.documents[half:])
        assert fingerprint(report.table) == fingerprint(
            batch.opinions
        )

        # And an advance with nothing new reuses every cached fit.
        third = IngestPipeline(
            kb=harness.kb, journal=CorpusJournal(tmp_path / "j")
        )
        idle = third.advance()
        assert idle.documents == 0
        assert idle.refitted == 0
        assert idle.reused == len(report.result.fits)
        assert fingerprint(idle.table) == fingerprint(
            batch.opinions
        )

    def test_crash_between_apply_and_save_replays_deterministically(
        self, tmp_path, harness, eval_corpus
    ):
        corpus = eval_corpus("animal")
        half = len(corpus.documents) // 2

        steady = IngestPipeline(
            kb=harness.kb, journal=CorpusJournal(tmp_path / "steady")
        )
        steady.ingest(corpus.documents[:half])
        expected = fingerprint(
            steady.ingest(corpus.documents[half:]).table
        )

        crashy = IngestPipeline(
            kb=harness.kb, journal=CorpusJournal(tmp_path / "crashy")
        )
        crashy.ingest(corpus.documents[:half])
        # Simulate dying after the journal committed the second batch
        # but before extraction state was saved: append only.
        crashy.append(corpus.documents[half:])
        resumed = IngestPipeline(
            kb=harness.kb, journal=CorpusJournal(tmp_path / "crashy")
        )
        report = resumed.advance()
        assert report.documents == len(corpus.documents) - half
        assert fingerprint(report.table) == expected


# ---------------------------------------------------------------------------
# Pipeline state, manifests, metrics
# ---------------------------------------------------------------------------

def cute_corpus(cute_scenario):
    return CorpusGenerator(seed=9).generate(cute_scenario)


class TestPipelineState:
    def test_state_persists_and_reloads(
        self, tmp_path, small_kb, cute_scenario
    ):
        corpus = cute_corpus(cute_scenario)
        pipeline = IngestPipeline(
            kb=small_kb,
            journal=CorpusJournal(tmp_path / "j"),
            occurrence_threshold=1,
        )
        report = pipeline.ingest(corpus.documents)
        assert state_path_for(tmp_path / "j").exists()
        state = load_state(tmp_path / "j")
        assert state.applied_offset == report.journal_offset
        assert state.generation == report.generation
        assert set(state.fits) == set(report.result.fits)
        assert state.evidence == pipeline.state.evidence

    def test_missing_state_is_fresh(self, tmp_path):
        state = load_state(tmp_path)
        assert state.fresh
        assert state.applied_offset == -1

    def test_corrupt_state_raises_format_error(self, tmp_path):
        state_path_for(tmp_path).write_text('{"format": "nope"}')
        with pytest.raises(FormatError):
            load_state(tmp_path)

    def test_below_threshold_combinations_are_skipped(
        self, tmp_path, small_kb, cute_scenario
    ):
        corpus = cute_corpus(cute_scenario)
        pipeline = IngestPipeline(
            kb=small_kb,
            journal=CorpusJournal(tmp_path / "j"),
            occurrence_threshold=10_000_000,
        )
        report = pipeline.ingest(corpus.documents)
        assert len(report.table) == 0
        assert report.result.skipped
        assert not pipeline.state.fits

    def test_publish_writes_manifest_with_ingest_toggles(
        self, tmp_path, small_kb, cute_scenario
    ):
        corpus = cute_corpus(cute_scenario)
        pipeline = IngestPipeline(
            kb=small_kb,
            journal=CorpusJournal(tmp_path / "j"),
            occurrence_threshold=1,
            warm_start=True,
        )
        report = pipeline.ingest(corpus.documents)
        out = pipeline.publish(report, tmp_path / "op.json")
        assert provenance_path_for(out).exists()
        manifest = read_manifest(manifest_path_for(out))
        assert manifest["command"] == "ingest"
        config = manifest["config"]
        assert config["incremental"] is True
        assert config["journal_offset"] == report.journal_offset
        assert config["generation"] == report.generation
        assert config["fast_path"] is True
        assert config["provenance"] is True
        assert config["warm_start"] is True

    def test_lineage_off_writes_no_sidecar_over_a_persisted_ledger(
        self, tmp_path, small_kb, cute_scenario
    ):
        documents = cute_corpus(cute_scenario).documents
        half = len(documents) // 2
        journal = CorpusJournal(tmp_path / "j")
        out = tmp_path / "op.json"
        first = IngestPipeline(
            kb=small_kb, journal=journal, occurrence_threshold=1
        )
        first.publish(first.ingest(documents[:half]), out)
        first.checkpoint()
        sidecar = provenance_path_for(out).read_bytes()
        ledger = json.loads(
            state_path_for(journal.directory).read_bytes()
        )["ledger"]

        off = IngestPipeline(
            kb=small_kb,
            journal=journal,
            occurrence_threshold=1,
            provenance=False,
        )
        report = off.ingest(documents[half:])
        assert report.statements > 0
        assert report.provenance is None
        off.publish(report, out)
        off.checkpoint()
        assert provenance_path_for(out).read_bytes() == sidecar
        manifest = read_manifest(manifest_path_for(out))
        assert manifest["config"]["provenance"] is False
        assert "provenance" not in manifest["outputs"]
        # The persisted samples are kept as they were; only the totals
        # beside them, read from the counter, moved.
        state = json.loads(
            state_path_for(journal.directory).read_bytes()
        )
        for key_text, per_entity in ledger["pairs"].items():
            for entity_id, row in per_entity.items():
                after = state["ledger"]["pairs"][key_text][entity_id]
                assert after["samples"] == row["samples"]
                assert [after["positive"], after["negative"]] == (
                    state["evidence"]["combinations"][key_text][entity_id]
                )

    def test_warm_start_refits_from_cached_parameters(
        self, tmp_path, small_kb, cute_scenario
    ):
        corpus = cute_corpus(cute_scenario)
        half = len(corpus.documents) // 2
        pipeline = IngestPipeline(
            kb=small_kb,
            journal=CorpusJournal(tmp_path / "j"),
            occurrence_threshold=1,
            warm_start=True,
        )
        pipeline.ingest(corpus.documents[:half])
        report = pipeline.ingest(corpus.documents[half:])
        assert report.refitted >= 1
        # Warm starts trade last-ulp parity for speed; the answers
        # must still agree with a cold batch to high precision.
        cold = SurveyorPipeline(
            kb=small_kb, n_workers=1, occurrence_threshold=1
        ).run(corpus)
        warm_rows = {
            (o.entity_id, str(o.key)): o.probability
            for o in report.table
        }
        for opinion in cold.result.opinions:
            warm = warm_rows[(opinion.entity_id, str(opinion.key))]
            assert warm == pytest.approx(
                opinion.probability, abs=1e-6
            )

    def test_metrics_feed_the_ingest_series(
        self, tmp_path, small_kb, cute_scenario
    ):
        corpus = cute_corpus(cute_scenario)
        registry = MetricsRegistry()
        pipeline = IngestPipeline(
            kb=small_kb,
            journal=CorpusJournal(tmp_path / "j"),
            occurrence_threshold=1,
            registry=registry,
        )
        report = pipeline.ingest(corpus.documents)
        assert registry.counter_value(
            "repro_ingest_batches_total"
        ) == 1
        assert registry.counter_value(
            "repro_ingest_documents_total"
        ) == len(corpus.documents)
        assert registry.counter_value(
            "repro_ingest_statements_total"
        ) == report.statements > 0
        text = registry.exposition()
        assert "repro_ingest_journal_offset" in text
        assert "repro_ingest_dirty_combinations" in text
        assert "repro_ingest_refit_seconds_bucket" in text

    def test_publishes_run_git_describe_once_per_process(
        self, tmp_path, small_kb, cute_scenario, monkeypatch
    ):
        calls = []
        real_run = subprocess.run

        def counting_run(argv, *args, **kwargs):
            if argv[:2] == ["git", "describe"]:
                calls.append(argv)
            return real_run(argv, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        git_describe.cache_clear()
        try:
            corpus = cute_corpus(cute_scenario)
            pipeline = IngestPipeline(
                kb=small_kb,
                journal=CorpusJournal(tmp_path / "j"),
                occurrence_threshold=1,
            )
            for start in range(4):
                report = pipeline.ingest(corpus.documents[start::4])
                out = pipeline.publish(report, tmp_path / "op.json")
                manifest = read_manifest(manifest_path_for(out))
                assert manifest["config"]["generation"] == start + 1
        finally:
            git_describe.cache_clear()
        assert len(calls) <= 1, calls


# ---------------------------------------------------------------------------
# Files written in the older indented layout
# ---------------------------------------------------------------------------
#
# tests/data/ingest_v1 holds a journal, its state.json and the published
# opinions.json, lineage sidecar and manifest as written by two
# `repro ingest --threshold 1` runs in the indented layout that predates
# the compact writer (first run: kittens/snakes/tigers, second run:
# spiders). The journal dir is copied before use: opening a journal may
# repair it in place.

INGEST_V1 = Path(__file__).parent / "data" / "ingest_v1"


class TestLineageCacheCoherence:
    """A live pipeline rebuilds and re-encodes only the lineage blocks
    of the combinations its batches touched; after every step,
    ``state.json`` and the sidecar it wrote are byte-equal to a cold
    ledger's encoding of the same state."""

    def pipeline(self, journal_dir, kb):
        return IngestPipeline(
            kb=kb,
            journal=CorpusJournal(journal_dir),
            occurrence_threshold=1,
        )

    def assert_cold_bytes(self, live, report, out, cold_dir):
        # The same running state over a ledger that has never been
        # read: every pair dirty, every view and text built afresh.
        cold_ledger = ProvenanceLedger()
        cold_ledger.merge(live.state.ledger)
        cold_state = dataclasses.replace(
            live.state, ledger=cold_ledger
        )
        live_dir = live.journal.directory
        assert save_state(cold_state, cold_dir).read_bytes() == (
            state_path_for(live_dir).read_bytes()
        )
        lineage = ProvenanceIndex.from_run(
            cold_ledger,
            live.state.evidence,
            report.result,
            records_from_result(report.result),
        )
        assert save(lineage, cold_dir / "sidecar.json").read_bytes() == (
            provenance_path_for(out).read_bytes()
        )
        # And a pipeline freshly loaded from what was written writes
        # it back unchanged.
        reloaded_dir = cold_dir / "reloaded"
        shutil.copytree(live_dir, reloaded_dir)
        reloaded = self.pipeline(reloaded_dir, live.kb)
        idle = reloaded.advance()
        assert idle.documents == 0
        reloaded.publish(idle, cold_dir / "op.json")
        reloaded.checkpoint()
        assert state_path_for(reloaded_dir).read_bytes() == (
            state_path_for(live_dir).read_bytes()
        )
        assert provenance_path_for(cold_dir / "op.json").read_bytes() == (
            provenance_path_for(out).read_bytes()
        )

    def test_every_step_writes_cold_bytes(
        self, tmp_path, small_kb, cute_scenario
    ):
        documents = list(cute_corpus(cute_scenario).documents)
        random.Random(23).shuffle(documents)
        third = len(documents) // 3
        journal_dir = tmp_path / "journal"
        out = tmp_path / "opinions.json"
        live = self.pipeline(journal_dir, small_kb)
        steps = iter(range(100))

        def step(report):
            live.publish(report, out)
            live.checkpoint()
            self.assert_cold_bytes(
                live, report, out, tmp_path / f"cold-{next(steps)}"
            )
            return report

        step(live.ingest(documents[:third]))
        # Nothing new: nothing re-encoded, the same bytes again.
        step(live.advance())

        # A batch about combinations no earlier document mentioned
        # leaves every existing combination's lineage block in place.
        before = live._index
        report = step(
            live.ingest(
                docs(
                    "San Francisco is big.",
                    "Palo Alto is a small city.",
                    prefix="new",
                )
            )
        )
        assert report.statements > 0 and report.dirty
        assert set(report.dirty).isdisjoint(before.keys())
        assert all(
            report.provenance.block(key) is before.block(key)
            for key in before.keys()
        )
        assert all(key in report.provenance.keys() for key in report.dirty)

        step(live.ingest(documents[third:2 * third]))

        # Restart partway: a new process resumes from state.json.
        live = self.pipeline(journal_dir, small_kb)
        step(live.advance())
        step(live.ingest(documents[2 * third:]))


OTHER_COMBINATIONS = (
    "San Francisco is big.",
    "Chicago is a big city.",
    "Palo Alto is a small city.",
    "Tigers are dangerous.",
    "Snakes are dangerous.",
    "Soccer is exciting.",
)


def index_answers(index) -> tuple:
    """Everything an :class:`OpinionIndex` answers, in a fixed order."""
    keys = sorted(index._probability, key=str)
    return (
        index.generation,
        index.n_opinions,
        index.n_keys,
        index.degraded_keys,
        {
            entity_type: index.entities_of_type(entity_type)
            for entity_type in index.entity_types()
        },
        [
            (key, polarity, index.entities_with(key, polarity))
            for key in keys
            for polarity in Polarity
        ],
        [
            index.answer(text, top=50)
            for text in (
                "cute animals", "not cute animals",
                "dangerous cute animals", "big cities",
                "small not big cities", "exciting sports",
            )
        ],
    )


def rebuilt(table):
    """An equal table sharing no block with ``table``."""
    return OpinionTable(list(table), table.degraded_keys)


def whole_bytes(table) -> bytes:
    """The opinions file of ``table``, encoded whole from its rows."""
    return json.dumps(
        opinions_to_dict(table), sort_keys=True, separators=(",", ":")
    ).encode()


class TestCarryCoherence:
    """An ingest carries the opinion blocks its batch left clean from
    the pipeline's previous result. Through reloads, rollbacks, an
    unservable ingest and a restart, the live service must write,
    report and answer exactly what a cold rebuild does: a twin whose
    every ingest runs on a fresh pipeline (no previous result, so
    every block is emitted), and a pair-by-pair diff, a fresh index
    and a whole encode of tables that share no block."""

    def pipeline(self, journal_dir, kb):
        return IngestPipeline(
            kb=kb,
            journal=CorpusJournal(journal_dir),
            occurrence_threshold=1,
        )

    def start(self, root, kb, bootstrap):
        out = root / "opinions.json"
        pipeline = self.pipeline(root / "journal", kb)
        pipeline.publish(pipeline.ingest(bootstrap), out)
        return self.restart(root, kb)

    def restart(self, root, kb):
        out = root / "opinions.json"
        return OpinionService(
            load(out),
            source_path=out,
            ingest_pipeline=self.pipeline(root / "journal", kb),
        )

    def test_carried_tables_match_a_cold_rebuild(
        self, tmp_path, small_kb, cute_scenario, monkeypatch
    ):
        documents = list(cute_corpus(cute_scenario).documents)
        random.Random(25).shuffle(documents)
        batches = iter(
            documents[i:i + 6] for i in range(12, len(documents), 6)
        )
        bootstrap = documents[:12] + docs(
            *OTHER_COMBINATIONS[:3], prefix="boot"
        )
        live = self.start(tmp_path / "live", small_kb, bootstrap)
        cold = self.start(tmp_path / "cold", small_kb, bootstrap)
        live_out = tmp_path / "live" / "opinions.json"
        older = tmp_path / "older.json"
        shutil.copyfile(live_out, older)
        written = [live_out.read_bytes()]

        def cold_step(action):
            # A fresh pipeline has no previous result to carry from;
            # it opens on the checkpoint of the one it replaces.
            cold.ingest_pipeline.checkpoint()
            cold.ingest_pipeline = self.pipeline(
                tmp_path / "cold" / "journal", small_kb
            )
            answer = action(cold)
            if cold.ingest_pipeline._previous is not None:
                written[0] = whole_bytes(
                    cold.ingest_pipeline._previous.opinions
                )
            return answer

        def both(action):
            retiring = live._live.table
            answers = [action(live), cold_step(action)]
            for answer in answers:
                if isinstance(answer, dict):
                    answer.pop("freshness_seconds", None)
                    answer.pop("source", None)  # each twin's own path
            assert answers[0] == answers[1]
            assert live_out.read_bytes() == written[0]
            serving = live._live.table
            drift = dict(live.healthz()["drift"])
            assert drift == cold.healthz()["drift"]
            if serving is not retiring:
                drift.pop("trigger")
                assert drift == compare_tables(
                    rebuilt(retiring), rebuilt(serving)
                ).summary()
            # The sidecar spliced from carried lineage blocks is a
            # whole encode of a fresh index of the same state.
            pipeline = live.ingest_pipeline
            fresh = ProvenanceIndex.from_run(
                pipeline.state.ledger,
                pipeline.state.evidence,
                pipeline._previous,
                records_from_result(pipeline._previous),
            )
            assert provenance_path_for(live_out).read_bytes() == json.dumps(
                provenance_to_dict(fresh), sort_keys=True, separators=(",", ":")
            ).encode()
            served = index_answers(live.index)
            assert served == index_answers(cold.index)
            assert served == index_answers(
                OpinionIndex(
                    rebuilt(serving), generation=live.index.generation
                )
            )
            return answers[0]

        def ingest(*texts, prefix):
            batch = docs(*texts, prefix=prefix) if texts else next(batches)
            return both(lambda service: service.ingest(batch))

        ingest(prefix="a")
        first = live.ingest_pipeline._previous.opinions
        summary = ingest(OTHER_COMBINATIONS[3], prefix="b")
        assert summary["dirty_combinations"] == 1
        second = live.ingest_pipeline._previous.opinions
        carried = [
            key for key in second.keys()
            if second.block(key) is first.block(key)
        ]
        assert len(carried) == len(second.keys()) - 1
        # A reload of an older file: the live table shares no block
        # with the pipeline's previous result.
        both(lambda service: service.reload(older))
        ingest(prefix="c")
        ingest(OTHER_COMBINATIONS[0], prefix="d")
        both(lambda service: service.rollback())
        ingest(prefix="e")

        # An ingest whose table is refused: published, never live.
        def unservable(table, source, **_):
            raise ValueError("refused for the test")

        def refused(service):
            with monkeypatch.context() as patch:
                patch.setattr(service, "_validate_candidate", unservable)
                with pytest.raises(ServeError, match="unservable"):
                    service.ingest(refused_batch)

        refused_batch = next(batches)
        both(refused)
        ingest(OTHER_COMBINATIONS[2], prefix="f")
        ingest(prefix="g")

        # A restart from state.json, which the drain checkpointed: no
        # previous result to carry.
        for service in (live, cold):
            service.ingest_pipeline.checkpoint()
        live = self.restart(tmp_path / "live", small_kb)
        cold = self.restart(tmp_path / "cold", small_kb)
        ingest(OTHER_COMBINATIONS[4], prefix="h")
        ingest(OTHER_COMBINATIONS[5], prefix="i")
        ingest(prefix="j")

    def test_add_on_a_carried_table_leaves_the_older_unchanged(
        self, tmp_path, small_kb
    ):
        pipeline = self.pipeline(tmp_path / "journal", small_kb)
        older = pipeline.ingest(
            docs(*OTHER_COMBINATIONS, "Kittens are cute.", prefix="a")
        ).table
        newer = pipeline.ingest(docs("Kittens are cute.", prefix="b")).table
        carried = [
            key for key in newer.keys()
            if newer.block(key) is older.block(key)
        ]
        assert carried
        before = save(older, tmp_path / "older.json").read_bytes()
        for key in carried:
            (first, *_) = newer.block(key)
            newer.add(dataclasses.replace(first, probability=0.5))
            newer.add(dataclasses.replace(first, entity_id="/new/e"))
        assert save(older, tmp_path / "older.json").read_bytes() == before
        for key in carried:
            assert newer.block(key) is not older.block(key)
            assert older.get("/new/e", key) is None


class TestIndentedLayoutResume:
    @pytest.fixture()
    def old_dir(self, tmp_path):
        target = tmp_path / "ingest_v1"
        shutil.copytree(INGEST_V1, target)
        return target

    def test_fixture_is_in_the_indented_layout(self, old_dir):
        for path in (
            old_dir / "journal" / "state.json",
            old_dir / "opinions.json",
            provenance_path_for(old_dir / "opinions.json"),
            manifest_path_for(old_dir / "opinions.json"),
        ):
            assert path.read_text().startswith("{\n "), path

    def test_old_artefacts_load(self, old_dir):
        opinions = old_dir / "opinions.json"
        table = load(opinions)
        assert len(table) > 0
        assert load(provenance_path_for(opinions)).n_pairs > 0
        manifest = read_manifest(manifest_path_for(opinions))
        assert manifest["command"] == "ingest"
        assert manifest["config"]["generation"] == 2
        state = load_state(old_dir / "journal")
        assert state.generation == 2
        assert state.applied_offset == 6

    def test_resume_then_advance_matches_batch_bytes(
        self, tmp_path, old_dir
    ):
        kb = evaluation_kb()
        journal = CorpusJournal(old_dir / "journal")
        pipeline = IngestPipeline(
            kb=kb, journal=journal, occurrence_threshold=1
        )
        assert not pipeline.state.fresh
        assert pipeline.state.generation == 2

        # Resuming with nothing new republishes what the older
        # writer published, from the cached fits alone.
        opinions = old_dir / "opinions.json"
        idle = pipeline.advance()
        assert idle.refitted == 0 and idle.reused > 0
        assert fingerprint(idle.table) == fingerprint(load(opinions))
        assert provenance_to_dict(idle.provenance) == json.loads(
            provenance_path_for(opinions).read_text()
        )

        report = pipeline.ingest(
            docs(
                "Bunnies are cute.",
                "I think that tigers are dangerous.",
                "Spiders are not cute.",
                prefix="later",
            )
        )
        assert report.generation == 3
        assert report.documents == 3
        live = pipeline.publish(report, tmp_path / "live.json")

        replayed = WebCorpus(
            documents=[record.document for record in journal.replay()]
        )
        assert len(replayed) == 10
        batch = SurveyorPipeline(
            kb=kb, occurrence_threshold=1, n_workers=1
        ).run(replayed)
        reference = save(batch.result.opinions, tmp_path / "batch.json")
        assert live.read_bytes() == reference.read_bytes()
        # The new state is written in the compact layout and reloads.
        state_text = state_path_for(old_dir / "journal").read_text()
        assert "\n" not in state_text
        assert load_state(old_dir / "journal").generation == 3


# ---------------------------------------------------------------------------
# state.json as a checkpoint: kills, failed writes, worker handoff
# ---------------------------------------------------------------------------

def cold_state_bytes(state, directory) -> bytes:
    """``state`` encoded from a ledger that has never been read."""
    cold_ledger = ProvenanceLedger()
    cold_ledger.merge(state.ledger)
    return save_state(
        dataclasses.replace(state, ledger=cold_ledger), directory
    ).read_bytes()


def published_files(out: Path) -> dict[str, bytes]:
    return {
        "opinions": out.read_bytes(),
        "sidecar": provenance_path_for(out).read_bytes(),
    }


class TestCheckpointRestart:
    def pipeline(self, journal_dir, kb, out=None):
        return IngestPipeline(
            kb=kb,
            journal=CorpusJournal(journal_dir),
            occurrence_threshold=1,
            published=out,
        )

    def batches(self, cute_scenario):
        documents = list(cute_corpus(cute_scenario).documents)
        random.Random(31).shuffle(documents)
        boot = len(documents) - 20
        return [documents[:boot]] + [
            documents[k:k + 2] for k in range(boot, len(documents), 2)
        ]

    def test_kill_after_any_cycle_resumes_the_published_bytes(
        self, tmp_path, small_kb, cute_scenario
    ):
        journal_dir = tmp_path / "journal"
        out = tmp_path / "opinions.json"
        live = self.pipeline(journal_dir, small_kb, out)
        steady = self.pipeline(tmp_path / "steady", small_kb)
        gaps = []
        for step, batch in enumerate(self.batches(cute_scenario)):
            report = live.ingest(batch)
            live.publish(report, out)
            before = published_files(out)
            steady_report = steady.ingest(batch)
            assert report.generation == steady_report.generation
            gaps.append(live.pending)

            # Kill: drop the pipeline without a checkpoint; a new one
            # on the same directory replays the journal above it.
            live = self.pipeline(journal_dir, small_kb, out)
            resumed = live.advance()
            assert resumed.documents == gaps[-1]
            assert resumed.generation == report.generation
            assert resumed.journal_offset == report.journal_offset
            live.publish(resumed, out)
            assert published_files(out) == before
            manifest = read_manifest(manifest_path_for(out))
            assert manifest["config"]["generation"] == report.generation

            replayed = WebCorpus(
                documents=[r.document for r in live.journal.replay()]
            )
            batch_run = SurveyorPipeline(
                kb=small_kb, occurrence_threshold=1, n_workers=1
            ).run(replayed)
            assert save(
                batch_run.result.opinions, tmp_path / "batch.json"
            ).read_bytes() == before["opinions"]
            assert save_state(
                live.state, tmp_path / f"live-{step}"
            ).read_bytes() == cold_state_bytes(
                steady.state, tmp_path / f"cold-{step}"
            )
        # The share rule left some cycles to the journal and
        # checkpointed others.
        assert 0 in gaps and any(gaps), gaps
        live.checkpoint()
        assert state_path_for(journal_dir).read_bytes() == (
            cold_state_bytes(steady.state, tmp_path / "cold-last")
        )

    def test_restart_before_the_first_advance_lands_on_the_published_generation(
        self, tmp_path, small_kb, cute_scenario
    ):
        journal_dir = tmp_path / "journal"
        out = tmp_path / "opinions.json"
        first, *rest = self.batches(cute_scenario)
        live = self.pipeline(journal_dir, small_kb, out)
        live.ingest(first)
        for batch in rest[:3]:
            live.publish(live.ingest(batch), out)
        assert live.pending
        before = published_files(out)
        generation = live.state.generation
        # Journaled after the last publish, never advanced.
        live.append(rest[3])

        restarted = self.pipeline(journal_dir, small_kb, out)
        caught_up = restarted.catch_up()
        assert caught_up.generation == generation
        assert caught_up.documents == live.pending
        assert restarted.catch_up() is None
        restarted.publish(caught_up, tmp_path / "again.json")
        assert published_files(tmp_path / "again.json") == before
        # The unpublished batch is the next generation.
        report = restarted.advance()
        assert report.documents == len(rest[3])
        assert report.generation == generation + 1

    @pytest.mark.parametrize(
        "failing", ["write", "file fsync", "replace", "directory fsync"]
    )
    def test_a_failed_checkpoint_leaves_a_whole_state(
        self, tmp_path, small_kb, cute_scenario, monkeypatch, failing
    ):
        first, second, *_ = self.batches(cute_scenario)
        pipeline = self.pipeline(tmp_path / "j", small_kb)
        pipeline.ingest(first)
        path = pipeline.checkpoint()
        old = path.read_bytes()
        pipeline.ingest(second)
        new = save_state(pipeline.state, tmp_path / "expected").read_bytes()
        assert new != old

        real_write, real_fsync = os.write, os.fsync
        fsyncs = []

        def torn_write(fd, data):
            real_write(fd, bytes(data[: len(data) // 2]))
            raise OSError(28, "No space left on device")

        def failing_fsync(fd):
            fsyncs.append(fd)
            if len(fsyncs) == {"file fsync": 1, "directory fsync": 2}[
                failing
            ]:
                raise OSError(5, "Input/output error")
            real_fsync(fd)

        def failing_replace(src, dst):
            raise OSError(5, "Input/output error")

        patch = {
            "write": ("write", torn_write),
            "file fsync": ("fsync", failing_fsync),
            "replace": ("replace", failing_replace),
            "directory fsync": ("fsync", failing_fsync),
        }[failing]
        with monkeypatch.context() as context:
            context.setattr(os, *patch)
            with pytest.raises(OSError):
                pipeline.checkpoint()
        on_disk = path.read_bytes()
        assert on_disk == (new if failing == "directory fsync" else old)
        assert not path.with_name(path.name + ".tmp").exists()
        assert load_state(tmp_path / "j").applied_offset == (
            pipeline.state.applied_offset
            if on_disk == new
            else json.loads(old)["applied_offset"]
        )
        # The failed checkpoint is still owed, and the next one lands.
        assert pipeline.pending
        assert pipeline.checkpoint().read_bytes() == new

    def two_workers(self, tmp_path, small_kb, first):
        """Two ``--workers 2`` servers on one journal, bootstrapped
        from ``first``, and one pipeline that takes every batch."""
        from repro.serve.aio import AsyncReproServer
        from repro.serve.workers import WorkerRuntime

        class Runtime(WorkerRuntime):
            def notify_parent(self):  # no supervisor in this test
                pass

        journal_dir = tmp_path / "journal"
        out = tmp_path / "opinions.json"
        boot = self.pipeline(journal_dir, small_kb)
        boot.publish(boot.ingest(first), out)
        reference = self.pipeline(tmp_path / "one", small_kb)
        reference.ingest(first)

        def factory():
            return self.pipeline(journal_dir, small_kb, out)

        workers = [
            AsyncReproServer(
                OpinionService(
                    load(out), source_path=out, ingest_pipeline=factory()
                ),
                runtime=Runtime(tmp_path / "runtime", index, 2, 0),
                ingest_factory=factory,
            )
            for index in range(2)
        ]
        return workers, reference, out

    def assert_published_like(self, out, reference, tmp_path, batch):
        """``out`` holds what ``reference`` publishes after ``batch``."""
        one = tmp_path / "one.json"
        expected = reference.ingest(batch)
        reference.publish(expected, one)
        assert published_files(out) == published_files(one)
        config = read_manifest(manifest_path_for(out))["config"]
        assert config["generation"] == expected.generation
        assert config["journal_offset"] == expected.journal_offset

    def test_workers_hand_the_journal_over_through_state_json(
        self, tmp_path, small_kb, cute_scenario
    ):
        first, *rest = self.batches(cute_scenario)
        workers, reference, out = self.two_workers(
            tmp_path, small_kb, first
        )
        for step, batch in enumerate(rest):
            worker = workers[step % 2]
            kept = worker.service.ingest_pipeline
            summary = worker.run_ingest(batch, None)
            # The sibling's checkpoint was current: a rebuild, no replay.
            assert summary["documents"] == len(batch)
            assert (worker.service.ingest_pipeline is kept) == (step == 0)
            self.assert_published_like(out, reference, tmp_path, batch)
            assert not worker.service.ingest_pipeline.pending

    def test_workers_answer_the_generation_they_publish(
        self, tmp_path, small_kb, cute_scenario
    ):
        # Back-to-back ingests on alternate workers, with no reload of
        # the sibling's publish in between: each answer is the
        # published manifest's generation, strictly increasing.
        first, *rest = self.batches(cute_scenario)
        workers, _, out = self.two_workers(tmp_path, small_kb, first)
        answered = []
        for step, batch in enumerate(rest[:3]):
            summary = workers[step % 2].run_ingest(batch[:1], None)
            config = read_manifest(manifest_path_for(out))["config"]
            assert summary["generation"] == config["generation"]
            answered.append(summary["generation"])
        assert answered == sorted(set(answered)) and len(answered) == 3

    def test_a_refused_table_still_hands_the_journal_over(
        self, tmp_path, small_kb, cute_scenario, monkeypatch
    ):
        first, refused, after, *_ = self.batches(cute_scenario)
        workers, reference, out = self.two_workers(
            tmp_path, small_kb, first
        )

        def unservable(**_):
            raise ValueError("injected validation failure")

        # Worker 0 advances and publishes, then its table is refused.
        with monkeypatch.context() as context:
            context.setattr(
                workers[0].service, "_validate_candidate", unservable
            )
            with pytest.raises(ServeError, match="unservable"):
                workers[0].run_ingest(refused, None)
        self.assert_published_like(out, reference, tmp_path, refused)
        assert not workers[0].service.ingest_pipeline.pending

        summary = workers[1].run_ingest(after, None)
        assert summary["documents"] == len(after)
        self.assert_published_like(out, reference, tmp_path, after)
        journal = CorpusJournal(tmp_path / "journal")
        assert [r.document for r in journal.replay()] == (
            first + refused + after
        )

    def test_a_failed_advance_still_hands_the_journal_over(
        self, tmp_path, small_kb, cute_scenario, monkeypatch
    ):
        first, failed, after, *_ = self.batches(cute_scenario)
        workers, reference, out = self.two_workers(
            tmp_path, small_kb, first
        )

        def broken(*_):
            raise RuntimeError("injected extraction failure")

        # Worker 0 journals the batch, then fails before applying it:
        # state.json does not move, but the journal did.
        with monkeypatch.context() as context:
            context.setattr(
                workers[0].service.ingest_pipeline._annotator,
                "annotate",
                broken,
            )
            with pytest.raises(RuntimeError, match="injected"):
                workers[0].run_ingest(failed, None)
        assert load_state(tmp_path / "journal").applied_offset == (
            len(first) - 1
        )

        kept = workers[1].service.ingest_pipeline
        summary = workers[1].run_ingest(after, None)
        # Rebuilt on the journal as it is on disk: the failed batch is
        # applied with this one, under the next generation.
        assert workers[1].service.ingest_pipeline is not kept
        assert summary["documents"] == len(failed) + len(after)
        reference.append(failed)
        self.assert_published_like(out, reference, tmp_path, after)
        journal = CorpusJournal(tmp_path / "journal")
        assert [r.document for r in journal.replay()] == (
            first + failed + after
        )

    def test_a_failed_refit_folds_nothing_twice(
        self, tmp_path, small_kb, cute_scenario, monkeypatch
    ):
        first, second, third, *_ = self.batches(cute_scenario)
        live = self.pipeline(tmp_path / "journal", small_kb)
        steady = self.pipeline(tmp_path / "steady", small_kb)
        for batch in (first, second):
            live.ingest(batch)
            steady.ingest(batch)
        assert live.pending

        def out_of_memory(*_):
            raise MemoryError("injected refit failure")

        # The batch's evidence is folded in before the refit fails.
        with monkeypatch.context() as context:
            context.setattr(live, "_refit", out_of_memory)
            with pytest.raises(MemoryError):
                live.ingest(third)
        assert not live.pending
        # The retry replays the checkpoint's gap and the failed batch.
        report = live.advance()
        expected = steady.ingest(third)
        assert report.documents == len(second) + len(third)
        assert report.generation == expected.generation
        assert live.state.evidence == steady.state.evidence
        live.publish(report, tmp_path / "live.json")
        steady.publish(expected, tmp_path / "steady.json")
        assert published_files(tmp_path / "live.json") == (
            published_files(tmp_path / "steady.json")
        )
        assert live.checkpoint().read_bytes() == cold_state_bytes(
            steady.state, tmp_path / "cold"
        )

    def test_drain_keeps_a_newer_checkpoint(
        self, tmp_path, small_kb, cute_scenario
    ):
        from repro.serve.launch import _drain_checkpoint

        first, second, third, fourth, *_ = self.batches(cute_scenario)
        journal_dir = tmp_path / "journal"
        server = self.pipeline(journal_dir, small_kb)
        server.ingest(first)
        server.ingest(second)
        assert server.pending
        # Another process (a `repro ingest` run) goes further.
        other = self.pipeline(journal_dir, small_kb)
        other.ingest(third)
        newer = other.checkpoint().read_bytes()

        _drain_checkpoint(server, None)
        assert state_path_for(journal_dir).read_bytes() == newer
        # With nothing newer on disk, the drain writes its own state.
        other.ingest(fourth)
        assert other.pending
        _drain_checkpoint(other, None)
        assert not other.pending
        assert load_state(journal_dir).generation == 3

    def test_an_unreadable_or_foreign_manifest_resumes_nothing(
        self, tmp_path, small_kb, cute_scenario
    ):
        first, (second, third), *_ = self.batches(cute_scenario)
        journal_dir = tmp_path / "journal"
        out = tmp_path / "opinions.json"
        live = self.pipeline(journal_dir, small_kb, out)
        live.ingest(first)
        live.ingest([second])
        live.publish(live.ingest([third]), out)
        assert live.state.generation == 3
        # Both single-document cycles stay below the share.
        assert live.pending == 2
        manifest = manifest_path_for(out)
        published = manifest.read_bytes()

        # A crash left the manifest empty: the restart still opens and
        # counts on from the checkpoint, one advance past it.
        manifest.write_bytes(b"")
        restarted = self.pipeline(journal_dir, small_kb, out)
        assert restarted.catch_up() is None
        assert restarted.advance().generation == 2

        # A manifest another journal published to the same path.
        foreign = self.pipeline(tmp_path / "foreign", small_kb, out)
        for batch in (first, [second], [third]):
            foreign.ingest(batch)
        foreign.publish(foreign.ingest([second]), out)
        assert read_manifest(manifest)["config"]["generation"] == 4
        restarted = self.pipeline(journal_dir, small_kb, out)
        assert restarted.catch_up() is None
        assert restarted.advance().generation == 2

        # This journal's own manifest resumes its generation.
        manifest.write_bytes(published)
        restarted = self.pipeline(journal_dir, small_kb, out)
        assert restarted.catch_up().generation == 3


# ---------------------------------------------------------------------------
# Serving: POST /admin/ingest and the sidecar stat-cache
# ---------------------------------------------------------------------------

@pytest.fixture()
def served_ingest(tmp_path, small_kb, cute_scenario):
    """A live server bootstrapped from the first 2/3 of the cute
    corpus, with the remainder available for streaming appends.

    Yields (service, base_url, leftover_documents, opinions_path).
    """
    corpus = cute_corpus(cute_scenario)
    cut = 2 * len(corpus.documents) // 3
    pipeline = IngestPipeline(
        kb=small_kb,
        journal=CorpusJournal(tmp_path / "journal"),
        occurrence_threshold=1,
    )
    report = pipeline.ingest(corpus.documents[:cut])
    path = tmp_path / "opinions.json"
    pipeline.publish(report, path)
    service = OpinionService(
        report.table,
        source_path=path,
        provenance=report.provenance,
        registry=MetricsRegistry(),
        ingest_pipeline=pipeline,
    )
    with AsyncHarness(service) as harness:
        yield service, harness.url, corpus.documents[cut:], path


def get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


class TestServeIngest:
    def test_post_ingest_swaps_a_fresh_generation(
        self, served_ingest
    ):
        service, base, leftover, path = served_ingest
        assert service.index.generation == 1
        status, summary = post(
            f"{base}/admin/ingest",
            {
                "documents": [
                    {
                        "doc_id": doc.doc_id,
                        "text": doc.text,
                        "region": doc.region,
                    }
                    for doc in leftover
                ]
            },
        )
        assert status == 200
        assert summary["status"] == "ingested"
        assert summary["documents"] == len(leftover)
        assert summary["generation"] == 2
        assert summary["freshness_seconds"] < 60
        assert summary["drift"] is not None
        assert service.index.generation == 2

        # The swap is the ingest-triggered drift surface...
        _, health = get(f"{base}/healthz")
        assert health["drift"]["trigger"] == "ingest"
        # ...the freshness histogram saw the cycle...
        exposition = service.registry.exposition()
        assert "repro_ingest_freshness_seconds_bucket" in exposition
        # ...and the published artefacts landed at the serving path,
        # so a cold restart reloads this generation.
        assert json.loads(path.read_text())["format"] == "opinions"
        assert read_manifest(manifest_path_for(path))[
            "config"
        ]["generation"] == 2

    def test_post_ingest_manifest_lists_every_output(
        self, served_ingest
    ):
        """Each file the live publish wrote beside the journal is in
        the manifest's ``outputs``, and each listed file exists."""
        _, base, leftover, path = served_ingest
        status, _ = post(
            f"{base}/admin/ingest",
            {"documents": [doc.text for doc in leftover]},
        )
        assert status == 200
        manifest = manifest_path_for(path)
        outputs = read_manifest(manifest)["outputs"]
        assert set(outputs) == {"opinions", "provenance"}
        listed = {Path(value) for value in outputs.values()}
        assert all(value.is_file() for value in listed)
        published = {
            entry for entry in path.parent.iterdir() if entry.is_file()
        }
        assert published == listed | {manifest}

    def test_served_answer_reflects_appended_evidence(
        self, served_ingest
    ):
        service, base, leftover, _ = served_ingest
        _, before = get(f"{base}/query?q=cute+animals")
        post(
            f"{base}/admin/ingest",
            {"documents": [doc.text for doc in leftover]},
        )
        status, after = get(f"{base}/query?q=cute+animals")
        assert status == 200
        assert after["generation"] == 2
        assert [
            hit["entity"] for hit in after["hits"]
        ], "refitted table must still answer the query"
        assert before["generation"] == 1

    def test_ingest_without_pipeline_is_409(self, served_ingest):
        service, base, leftover, _ = served_ingest
        service.ingest_pipeline = None
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(
                f"{base}/admin/ingest",
                {"documents": ["Kittens are cute."]},
            )
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read())[
            "code"
        ] == "ingest_unavailable"

    def test_malformed_bodies_are_400(self, served_ingest):
        _, base, _, _ = served_ingest
        for body in (
            {},
            {"documents": []},
            {"documents": "Kittens are cute."},
            {"documents": [{"text": "   "}]},
            {"documents": [{"text": "ok", "doc_id": 7}]},
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(f"{base}/admin/ingest", body)
            assert excinfo.value.code == 400

    def test_documents_from_payload_shapes(self):
        documents = documents_from_payload(
            {
                "documents": [
                    "Kittens are cute.",
                    {
                        "text": "Snakes are not cute.",
                        "doc_id": "web-1",
                        "region": "us",
                    },
                ]
            }
        )
        assert documents[0].doc_id == ""
        assert documents[0].text == "Kittens are cute."
        assert documents[1].doc_id == "web-1"
        assert documents[1].region == "us"
        with pytest.raises(ServeError):
            documents_from_payload({"documents": [42]})

    def test_statement_free_batch_dirties_nothing(
        self, served_ingest
    ):
        service, base, _, _ = served_ingest
        # No extractable subjective statements: no combination goes
        # dirty and every cached fit is reused — but the journal did
        # advance and the rebuilt (identical) table still swaps.
        offset_before = service.ingest_pipeline.state.applied_offset
        status, summary = post(
            f"{base}/admin/ingest",
            {"documents": ["The weather report was uneventful."]},
        )
        assert status == 200
        assert summary["dirty_combinations"] == 0
        assert summary["refitted"] == 0
        assert summary["journal_offset"] == offset_before + 1

    def test_empty_table_ingest_is_accepted_without_swap(
        self, tmp_path, small_kb
    ):
        from repro.core import OpinionTable

        pipeline = IngestPipeline(
            kb=small_kb,
            journal=CorpusJournal(tmp_path / "j"),
            occurrence_threshold=10_000_000,
        )
        service = OpinionService(
            OpinionTable(), ingest_pipeline=pipeline
        )
        summary = service.ingest(docs("Kittens are cute."))
        assert summary["status"] == "accepted"
        assert summary["generation"] == 1
        assert summary["drift"] is None

    def test_restart_resumes_the_ingest_generation(
        self, tmp_path, small_kb, cute_scenario
    ):
        corpus = cute_corpus(cute_scenario)
        half = len(corpus.documents) // 2
        pipeline = IngestPipeline(
            kb=small_kb,
            journal=CorpusJournal(tmp_path / "j"),
            occurrence_threshold=1,
        )
        pipeline.ingest(corpus.documents[:half])
        report = pipeline.ingest(corpus.documents[half:])
        out = pipeline.publish(report, tmp_path / "op.json")

        restarted = OpinionService(
            load(out),
            source_path=out,
            ingest_pipeline=IngestPipeline(
                kb=small_kb,
                journal=CorpusJournal(tmp_path / "j"),
                occurrence_threshold=1,
            ),
        )
        assert restarted.index.generation == report.generation == 2
        summary = restarted.ingest(docs("Kittens are cute."))
        assert summary["generation"] == 3


class TestSidecarCache:
    def test_unchanged_sidecar_is_not_reparsed(self, served_ingest):
        service, base, _, path = served_ingest
        first = service._load_sidecar(path)
        assert first is not None
        assert service._load_sidecar(path) is first  # cache hit
        post(f"{base}/admin/reload", {})
        assert service._load_sidecar(path) is first

    def test_rewritten_sidecar_is_reread_on_reload(
        self, served_ingest, small_kb
    ):
        service, base, leftover, path = served_ingest
        pipeline = service.ingest_pipeline
        cached = service._load_sidecar(path)

        # Publish a new generation's artefacts directly to disk (the
        # CLI-journal workflow: `repro ingest` while a server runs).
        report = pipeline.ingest(leftover)
        pipeline.publish(report, path)
        # Guard against filesystems with coarse mtime granularity.
        sidecar = provenance_path_for(path)
        stat = sidecar.stat()
        os.utime(
            sidecar, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000)
        )

        status, _ = post(f"{base}/admin/reload", {})
        assert status == 200
        fresh = service._load_sidecar(path)
        assert fresh is not cached
        # /explain lineage follows the new generation.
        entity = next(iter(report.table)).entity_id
        prop = next(iter(report.table)).key.property.text
        status, payload = get(
            f"{base}/explain?entity={entity}&property={prop}"
        )
        assert status == 200
        assert payload["lineage"]["available"] is True

    @pytest.mark.skipif(
        not hasattr(signal, "SIGHUP"),
        reason="POSIX-only signal",
    )
    def test_sighup_reload_follows_rewritten_sidecar(
        self, served_ingest
    ):
        service, _, leftover, path = served_ingest
        pipeline = service.ingest_pipeline
        cached = service._load_sidecar(path)
        report = pipeline.ingest(leftover)
        pipeline.publish(report, path)
        sidecar = provenance_path_for(path)
        stat = sidecar.stat()
        os.utime(
            sidecar, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000)
        )

        async def serve_then_hup():
            started = asyncio.Event()
            server = asyncio.ensure_future(
                serve_async(
                    service, on_started=lambda port: started.set()
                )
            )
            await started.wait()
            signal.raise_signal(signal.SIGHUP)
            for _ in range(500):
                if service.index.generation == 2:
                    break
                await asyncio.sleep(0.01)
            signal.raise_signal(signal.SIGTERM)
            return await server

        previous = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGHUP, signal.SIGTERM, signal.SIGINT)
        }
        try:
            assert asyncio.run(serve_then_hup()) == 0
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        assert service.index.generation == 2
        assert service._load_sidecar(path) is not cached

    def test_missing_sidecar_is_never_cached(
        self, tmp_path, small_kb, cute_scenario
    ):
        pipeline = IngestPipeline(
            kb=small_kb,
            journal=CorpusJournal(tmp_path / "j"),
            occurrence_threshold=1,
            provenance=False,
        )
        report = pipeline.ingest(
            cute_corpus(cute_scenario).documents
        )
        path = save(report.table, tmp_path / "op.json")
        service = OpinionService(report.table, source_path=path)
        assert service._sidecar_signature(path) is None
        assert service._load_sidecar(path) is None
        assert service._sidecar_cache is None


# ---------------------------------------------------------------------------
# repro top: ingest panel
# ---------------------------------------------------------------------------

def _sample(at, series_values, health):
    series = {"#types": {}}
    for name, value in series_values.items():
        if isinstance(value, list):
            series[name] = value
        else:
            series[name] = [({}, float(value), None)]
    return Sample(at=at, series=series, health=health)


HEALTH = {
    "status": "healthy",
    "generation": 2,
    "opinions": 10,
    "admission": {"inflight": 0},
    "latency": {
        "window_seconds": 300.0,
        "count": 1,
        "p50": 0.001,
        "p95": 0.002,
        "p99": 0.003,
    },
    "slo": {
        "state": "ok",
        "availability": {
            "burn_rates": {"fast": 0.0, "slow": 0.0},
            "state": "ok",
        },
        "latency": {
            "burn_rates": {"fast": 0.0, "slow": 0.0},
            "state": "ok",
        },
    },
}


class TestIngestPanel:
    SERIES = {
        "repro_serve_requests_total": 0,
        "repro_ingest_documents_total": 120,
        "repro_ingest_dirty_combinations": 3,
        "repro_ingest_journal_offset": 119,
        "repro_ingest_freshness_seconds_bucket": [
            ({"le": "0.25"}, 4.0, None),
            ({"le": "0.5"}, 9.0, None),
            ({"le": "+Inf"}, 10.0, None),
        ],
        "repro_ingest_freshness_seconds_count": 10,
    }

    def test_panel_absent_without_ingest_series(self):
        prev = _sample(
            0.0, {"repro_serve_requests_total": 0}, HEALTH
        )
        curr = _sample(
            1.0, {"repro_serve_requests_total": 5}, HEALTH
        )
        assert render_ingest_panel(prev, curr) == []
        assert "ingest:" not in render_frame(
            prev, curr, _history()
        )

    def test_panel_summarizes_ingest_state(self):
        prev = _sample(
            0.0,
            dict(self.SERIES, repro_ingest_documents_total=100),
            HEALTH,
        )
        curr = _sample(2.0, self.SERIES, HEALTH)
        (line,) = render_ingest_panel(prev, curr)
        assert "120 docs" in line
        assert "10.0/s" in line
        assert "journal offset 119" in line
        assert "dirty combos 3" in line
        assert "freshness p50" in line
        assert "500" in line or "0.5" in line  # p50 bucket bound
        assert "ingest:" in render_frame(prev, curr, _history())


def _history():
    from repro.obs.live import BurnHistory

    history = BurnHistory()
    history.push(HEALTH)
    return history

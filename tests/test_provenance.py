"""Tests for evidence lineage: ledger, index, sidecar, and CLI."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cli import main
from repro.core import Polarity, PropertyTypeKey, SubjectiveProperty
from repro.corpus import CorpusGenerator
from repro.extraction import (
    EvidenceCounter,
    EvidenceStatement,
    PairProvenance,
    ProvenanceIndex,
    ProvenanceLedger,
    ProvenanceSample,
)
from repro.extraction.provenance import MAX_SENTENCE_CHARS
from repro.nlp import reset_shared_annotation_state
from repro.pipeline import SurveyorPipeline
from repro.storage import (
    load,
    provenance_path_for,
    provenance_to_dict,
    save,
)

CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")


def statement(
    entity="/animal/kitten",
    polarity=Polarity.POSITIVE,
    doc_id="d1",
    pattern="pred_adj",
    negations=0,
    sentence="Kittens are cute.",
) -> EvidenceStatement:
    return EvidenceStatement(
        entity_id=entity,
        entity_type="animal",
        property=SubjectiveProperty("cute"),
        polarity=polarity,
        pattern=pattern,
        doc_id=doc_id,
        sentence=sentence,
        negations=negations,
    )


class TestProvenanceLedger:
    def test_record_counts_exactly_and_caps_samples(self):
        ledger = ProvenanceLedger(samples_per_polarity=2)
        for i in range(5):
            ledger.record(statement(doc_id=f"d{i}"), sentence_index=i)
        ledger.record(
            statement(polarity=Polarity.NEGATIVE, negations=1),
            sentence_index=9,
        )
        pair = ledger.for_pair(CUTE, "/animal/kitten")
        assert (pair.positive_seen, pair.negative_seen) == (5, 1)
        # Bounded: 2 positive samples kept (the first two), 1 negative.
        polarities = [s.polarity for s in pair.samples]
        assert polarities == ["positive", "positive", "negative"]
        assert [s.doc_id for s in pair.samples[:2]] == ["d0", "d1"]
        assert pair.samples[0].sentence_index == 0

    def test_sample_line_samples_without_counting(self):
        ledger = ProvenanceLedger()
        protos = (statement(),)
        ledger.sample_line(protos, [statement(doc_id="dX")], 3)
        assert id(protos) in ledger.seen_lines
        pair = ledger.for_pair(CUTE, "/animal/kitten")
        # Totals stay zero until seed_totals copies the counter.
        assert (pair.positive_seen, pair.negative_seen) == (0, 0)
        assert [s.doc_id for s in pair.samples] == ["dX"]
        assert pair.samples[0].sentence_index == 3

    def test_seed_totals_matches_counter(self):
        counter = EvidenceCounter()
        for i in range(4):
            counter.add(statement(doc_id=f"d{i}"))
        counter.add(statement(polarity=Polarity.NEGATIVE, negations=1))
        ledger = ProvenanceLedger()
        ledger.sample_line((object(),), [statement()], 0)
        ledger.seed_totals(counter)
        pair = ledger.for_pair(CUTE, "/animal/kitten")
        assert (pair.positive_seen, pair.negative_seen) == (4, 1)
        # Pairs the sampler never saw are created counts-only.
        counter.add(statement(entity="/animal/snake"))
        ledger.seed_totals(counter)
        snake = ledger.for_pair(CUTE, "/animal/snake")
        assert (snake.positive_seen, snake.negative_seen) == (1, 0)
        assert snake.samples == ()

    def test_merge_sums_counts_and_caps_in_shard_order(self):
        first = ProvenanceLedger(samples_per_polarity=2)
        second = ProvenanceLedger(samples_per_polarity=2)
        for i in range(2):
            first.record(statement(doc_id=f"a{i}"), sentence_index=i)
            second.record(statement(doc_id=f"b{i}"), sentence_index=i)
        first.merge(second)
        pair = first.for_pair(CUTE, "/animal/kitten")
        assert pair.positive_seen == 4
        # The earlier-merged ledger's samples win the bounded slots.
        assert [s.doc_id for s in pair.samples] == ["a0", "a1"]

    def test_merge_into_empty_preserves_samples(self):
        shard = ProvenanceLedger()
        shard.record(
            statement(polarity=Polarity.NEGATIVE, negations=1), 0
        )
        merged = ProvenanceLedger()
        merged.merge(shard)
        pair = merged.for_pair(CUTE, "/animal/kitten")
        assert pair.negative_seen == 1
        assert [s.polarity for s in pair.samples] == ["negative"]
        assert pair.samples[0].negations == 1

    def test_seed_pair_round_trips(self):
        source = ProvenanceLedger()
        source.record(statement(), 0)
        source.record(
            statement(polarity=Polarity.NEGATIVE, negations=1), 1
        )
        pair = source.for_pair(CUTE, "/animal/kitten")
        restored = ProvenanceLedger()
        restored.seed_pair(CUTE, "/animal/kitten", pair)
        assert restored.for_pair(CUTE, "/animal/kitten") == pair

    def test_sentences_truncated(self):
        ledger = ProvenanceLedger()
        long = "x" * (MAX_SENTENCE_CHARS * 2)
        ledger.record(statement(sentence=long), 0)
        pair = ledger.for_pair(CUTE, "/animal/kitten")
        assert len(pair.samples[0].sentence) == MAX_SENTENCE_CHARS

    def test_pickle_drops_seen_line_pins(self):
        ledger = ProvenanceLedger()
        protos = (statement(),)
        ledger.sample_line(protos, [statement()], 0)
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone.seen_lines == {}
        assert clone.n_samples == ledger.n_samples == 1

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            ProvenanceLedger(samples_per_polarity=0)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda ledger: ledger.record(statement(doc_id="d2"), 4),
            lambda ledger: ledger.sample_line(
                (statement(),),
                [statement(polarity=Polarity.NEGATIVE, doc_id="d2")],
                4,
            ),
            lambda ledger: ledger.seed_totals(_counter_of(7)),
            lambda ledger: ledger.seed_pair(
                CUTE, "/animal/kitten", PairProvenance(9, 9)
            ),
            lambda ledger: ledger.merge(_ledger_of(statement(doc_id="d3"))),
            lambda ledger: ledger.merge(_sampled(statement(doc_id="d3"))),
        ],
        ids=[
            "record", "sample_line", "seed_totals", "seed_pair",
            "merge_counts", "merge_samples",
        ],
    )
    def test_a_read_after_a_change_sees_the_change(self, mutate):
        """A pair's view and its JSON text are kept between reads
        only while the pair is unchanged."""
        ledger = _ledger_of(statement())
        kept = ledger.for_pair(CUTE, "/animal/kitten")
        kept.to_json()
        assert ledger.for_pair(CUTE, "/animal/kitten") is kept
        mutate(ledger)
        cold = ProvenanceLedger()
        cold.merge(ledger)
        fresh = ledger.for_pair(CUTE, "/animal/kitten")
        assert fresh == cold.for_pair(CUTE, "/animal/kitten") != kept
        assert fresh.to_json() == json.dumps(
            fresh.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def test_unchanged_pairs_keep_their_views(self):
        ledger = _ledger_of(statement())
        kept = ledger.for_pair(CUTE, "/animal/kitten")
        ledger.seed_totals(_counter_of(1))  # the totals it already has
        ledger.merge(_sampled(statement(entity="/animal/tiger")))
        assert ledger.for_pair(CUTE, "/animal/kitten") is kept


def _ledger_of(*statements) -> ProvenanceLedger:
    ledger = ProvenanceLedger()
    for index, item in enumerate(statements):
        ledger.record(item, index)
    return ledger


def _sampled(*statements) -> ProvenanceLedger:
    """A fast-path ledger: samples, no totals."""
    ledger = ProvenanceLedger()
    ledger.sample_line(statements, list(statements), 0)
    return ledger


def _counter_of(positive: int) -> EvidenceCounter:
    counter = EvidenceCounter()
    counter.seed_pair(CUTE, "/animal/kitten", positive, 0)
    return counter


@pytest.fixture()
def mined(small_kb, cute_scenario):
    corpus = CorpusGenerator(seed=21).generate(cute_scenario)
    pipeline = SurveyorPipeline(
        kb=small_kb, occurrence_threshold=10, n_workers=3
    )
    return pipeline.run(corpus), corpus


class TestPipelineLineage:
    def test_totals_match_evidence_counter_exactly(self, mined):
        report, _ = mined
        lineage = report.provenance
        assert isinstance(lineage, ProvenanceIndex)
        assert lineage.n_pairs > 0 and lineage.n_samples > 0
        for key, per_entity in report.evidence.as_evidence().items():
            for entity_id, counts in per_entity.items():
                pair = lineage.for_pair(key, entity_id)
                assert pair is not None, (key, entity_id)
                assert pair.positive_seen == counts.positive
                assert pair.negative_seen == counts.negative
                assert pair.samples, (key, entity_id)

    def test_every_evidenced_opinion_is_explainable(self, mined):
        # Entities with zero observed statements still get a model
        # posterior; lineage exists exactly for the pairs that had
        # evidence, and every opinion's combination links its fit.
        report, _ = mined
        lineage = report.provenance
        for opinion in report.result.opinions:
            if opinion.evidence.total > 0:
                assert (
                    lineage.for_pair(opinion.key, opinion.entity_id)
                    is not None
                )
            assert lineage.model_for(opinion.key) is not None

    def test_convergence_linked_per_combination(self, mined):
        report, _ = mined
        lineage = report.provenance
        for key in report.result.fits:
            summary = lineage.convergence_for(key)
            assert summary is not None
            assert {"verdict", "iterations", "converged",
                    "degraded"} <= set(summary)

    def test_off_switch_and_env_gate(
        self, small_kb, cute_scenario, monkeypatch
    ):
        """``provenance=False`` is the one off switch: the environment
        variable that used to gate capture is no longer read."""
        corpus = CorpusGenerator(seed=21).generate(cute_scenario)
        off = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10, provenance=False
        ).run(corpus)
        assert off.provenance is None
        monkeypatch.setenv("REPRO_PROVENANCE", "0")
        on = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=10
        ).run(corpus)
        assert on.provenance is not None

    def test_cold_and_warm_runs_byte_identical(
        self, small_kb, cute_scenario
    ):
        corpus = CorpusGenerator(seed=21).generate(cute_scenario)

        def run():
            return SurveyorPipeline(
                kb=small_kb, occurrence_threshold=10, n_workers=3
            ).run(corpus)

        reset_shared_annotation_state()
        cold = json.dumps(
            provenance_to_dict(run().provenance), sort_keys=True
        )
        warm = json.dumps(
            provenance_to_dict(run().provenance), sort_keys=True
        )
        assert cold == warm

    def test_parallel_equals_serial_lineage(
        self, small_kb, cute_scenario
    ):
        corpus = CorpusGenerator(seed=21).generate(cute_scenario)

        def run(executor):
            report = SurveyorPipeline(
                kb=small_kb,
                occurrence_threshold=10,
                n_workers=3,
                executor=executor,
            ).run(corpus)
            return provenance_to_dict(report.provenance)

        assert run("serial") == run("process")


class TestSidecarRoundTrip:
    def test_save_load_preserves_everything(self, mined, tmp_path):
        report, _ = mined
        lineage = report.provenance
        path = save(lineage, tmp_path / "op.json.provenance.json")
        loaded = load(path)
        assert isinstance(loaded, ProvenanceIndex)
        assert provenance_to_dict(loaded) == provenance_to_dict(
            lineage
        )
        assert loaded.n_pairs == lineage.n_pairs
        assert loaded.n_samples == lineage.n_samples
        for key in lineage.keys():
            assert loaded.model_for(key) == lineage.model_for(key)
            assert loaded.convergence_for(
                key
            ) == lineage.convergence_for(key)

    def test_path_convention(self):
        assert provenance_path_for("out/opinions.json").name == (
            "opinions.json.provenance.json"
        )

    def test_sample_dict_round_trip(self):
        sample = ProvenanceSample(
            doc_id="d1",
            sentence_index=4,
            pattern="pred_adj",
            polarity="negative",
            negations=1,
            sentence="Tigers are not cute.",
        )
        assert ProvenanceSample.from_dict(sample.to_dict()) == sample

    def test_sample_from_dict_defaults_optional_fields(self):
        sample = ProvenanceSample.from_dict(
            {
                "doc_id": "d1",
                "sentence_index": 0,
                "pattern": "p",
                "polarity": "positive",
            }
        )
        assert sample.negations == 0
        assert sample.sentence == ""


class TestMineSidecarCLI:
    DOCS = (
        "Kittens are cute.",
        "I think that kittens are cute.",
        "The kitten is a cute animal.",
        "Tigers are not cute.",
        "Tigers are dangerous animals.",
    )

    @pytest.fixture()
    def mined_paths(self, tmp_path):
        docs = tmp_path / "docs.txt"
        docs.write_text("\n".join(self.DOCS) + "\n")
        out = tmp_path / "opinions.json"
        rc = main(
            [
                "mine", str(docs), "--out", str(out),
                "--threshold", "1",
            ]
        )
        assert rc == 0
        return out, provenance_path_for(out)

    def test_mine_writes_sidecar_by_default(self, mined_paths):
        out, sidecar = mined_paths
        assert sidecar.exists()
        lineage = load(sidecar)
        assert isinstance(lineage, ProvenanceIndex)
        assert lineage.n_pairs > 0

    def test_mine_no_provenance_skips_sidecar(self, tmp_path):
        docs = tmp_path / "docs.txt"
        docs.write_text("\n".join(self.DOCS) + "\n")
        out = tmp_path / "opinions.json"
        rc = main(
            [
                "mine", str(docs), "--out", str(out),
                "--threshold", "1", "--no-provenance",
            ]
        )
        assert rc == 0
        assert not provenance_path_for(out).exists()

    def test_explain_text_renders_lineage(self, mined_paths, capsys):
        out, _ = mined_paths
        rc = main(
            ["explain", str(out), "/animal/kitten", "cute"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "/animal/kitten / cute (animal)" in text
        assert "lineage:" in text
        assert "via" in text  # at least one sample line

    def test_explain_json_payload(self, mined_paths, capsys):
        out, _ = mined_paths
        rc = main(
            [
                "explain", str(out), "/animal/kitten", "cute",
                "--format", "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "serve_explain"
        assert payload["lineage"]["available"] is True
        assert payload["lineage"]["samples"]
        assert payload["lineage"]["positive_seen"] >= 1
        assert payload["model"] is not None

    def test_explain_unknown_pair_exits_1(self, mined_paths, capsys):
        out, _ = mined_paths
        rc = main(
            [
                "explain", str(out), "/animal/unicorn", "cute",
                "--format", "json",
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["code"] == "not_found"

    def test_explain_without_sidecar_degrades(
        self, mined_paths, capsys
    ):
        out, sidecar = mined_paths
        sidecar.unlink()
        rc = main(
            [
                "explain", str(out), "/animal/kitten", "cute",
                "--format", "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lineage"]["available"] is False
        assert payload["lineage"]["samples"] == []
        assert payload["model"] is None
        assert payload["posterior"] > 0.5


class TestPairEquality:
    def test_pair_provenance_value_semantics(self):
        a = PairProvenance(positive_seen=1, negative_seen=0)
        b = PairProvenance(positive_seen=1, negative_seen=0)
        assert a == b

"""Tests for JSON persistence of the mined artefacts."""

from __future__ import annotations

import json
import random

import pytest

from repro.core import (
    EvidenceCounts,
    ModelParameters,
    Opinion,
    OpinionTable,
    PropertyTypeKey,
    SubjectiveProperty,
)
from repro.extraction import EvidenceCounter, EvidenceStatement
from repro.core.types import Polarity
from repro.core.errors import CheckpointError
from repro.kb import Entity, KnowledgeBase
from repro.storage import (
    FormatError,
    OpinionRows,
    evidence_from_dict,
    evidence_to_dict,
    load,
    load_shard_checkpoint,
    opinions_to_dict,
    save,
)
from repro.storage.canonical import encode

CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
VERY_BIG = PropertyTypeKey(
    SubjectiveProperty("big", ("very",)), "city"
)


class TestKnowledgeBaseRoundTrip:
    def test_round_trip(self, tmp_path, small_kb):
        path = save(small_kb, tmp_path / "kb.json")
        loaded = load(path)
        assert isinstance(loaded, KnowledgeBase)
        assert len(loaded) == len(small_kb)
        original = small_kb.get("/city/san_francisco")
        restored = loaded.get("/city/san_francisco")
        assert restored.name == original.name
        assert restored.attributes == original.attributes

    def test_aliases_survive(self, tmp_path):
        kb = KnowledgeBase(
            [Entity.create("white shark", "animal",
                           aliases=("great white shark",))]
        )
        loaded = load(save(kb, tmp_path / "kb.json"))
        assert loaded.candidates("great white shark")


class TestEvidenceRoundTrip:
    def test_round_trip(self, tmp_path):
        counter = EvidenceCounter()
        for _ in range(3):
            counter.add(
                EvidenceStatement(
                    entity_id="/animal/kitten",
                    entity_type="animal",
                    property=SubjectiveProperty("cute"),
                    polarity=Polarity.POSITIVE,
                    pattern="acomp",
                )
            )
        counter.add(
            EvidenceStatement(
                entity_id="/animal/kitten",
                entity_type="animal",
                property=SubjectiveProperty("cute"),
                polarity=Polarity.NEGATIVE,
                pattern="acomp",
            )
        )
        counter.add(
            EvidenceStatement(
                entity_id="/city/sf",
                entity_type="city",
                property=VERY_BIG.property,
                polarity=Polarity.POSITIVE,
                pattern="acomp",
            )
        )
        loaded = load(save(counter, tmp_path / "ev.json"))
        counts = loaded.get(CUTE, "/animal/kitten")
        assert (counts.positive, counts.negative) == (3, 1)
        assert loaded == counter
        assert loaded.n_statements == counter.n_statements == 5


def evidence_payload(pair):
    return {
        "format": "evidence",
        "version": 1,
        "combinations": {"cute|animal": {"/animal/kitten": pair}},
    }


class TestEvidenceLoader:
    def test_zero_pair_adds_no_slot(self):
        loaded = evidence_from_dict(evidence_payload([0, 0]))
        assert loaded == EvidenceCounter()
        assert loaded.keys() == []

    def test_huge_count_loads_in_one_step(self):
        # One slot per pair: a count of 10**12 must not loop 10**12
        # times.
        loaded = evidence_from_dict(evidence_payload([10**12, 3]))
        assert loaded.get(CUTE, "/animal/kitten") == EvidenceCounts(
            10**12, 3
        )
        assert loaded.n_statements == 10**12 + 3

    @pytest.mark.parametrize(
        "pair",
        [
            [-5, 2],
            [2, -1],
            [True, 0],
            [0, False],
            [2.9, 1],
            [2.0, 1],
            ["3", 1],
            [None, 1],
            [1],
            [1, 2, 3],
            [],
            {"positive": 1, "negative": 2},
            "12",
            7,
        ],
        ids=repr,
    )
    def test_hostile_counts_rejected(self, pair):
        with pytest.raises(FormatError):
            evidence_from_dict(evidence_payload(pair))

    def test_non_object_combination_rejected(self):
        payload = evidence_payload([1, 1])
        payload["combinations"]["cute|animal"] = [[1, 1]]
        with pytest.raises(FormatError):
            evidence_from_dict(payload)

    def test_hostile_count_in_checkpoint_is_checkpoint_error(
        self, tmp_path
    ):
        path = tmp_path / "shard-00000.json"
        path.write_text(
            json.dumps(
                {
                    "format": "shard_checkpoint",
                    "version": 1,
                    "shard_id": 0,
                    "evidence": evidence_payload([-5, 2.9]),
                    "dead_letters": [],
                }
            )
        )
        with pytest.raises(CheckpointError):
            load_shard_checkpoint(path)


class TestFileLayout:
    def test_artefacts_are_compact_sorted_json(self, tmp_path):
        counter = evidence_from_dict(evidence_payload([2, 1]))
        text = save(counter, tmp_path / "ev.json").read_text()
        assert text == json.dumps(
            evidence_to_dict(counter),
            sort_keys=True,
            separators=(",", ":"),
        )
        assert not list(tmp_path.glob("*.tmp"))


class TestParametersRoundTrip:
    def test_round_trip(self, tmp_path):
        params = {
            CUTE: ModelParameters(0.9, 30.0, 3.0),
            VERY_BIG: ModelParameters(0.8, 12.0, 6.0),
        }
        loaded = load(save(params, tmp_path / "params.json"))
        assert loaded == params

    def test_adverb_key_survives(self, tmp_path):
        params = {VERY_BIG: ModelParameters(0.8, 12.0, 6.0)}
        loaded = load(save(params, tmp_path / "params.json"))
        key = next(iter(loaded))
        assert key.property.adverbs == ("very",)


class TestOpinionsRoundTrip:
    def test_round_trip(self, tmp_path):
        table = OpinionTable(
            [
                Opinion(
                    "/animal/kitten", CUTE, 0.97, EvidenceCounts(9, 1)
                ),
                Opinion(
                    "/city/tokyo", VERY_BIG, 0.88, EvidenceCounts(4, 0)
                ),
            ]
        )
        loaded = load(save(table, tmp_path / "op.json"))
        assert isinstance(loaded, OpinionTable)
        assert len(loaded) == 2
        kitten = loaded.get("/animal/kitten", CUTE)
        assert kitten.probability == pytest.approx(0.97)
        assert kitten.evidence == EvidenceCounts(9, 1)

    def test_queries_work_after_load(self, tmp_path):
        table = OpinionTable(
            [Opinion("/animal/kitten", CUTE, 0.97, EvidenceCounts(9, 1))]
        )
        loaded = load(save(table, tmp_path / "op.json"))
        assert loaded.entities_with(CUTE)[0].entity_id == "/animal/kitten"

    def test_degraded_flags_round_trip(self, tmp_path):
        table = OpinionTable(
            [
                Opinion(
                    "/animal/kitten", CUTE, 0.97, EvidenceCounts(9, 1)
                ),
                Opinion(
                    "/city/tokyo", VERY_BIG, 0.88, EvidenceCounts(4, 0)
                ),
            ]
        )
        table.mark_degraded(VERY_BIG)
        loaded = load(save(table, tmp_path / "op.json"))
        assert loaded.is_degraded(VERY_BIG)
        assert not loaded.is_degraded(CUTE)
        assert loaded.degraded_keys == frozenset({VERY_BIG})

    def test_files_without_degraded_key_still_load(self, tmp_path):
        # Artefacts written before the flag existed carry no
        # "degraded" entry; they must load as fully-trusted tables.
        path = save(
            OpinionTable(
                [Opinion("/animal/kitten", CUTE, 0.97,
                         EvidenceCounts(9, 1))]
            ),
            tmp_path / "op.json",
        )
        payload = json.loads(path.read_text())
        del payload["degraded"]
        path.write_text(json.dumps(payload))
        loaded = load(path)
        assert loaded.degraded_keys == frozenset()


class TestOpinionRowsSplice:
    """``OpinionRows`` splices each block's kept row text; the bytes
    must be those of encoding the decoded rows whole."""

    @staticmethod
    def whole(table) -> bytes:
        return json.dumps(
            opinions_to_dict(table), sort_keys=True, separators=(",", ":")
        ).encode()

    @staticmethod
    def spliced(table, rows) -> bytes:
        return encode(opinions_to_dict(table, rows)).encode()

    @staticmethod
    def table(seed: int) -> OpinionTable:
        rng = random.Random(seed)
        table = OpinionTable()
        for adjective in ("cute", "big", "calm", "loud"):
            key = PropertyTypeKey(SubjectiveProperty(adjective), "animal")
            entities = rng.sample(range(30), rng.randint(1, 8))
            table.add_block(key, tuple(
                Opinion(
                    f"/animal/a{entity}", key, rng.random(),
                    EvidenceCounts(rng.randint(0, 9), rng.randint(0, 9)),
                )
                for entity in entities
            ))
        return table

    @pytest.mark.parametrize("seed", range(5))
    def test_carried_generations_write_whole_bytes(self, seed):
        rows = OpinionRows()
        older, fresh = self.table(seed), self.table(seed + 50)
        assert self.spliced(older, rows) == self.whole(older)
        newer = OpinionTable(degraded_keys=[CUTE])
        for i, key in enumerate(older.keys()):
            source = older if i % 2 else fresh
            newer.add_block(key, source.block(key))
        assert self.spliced(newer, rows) == self.whole(newer)
        # A table built by add, then changed after a write.
        newer.add(Opinion("/animal/zebra", CUTE, 0.3))
        assert self.spliced(newer, rows) == self.whole(newer)
        empty = OpinionTable()
        assert self.spliced(empty, rows) == self.whole(empty)

    def test_keys_sharing_a_text_interleave_their_rows(self):
        # "very big" as one adjective and as adverb + adjective: two
        # keys, one key text, so rows sort across both blocks.
        odd = PropertyTypeKey(SubjectiveProperty("very big"), "city")
        table = OpinionTable([
            Opinion("/city/b", VERY_BIG, 0.9),
            Opinion("/city/a", odd, 0.2),
            Opinion("/city/c", odd, 0.7),
        ])
        data = self.spliced(table, OpinionRows())
        assert data == self.whole(table)
        rows = json.loads(data)["opinions"]
        assert [row["entity"] for row in rows] == [
            "/city/a", "/city/b", "/city/c",
        ]


class TestErrors:
    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save(object(), tmp_path / "x.json")

    def test_non_artefact_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(FormatError):
            load(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"format": "wat", "version": 1}))
        with pytest.raises(FormatError):
            load(path)

    def test_version_mismatch_rejected(self, tmp_path, small_kb):
        path = save(small_kb, tmp_path / "kb.json")
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            load(path)

    def test_malformed_key_rejected(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(
            json.dumps(
                {
                    "format": "opinions",
                    "version": 1,
                    "opinions": [
                        {
                            "entity": "/x",
                            "key": "nokeyhere",
                            "probability": 0.5,
                            "positive": 0,
                            "negative": 0,
                        }
                    ],
                }
            )
        )
        with pytest.raises(FormatError):
            load(path)

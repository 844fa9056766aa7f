"""Tests for the OpinionTable store."""

from __future__ import annotations

import pytest

from repro.core import (
    EvidenceCounts,
    Opinion,
    OpinionTable,
    Polarity,
    PropertyTypeKey,
    SubjectiveProperty,
)

CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
BIG = PropertyTypeKey(SubjectiveProperty("big"), "animal")


def opinion(entity: str, key: PropertyTypeKey, prob: float) -> Opinion:
    return Opinion(entity, key, prob, EvidenceCounts(1, 1))


class TestStorage:
    def test_add_and_get(self):
        table = OpinionTable()
        table.add(opinion("/animal/kitten", CUTE, 0.95))
        stored = table.get("/animal/kitten", CUTE)
        assert stored is not None
        assert stored.probability == 0.95

    def test_get_missing_returns_none(self):
        assert OpinionTable().get("/animal/ghost", CUTE) is None

    def test_polarity_of_missing_is_neutral(self):
        assert OpinionTable().polarity("/animal/ghost", CUTE) is (
            Polarity.NEUTRAL
        )

    def test_replacement_keeps_single_row(self):
        table = OpinionTable()
        table.add(opinion("/animal/kitten", CUTE, 0.2))
        table.add(opinion("/animal/kitten", CUTE, 0.9))
        assert len(table) == 1
        assert table.get("/animal/kitten", CUTE).probability == 0.9
        assert len(table.for_key(CUTE)) == 1
        assert len(table.for_entity("/animal/kitten")) == 1

    def test_len_and_iter(self):
        table = OpinionTable(
            [
                opinion("/animal/kitten", CUTE, 0.9),
                opinion("/animal/snake", CUTE, 0.1),
            ]
        )
        assert len(table) == 2
        assert {op.entity_id for op in table} == {
            "/animal/kitten", "/animal/snake",
        }

    def test_contains(self):
        table = OpinionTable([opinion("/animal/kitten", CUTE, 0.9)])
        assert ("/animal/kitten", CUTE) in table
        assert ("/animal/kitten", BIG) not in table


class TestQueries:
    def build(self) -> OpinionTable:
        return OpinionTable(
            [
                opinion("/animal/kitten", CUTE, 0.99),
                opinion("/animal/puppy", CUTE, 0.90),
                opinion("/animal/snake", CUTE, 0.05),
                opinion("/animal/tiger", CUTE, 0.40),
                opinion("/animal/tiger", BIG, 0.97),
            ]
        )

    def test_entities_with_positive_ranked_by_confidence(self):
        hits = self.build().entities_with(CUTE)
        assert [op.entity_id for op in hits] == [
            "/animal/kitten", "/animal/puppy",
        ]

    def test_entities_with_negative_ranked_most_negative_first(self):
        hits = self.build().entities_with(CUTE, Polarity.NEGATIVE)
        assert [op.entity_id for op in hits] == [
            "/animal/snake", "/animal/tiger",
        ]

    def test_min_probability_filters(self):
        hits = self.build().entities_with(CUTE, min_probability=0.95)
        assert [op.entity_id for op in hits] == ["/animal/kitten"]

    def test_for_entity_spans_keys(self):
        rows = self.build().for_entity("/animal/tiger")
        assert {row.key for row in rows} == {CUTE, BIG}

    def test_keys_listing(self):
        assert set(self.build().keys()) == {CUTE, BIG}

    def test_update_bulk(self):
        table = OpinionTable()
        table.update(
            [
                opinion("/animal/kitten", CUTE, 0.9),
                opinion("/animal/snake", CUTE, 0.1),
            ]
        )
        assert len(table) == 2


class TestBlocks:
    def test_add_block_is_kept_and_indexed(self):
        block = (
            opinion("/animal/kitten", CUTE, 0.9),
            opinion("/animal/snake", CUTE, 0.1),
        )
        table = OpinionTable()
        table.add_block(CUTE, block)
        assert table.block(CUTE) is block
        assert len(table) == 2
        assert table.get("/animal/snake", CUTE) is block[1]
        assert table.for_entity("/animal/kitten") == [block[0]]
        assert set(table.entities()) == {"/animal/kitten", "/animal/snake"}
        assert [op.entity_id for op in table] == [
            "/animal/kitten", "/animal/snake",
        ]

    def test_empty_block_adds_no_key(self):
        table = OpinionTable()
        table.add_block(CUTE, ())
        assert table.keys() == []
        assert table.block(CUTE) == ()

    def test_a_key_takes_one_block(self):
        table = OpinionTable([opinion("/animal/kitten", CUTE, 0.9)])
        with pytest.raises(ValueError):
            table.add_block(CUTE, (opinion("/animal/snake", CUTE, 0.1),))

    def test_block_freezes_what_add_built_once(self):
        table = OpinionTable([opinion("/animal/kitten", CUTE, 0.9)])
        block = table.block(CUTE)
        assert block == (opinion("/animal/kitten", CUTE, 0.9),)
        assert table.block(CUTE) is block

    def test_add_copies_a_shared_block_before_writing(self):
        older = OpinionTable()
        older.add_block(
            CUTE,
            (
                opinion("/animal/kitten", CUTE, 0.9),
                opinion("/animal/snake", CUTE, 0.1),
            ),
        )
        newer = OpinionTable()
        newer.add_block(CUTE, older.block(CUTE))
        newer.add(opinion("/animal/snake", CUTE, 0.8))
        newer.add(opinion("/animal/tiger", CUTE, 0.7))
        assert [op.probability for op in older.for_key(CUTE)] == [0.9, 0.1]
        assert len(older) == 2
        assert older.polarity("/animal/snake", CUTE) is Polarity.NEGATIVE
        assert [op.probability for op in newer.for_key(CUTE)] == [
            0.9, 0.8, 0.7,
        ]
        assert newer.block(CUTE) is not older.block(CUTE)

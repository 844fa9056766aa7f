"""Tests for evidence statements and count aggregation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import Polarity, PropertyTypeKey, SubjectiveProperty
from repro.extraction import EvidenceCounter, EvidenceStatement

CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")


def statement(
    entity: str = "/animal/kitten",
    polarity: Polarity = Polarity.POSITIVE,
    prop: str = "cute",
) -> EvidenceStatement:
    return EvidenceStatement(
        entity_id=entity,
        entity_type="animal",
        property=SubjectiveProperty.parse(prop),
        polarity=polarity,
        pattern="acomp",
    )


class TestEvidenceStatement:
    def test_key_derivation(self):
        assert statement().key == CUTE

    def test_neutral_polarity_rejected(self):
        with pytest.raises(ValueError):
            statement(polarity=Polarity.NEUTRAL)

    @pytest.mark.parametrize("polarity", [Polarity.POSITIVE, Polarity.NEGATIVE])
    def test_restamp_equals_replace_and_shares_the_key(self, polarity):
        proto = dataclasses.replace(
            statement(polarity=polarity),
            doc_id="d0",
            sentence="Kittens are cute.",
            negations=int(polarity is Polarity.NEGATIVE),
        )
        copy = proto.restamp("d7")
        expected = dataclasses.replace(proto, doc_id="d7")
        assert copy == expected
        assert repr(copy) == repr(expected)
        assert hash(copy) == hash(expected)
        assert copy.key is proto.key
        assert copy != proto

    def test_key_is_not_part_of_equality(self):
        other = statement()
        assert other.key is not statement().key
        assert other == statement()
        assert "key" not in repr(other)


class TestEvidenceCounter:
    def test_counts_by_polarity(self):
        counter = EvidenceCounter()
        counter.add(statement())
        counter.add(statement())
        counter.add(statement(polarity=Polarity.NEGATIVE))
        counts = counter.get(CUTE, "/animal/kitten")
        assert (counts.positive, counts.negative) == (2, 1)

    def test_unknown_pair_is_zero(self):
        counter = EvidenceCounter()
        counts = counter.get(CUTE, "/animal/ghost")
        assert counts.total == 0

    def test_n_statements_and_pairs(self):
        counter = EvidenceCounter()
        counter.add_all(
            [
                statement(),
                statement(entity="/animal/snake"),
                statement(entity="/animal/snake", prop="big"),
            ]
        )
        assert counter.n_statements == 3
        assert counter.n_pairs == 3
        assert len(counter.keys()) == 2

    def test_merge(self):
        left = EvidenceCounter()
        left.add(statement())
        right = EvidenceCounter()
        right.add(statement())
        right.add(statement(polarity=Polarity.NEGATIVE))
        left.merge(right)
        counts = left.get(CUTE, "/animal/kitten")
        assert (counts.positive, counts.negative) == (2, 1)
        assert left.n_statements == 3

    def test_merge_disjoint_keys(self):
        left = EvidenceCounter()
        left.add(statement())
        right = EvidenceCounter()
        right.add(statement(prop="big"))
        left.merge(right)
        assert len(left.keys()) == 2

    def test_as_evidence_shape(self):
        counter = EvidenceCounter()
        counter.add(statement())
        evidence = counter.as_evidence()
        assert CUTE in evidence
        assert "/animal/kitten" in evidence[CUTE]
        assert evidence[CUTE]["/animal/kitten"].positive == 1

    def test_statements_per_key(self):
        counter = EvidenceCounter()
        counter.add_all([statement(), statement(), statement(prop="big")])
        per_key = counter.statements_per_key()
        assert per_key[CUTE] == 2

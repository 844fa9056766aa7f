"""Unit tests for the core value types."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import (
    EvidenceCounts,
    Opinion,
    Polarity,
    PropertyTypeKey,
    SubjectiveProperty,
)
from repro.core.types import EvidenceBlock
from repro.extraction import EvidenceCounter, EvidenceStatement


class TestPolarity:
    def test_flipped_positive(self):
        assert Polarity.POSITIVE.flipped() is Polarity.NEGATIVE

    def test_flipped_negative(self):
        assert Polarity.NEGATIVE.flipped() is Polarity.POSITIVE

    def test_flipped_neutral_stays(self):
        assert Polarity.NEUTRAL.flipped() is Polarity.NEUTRAL

    def test_values_match_paper_notation(self):
        assert Polarity.POSITIVE.value == "+"
        assert Polarity.NEGATIVE.value == "-"
        assert Polarity.NEUTRAL.value == "N"


class TestSubjectiveProperty:
    def test_plain_adjective(self):
        prop = SubjectiveProperty("cute")
        assert prop.text == "cute"
        assert prop.adverbs == ()

    def test_adverbs_precede_adjective(self):
        prop = SubjectiveProperty("big", ("very",))
        assert prop.text == "very big"

    def test_multiple_adverbs(self):
        prop = SubjectiveProperty("populated", ("very", "densely"))
        assert prop.text == "very densely populated"

    def test_case_normalization(self):
        assert SubjectiveProperty("Big", ("Very",)).text == "very big"

    def test_parse_round_trip(self):
        prop = SubjectiveProperty.parse("densely populated")
        assert prop.adjective == "populated"
        assert prop.adverbs == ("densely",)
        assert SubjectiveProperty.parse(prop.text) == prop

    def test_parse_empty_rejected(self):
        with pytest.raises(ValueError):
            SubjectiveProperty.parse("   ")

    def test_empty_adjective_rejected(self):
        with pytest.raises(ValueError):
            SubjectiveProperty("")

    def test_equality_and_hash(self):
        assert SubjectiveProperty("cute") == SubjectiveProperty("CUTE")
        assert hash(SubjectiveProperty("big", ("very",))) == hash(
            SubjectiveProperty("big", ("very",))
        )


class TestPropertyTypeKey:
    def test_string_form(self):
        key = PropertyTypeKey(SubjectiveProperty("cute"), "Animal")
        assert str(key) == "cute animal"

    def test_type_normalized(self):
        key = PropertyTypeKey(SubjectiveProperty("big"), "CITY")
        assert key.entity_type == "city"

    def test_usable_as_dict_key(self):
        key_a = PropertyTypeKey(SubjectiveProperty("big"), "city")
        key_b = PropertyTypeKey(SubjectiveProperty("big"), "city")
        assert {key_a: 1}[key_b] == 1

    def test_cached_hash_and_texts(self):
        key = PropertyTypeKey(SubjectiveProperty("big", ("very",)), "City")
        # The dataclass's own hash value, so no dict or set order moves.
        assert hash(key) == hash((key.property, "city"))
        assert str(key) == "very big city" and str(key) is str(key)
        assert key.text == "very big|city" and key.text is key.text

    def test_a_key_pickled_in_another_process_hashes_here(self):
        # String hashes are seeded per process: the cached hash must
        # not travel with the key.
        script = (
            "import pickle, sys\n"
            "from repro.core import PropertyTypeKey, SubjectiveProperty\n"
            "key = PropertyTypeKey(SubjectiveProperty('big', ('very',)), "
            "'city')\n"
            "str(key), key.text\n"
            "sys.stdout.buffer.write(pickle.dumps((hash(key), key)))\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": str(Path(repro.__file__).parents[1]),
        }
        theirs, key = pickle.loads(subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, check=True,
        ).stdout)
        fresh = PropertyTypeKey(SubjectiveProperty("big", ("very",)), "city")
        assert theirs != hash(fresh)
        assert key == fresh and hash(key) == hash(fresh)
        assert {fresh: 1}[key] == 1
        assert str(key) == str(fresh) and key.text == fresh.text


def _statement(adjective: str, entity: str, positive: bool = True):
    return EvidenceStatement(
        entity_id=entity,
        entity_type="animal",
        property=SubjectiveProperty(adjective),
        polarity=Polarity.POSITIVE if positive else Polarity.NEGATIVE,
        pattern="pred_adj",
    )


def _columns(block: EvidenceBlock) -> tuple:
    return block.ids, block.positive, block.negative, block.total


class TestEvidenceBlocks:
    def test_a_merge_replaces_exactly_the_touched_blocks(self):
        counter = EvidenceCounter()
        counter.add_all(
            _statement(adjective, "/animal/a")
            for adjective in ("cute", "big", "loud")
        )
        before = counter.blocks()
        assert all(
            block is before[key] for key, block in counter.blocks().items()
        )
        delta = EvidenceCounter()
        delta.add_all([
            _statement("big", "/animal/b", positive=False),
            _statement("calm", "/animal/a"),
        ])
        counter.merge(delta)
        after = counter.blocks()
        assert list(after) == [*before, *delta.keys()[1:]]
        assert {
            key for key, block in after.items() if block is not before.get(key)
        } == set(delta.keys())
        big = PropertyTypeKey(SubjectiveProperty("big"), "animal")
        assert _columns(after[big]) == (
            ("/animal/a", "/animal/b"), (1, 0), (0, 1), 2
        )
        assert {key: block.total for key, block in after.items()} == (
            counter.statements_per_key()
        )
        # One more statement replaces its block only.
        counter.add(_statement("cute", "/animal/c"))
        latest = counter.blocks()
        assert [key for key in latest if latest[key] is not after[key]] == [
            PropertyTypeKey(SubjectiveProperty("cute"), "animal")
        ]

    def test_padded_adds_the_unmentioned_entities_as_zeros(self):
        block = EvidenceBlock.of({"/a/y": (2, 1), "/a/w": (0, 3)})
        assert _columns(block) == (("/a/w", "/a/y"), (0, 2), (3, 1), 6)
        assert block.padded(["/a/y"]) is block
        assert _columns(block.padded(["/a/x", "/a/z", "/a/y"])) == (
            ("/a/w", "/a/x", "/a/y", "/a/z"), (0, 0, 2, 0), (3, 0, 1, 0), 6
        )


class TestEvidenceCounts:
    def test_total(self):
        assert EvidenceCounts(3, 4).total == 7

    def test_zero_constant(self):
        assert EvidenceCounts.ZERO.positive == 0
        assert EvidenceCounts.ZERO.negative == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            EvidenceCounts(-1, 0)
        with pytest.raises(ValueError):
            EvidenceCounts(0, -2)

    def test_majority_positive(self):
        assert EvidenceCounts(5, 2).majority() is Polarity.POSITIVE

    def test_majority_negative(self):
        assert EvidenceCounts(1, 2).majority() is Polarity.NEGATIVE

    def test_majority_tie_is_neutral(self):
        assert EvidenceCounts(3, 3).majority() is Polarity.NEUTRAL

    def test_majority_zero_zero_is_neutral(self):
        assert EvidenceCounts(0, 0).majority() is Polarity.NEUTRAL


class TestOpinion:
    def _key(self) -> PropertyTypeKey:
        return PropertyTypeKey(SubjectiveProperty("cute"), "animal")

    def test_polarity_above_half_positive(self):
        opinion = Opinion("/animal/kitten", self._key(), 0.9)
        assert opinion.polarity is Polarity.POSITIVE
        assert opinion.decided

    def test_polarity_below_half_negative(self):
        opinion = Opinion("/animal/snake", self._key(), 0.1)
        assert opinion.polarity is Polarity.NEGATIVE
        assert opinion.decided

    def test_exactly_half_undecided(self):
        opinion = Opinion("/animal/tiger", self._key(), 0.5)
        assert opinion.polarity is Polarity.NEUTRAL
        assert not opinion.decided

    def test_probability_range_validated(self):
        with pytest.raises(ValueError):
            Opinion("/animal/kitten", self._key(), 1.5)
        with pytest.raises(ValueError):
            Opinion("/animal/kitten", self._key(), -0.1)

    def test_default_evidence_is_zero(self):
        opinion = Opinion("/animal/kitten", self._key(), 0.7)
        assert opinion.evidence == EvidenceCounts.ZERO

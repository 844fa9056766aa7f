"""Tests for the Surveyor driver (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core import (
    EvidenceCounts,
    Polarity,
    PropertyTypeKey,
    SubjectiveProperty,
    Surveyor,
)


class StubCatalog:
    """Minimal EntityCatalog implementation for driver tests."""

    def __init__(self, by_type: dict[str, list[str]]):
        self._by_type = by_type

    def entity_ids_of_type(self, entity_type: str):
        return list(self._by_type.get(entity_type, ()))


CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
BIG = PropertyTypeKey(SubjectiveProperty("big"), "city")


def animal_catalog() -> StubCatalog:
    return StubCatalog(
        {"animal": ["/animal/kitten", "/animal/snake", "/animal/ghost"]}
    )


def strong_evidence() -> dict:
    """Clearly separable counts for two of three animals."""
    return {
        CUTE: {
            "/animal/kitten": EvidenceCounts(60, 1),
            "/animal/snake": EvidenceCounts(4, 20),
        }
    }


class TestThreshold:
    def test_below_threshold_skipped(self):
        surveyor = Surveyor(
            catalog=animal_catalog(), occurrence_threshold=1000
        )
        result = surveyor.run(strong_evidence())
        assert result.skipped == (CUTE,)
        assert len(result.opinions) == 0
        assert not result.fits

    def test_at_threshold_processed(self):
        surveyor = Surveyor(catalog=animal_catalog(), occurrence_threshold=85)
        result = surveyor.run(strong_evidence())
        assert CUTE in result.fits
        assert not result.skipped

    def test_threshold_counts_all_statements(self):
        """The threshold applies to positive + negative statements."""
        surveyor = Surveyor(catalog=animal_catalog(), occurrence_threshold=86)
        result = surveyor.run(strong_evidence())
        assert result.skipped == (CUTE,)


class TestOpinions:
    def test_decides_every_catalog_entity(self):
        """Including /animal/ghost, which has no evidence at all."""
        surveyor = Surveyor(catalog=animal_catalog(), occurrence_threshold=1)
        result = surveyor.run(strong_evidence())
        for entity_id in (
            "/animal/kitten", "/animal/snake", "/animal/ghost",
        ):
            assert result.opinions.get(entity_id, CUTE) is not None

    def test_kitten_positive_snake_negative(self):
        surveyor = Surveyor(catalog=animal_catalog(), occurrence_threshold=1)
        result = surveyor.run(strong_evidence())
        assert result.opinions.polarity("/animal/kitten", CUTE) is (
            Polarity.POSITIVE
        )
        assert result.opinions.polarity("/animal/snake", CUTE) is (
            Polarity.NEGATIVE
        )

    def test_silent_entity_negative_under_positive_bias(self):
        """The ghost animal was never mentioned; with a strong bias
        toward writing about cute animals, silence implies not-cute."""
        surveyor = Surveyor(catalog=animal_catalog(), occurrence_threshold=1)
        result = surveyor.run(strong_evidence())
        assert result.opinions.polarity("/animal/ghost", CUTE) is (
            Polarity.NEGATIVE
        )

    def test_evidence_entity_outside_catalog_still_interpreted(self):
        evidence = {
            CUTE: {
                "/animal/kitten": EvidenceCounts(60, 1),
                "/animal/snake": EvidenceCounts(4, 20),
                "/animal/alien": EvidenceCounts(55, 0),
            }
        }
        surveyor = Surveyor(catalog=animal_catalog(), occurrence_threshold=1)
        result = surveyor.run(evidence)
        assert result.opinions.get("/animal/alien", CUTE) is not None

    def test_multiple_combinations_fit_independently(self):
        catalog = StubCatalog(
            {
                "animal": ["/animal/kitten", "/animal/snake"],
                "city": ["/city/tokyo", "/city/bruges"],
            }
        )
        evidence = dict(strong_evidence())
        evidence[BIG] = {
            "/city/tokyo": EvidenceCounts(80, 2),
            "/city/bruges": EvidenceCounts(3, 9),
        }
        result = Surveyor(catalog=catalog, occurrence_threshold=1).run(
            evidence
        )
        assert set(result.fits) == {CUTE, BIG}
        assert result.fits[CUTE].parameters != result.fits[BIG].parameters

    def test_fit_records_statement_and_entity_counts(self):
        surveyor = Surveyor(catalog=animal_catalog(), occurrence_threshold=1)
        result = surveyor.run(strong_evidence())
        fit = result.fits[CUTE]
        assert fit.n_entities == 3  # two evidenced + one silent
        assert fit.n_statements == 85

    def test_fit_combination_rejects_empty_world(self):
        surveyor = Surveyor(
            catalog=StubCatalog({}), occurrence_threshold=1
        )
        with pytest.raises(ValueError):
            surveyor.fit_combination(CUTE, {})


class TestEmitUndecided:
    def test_undecided_dropped_by_default(self):
        """Posterior exactly 0.5 yields no tuple (paper Section 3)."""
        # Symmetric world: equal rates, symmetric counts.
        evidence = {
            CUTE: {
                "/animal/kitten": EvidenceCounts(10, 10),
                "/animal/snake": EvidenceCounts(10, 10),
                "/animal/ghost": EvidenceCounts(10, 10),
            }
        }
        surveyor = Surveyor(catalog=animal_catalog(), occurrence_threshold=1)
        result = surveyor.run(evidence)
        for opinion in result.opinions:
            assert opinion.decided

    def test_emit_undecided_keeps_neutral_rows(self):
        evidence = {
            CUTE: {
                "/animal/kitten": EvidenceCounts(10, 10),
                "/animal/snake": EvidenceCounts(10, 10),
                "/animal/ghost": EvidenceCounts(10, 10),
            }
        }
        surveyor = Surveyor(
            catalog=animal_catalog(),
            occurrence_threshold=1,
            emit_undecided=True,
        )
        result = surveyor.run(evidence)
        assert len(result.opinions) == 3


class TestCarryForward:
    """A run given the previous result takes a clean combination's
    block unchanged when its fit is the very object used last time."""

    def build(self):
        catalog = StubCatalog(
            {
                "animal": ["/animal/kitten", "/animal/snake"],
                "city": ["/city/tokyo", "/city/bruges"],
            }
        )
        evidence = dict(strong_evidence())
        evidence[BIG] = {
            "/city/tokyo": EvidenceCounts(80, 2),
            "/city/bruges": EvidenceCounts(3, 9),
        }
        surveyor = Surveyor(catalog=catalog, occurrence_threshold=1)
        return surveyor, evidence, surveyor.run(evidence)

    def test_clean_blocks_carry_and_dirty_ones_are_emitted(self):
        surveyor, evidence, first = self.build()
        evidence[CUTE] = {
            **evidence[CUTE], "/animal/kitten": EvidenceCounts(70, 1),
        }
        fits = dict(first.fits)
        fits[CUTE] = surveyor.fit_combination(CUTE, evidence[CUTE])
        second = surveyor.run(
            evidence,
            fit=lambda key, _: fits[key],
            previous=first,
            dirty={CUTE},
        )
        assert second.opinions.block(BIG) is first.opinions.block(BIG)
        assert second.opinions.block(CUTE) is not first.opinions.block(
            CUTE
        )
        cold = surveyor.run(evidence)
        for key in (CUTE, BIG):
            assert second.opinions.block(key) == cold.opinions.block(key)

    def test_no_carry_for_a_dirty_key_or_a_new_fit(self):
        surveyor, evidence, first = self.build()
        # The same fit object, but the key is dirty: emitted again.
        dirty = surveyor.run(
            evidence,
            fit=lambda key, _: first.fits[key],
            previous=first,
            dirty={CUTE},
        )
        assert dirty.opinions.block(CUTE) is not first.opinions.block(CUTE)
        assert dirty.opinions.block(BIG) is first.opinions.block(BIG)
        # A clean key with a fresh (equal) fit: emitted again.
        refit = surveyor.run(evidence, previous=first)
        for key in (CUTE, BIG):
            assert refit.opinions.block(key) is not first.opinions.block(
                key
            )
            assert refit.opinions.block(key) == first.opinions.block(key)

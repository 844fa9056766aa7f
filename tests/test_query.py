"""Tests for the subjective query engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EvidenceCounts,
    Opinion,
    OpinionTable,
    PropertyTypeKey,
    SubjectiveProperty,
)
from repro.core.query import (
    QueryEngine,
    QueryError,
    SubjectiveQuery,
)
from repro.nlp import lexicon
from repro.serve import OpinionIndex

CALM = PropertyTypeKey(SubjectiveProperty("calm"), "city")
CHEAP = PropertyTypeKey(SubjectiveProperty("cheap"), "city")


def table() -> OpinionTable:
    def op(city, key, p):
        return Opinion(f"/city/{city}", key, p, EvidenceCounts(1, 0))

    return OpinionTable(
        [
            op("bruges", CALM, 0.95), op("bruges", CHEAP, 0.30),
            op("bangkok", CALM, 0.05), op("bangkok", CHEAP, 0.95),
            op("tallinn", CALM, 0.90), op("tallinn", CHEAP, 0.80),
            op("tokyo", CALM, 0.20), op("tokyo", CHEAP, 0.10),
        ]
    )


class TestParse:
    def test_single_property(self):
        query = SubjectiveQuery.parse("calm cities")
        assert query.entity_type == "city"
        assert query.terms[0].property.text == "calm"
        assert not query.terms[0].negated

    def test_multiple_properties(self):
        query = SubjectiveQuery.parse("calm cheap cities")
        assert [t.property.text for t in query.terms] == [
            "calm", "cheap",
        ]

    def test_type_noun_synonyms(self):
        assert SubjectiveQuery.parse("calm towns").entity_type == "city"
        assert (
            SubjectiveQuery.parse("cute creatures").entity_type
            == "animal"
        )

    def test_negated_term(self):
        query = SubjectiveQuery.parse("not hectic cities")
        assert query.terms[0].negated
        assert query.terms[0].property.text == "hectic"

    def test_adverb_property(self):
        query = SubjectiveQuery.parse("very big cities")
        assert query.terms[0].property.text == "very big"

    def test_round_trip_text(self):
        query = SubjectiveQuery.parse("calm not cheap cities")
        assert query.text() == "calm not cheap city"

    def test_unknown_type_noun_rejected(self):
        with pytest.raises(QueryError):
            SubjectiveQuery.parse("calm gadgets")

    def test_too_short_rejected(self):
        with pytest.raises(QueryError):
            SubjectiveQuery.parse("cities")

    def test_dangling_not_rejected(self):
        with pytest.raises(QueryError, match="dangling 'not'"):
            SubjectiveQuery.parse("calm not cities")

    def test_duplicate_property_rejected(self):
        with pytest.raises(QueryError, match="duplicate property"):
            SubjectiveQuery.parse("calm calm cities")

    def test_duplicate_with_negation_rejected(self):
        # The same property asked both ways is still a contradiction
        # of intent; reject rather than silently multiply p * (1-p).
        with pytest.raises(QueryError, match="duplicate property"):
            SubjectiveQuery.parse("calm not calm cities")

    def test_adverb_variant_is_not_a_duplicate(self):
        query = SubjectiveQuery.parse("big very big cities")
        assert [t.property.text for t in query.terms] == [
            "big",
            "very big",
        ]

    def test_trailing_adverb_adjective_recovers(self):
        # "pretty" is an intensifier, but before a type noun it can
        # only be the adjective ("pretty cities").
        query = SubjectiveQuery.parse("pretty cities")
        assert [t.property.text for t in query.terms] == ["pretty"]

    def test_trailing_pure_adverb_rejected(self):
        with pytest.raises(QueryError, match="attaches to no"):
            SubjectiveQuery.parse("calm very cities")


class TestAnswer:
    def test_single_property_ranking(self):
        hits = QueryEngine(table()).answer("calm cities")
        assert hits[0].entity_id == "/city/bruges"
        assert hits[1].entity_id == "/city/tallinn"

    def test_conjunction_picks_intersection(self):
        hits = QueryEngine(table()).answer("calm cheap cities")
        assert hits[0].entity_id == "/city/tallinn"
        assert hits[0].confident

    def test_conjunction_scores_multiply(self):
        hits = QueryEngine(table()).answer("calm cheap cities")
        tallinn = next(
            h for h in hits if h.entity_id == "/city/tallinn"
        )
        assert tallinn.score == pytest.approx(0.9 * 0.8)

    def test_negated_term_inverts(self):
        hits = QueryEngine(table()).answer("not calm cities")
        assert hits[0].entity_id == "/city/bangkok"

    def test_unknown_pair_scores_half(self):
        sparse = OpinionTable(
            [
                Opinion(
                    "/city/x", CALM, 0.9, EvidenceCounts(1, 0)
                )
            ]
        )
        hits = QueryEngine(sparse).answer("calm cheap cities")
        assert hits[0].per_term == (0.9, 0.5)

    def test_top_limits(self):
        hits = QueryEngine(table()).answer("calm cities", top=2)
        assert len(hits) == 2

    def test_unknown_type_yields_empty(self):
        hits = QueryEngine(table()).answer("cute animals")
        assert hits == []

    def test_accepts_prebuilt_query(self):
        query = SubjectiveQuery.parse("cheap cities")
        hits = QueryEngine(table()).answer(query)
        assert hits[0].entity_id == "/city/bangkok"

    def test_confident_flag(self):
        hits = QueryEngine(table()).answer("calm cheap cities")
        bruges = next(
            h for h in hits if h.entity_id == "/city/bruges"
        )
        assert not bruges.confident  # cheap is only 0.30


class TestEmptyQuery:
    """A query with no property is refused when it is built, so the
    reference engine and the serving index agree on it."""

    def test_refused_at_construction(self):
        with pytest.raises(QueryError, match="at least one property"):
            SubjectiveQuery(entity_type="city", terms=())

    @pytest.mark.parametrize("engine", [QueryEngine, OpinionIndex])
    def test_both_engines_refuse_it_alike(self, engine):
        answer = engine(table()).answer
        with pytest.raises(QueryError, match="at least one property"):
            answer(SubjectiveQuery(entity_type="city", terms=()))
        with pytest.raises(QueryError, match="at least one property"):
            answer("cities")


class TestParseHardening:
    """The grammar under arbitrary text, and the property the serving
    cache relies on: two texts with one cache key parse alike, so a
    cache hit may skip parsing."""

    #: Mostly grammar words (so generated queries often parse), now
    #: and then arbitrary text (so they often do not).
    modifier = st.sampled_from(
        sorted(lexicon.ADVERBS) + sorted(lexicon.ADJECTIVES) + ["not"]
    )
    noun = st.sampled_from(sorted(lexicon.TYPE_NOUNS))
    junk = st.text(max_size=6)
    words = st.tuples(
        st.lists(
            st.one_of(*[modifier] * 5, junk), min_size=1, max_size=4
        ),
        st.one_of(*[noun] * 4, junk),
    ).map(lambda parts: parts[0] + [parts[1]])
    #: Unicode whitespace included: ``str.split`` splits on all of it.
    spaces = st.text(
        alphabet=" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000",
        min_size=1,
        max_size=3,
    )

    @staticmethod
    def outcome(text):
        try:
            return SubjectiveQuery.parse(text)
        except QueryError as error:
            return ("error", str(error))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(text=st.text(max_size=80))
    def test_arbitrary_text_raises_only_query_error(self, text):
        self.outcome(text)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(data=st.data(), tokens=words)
    def test_same_cache_key_parses_alike(self, data, tokens):
        def spell():
            cased = [
                data.draw(st.sampled_from([w, w.upper(), w.title()]))
                for w in tokens
            ]
            gaps = [
                data.draw(self.spaces) for _ in range(len(tokens) + 1)
            ]
            return gaps[0] + "".join(
                word + gap for word, gap in zip(cased, gaps[1:])
            )

        first, second = spell(), spell()
        key = " ".join(first.lower().split())
        if key != " ".join(second.lower().split()):
            return  # casing changed a token (e.g. "ß" -> "SS")
        assert self.outcome(first) == self.outcome(second)

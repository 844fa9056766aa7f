"""Tests for entity mention detection and disambiguation."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.kb import Entity, KnowledgeBase
from repro.nlp import (
    AnnotatedSentence,
    Annotator,
    EntityLinker,
    tag,
    tokenize,
)
from repro.nlp.entity_linker import document_type_context


def link(kb, text: str, context: Counter | None = None):
    linker = EntityLinker(kb)
    sentence = tag(tokenize(text))
    mentions = linker.link_sentence(sentence, context)
    return AnnotatedSentence(sentence, mentions), linker


class TestMatching:
    def test_single_word_mention(self, small_kb):
        sentence, _ = link(small_kb, "The kitten is cute.")
        assert [m.entity_id for m in sentence.mentions] == [
            "/animal/kitten"
        ]

    def test_multi_word_longest_match(self, small_kb):
        sentence, _ = link(small_kb, "San Francisco is big.")
        mention = sentence.mentions[0]
        assert mention.entity_id == "/city/san_francisco"
        assert mention.surface == "San Francisco"
        assert len(mention.span) == 2

    def test_plural_backoff(self, small_kb):
        sentence, _ = link(small_kb, "Kittens are cute.")
        assert sentence.mentions[0].entity_id == "/animal/kitten"

    def test_case_insensitive(self, small_kb):
        sentence, _ = link(small_kb, "SOCCER is fun.")
        assert sentence.mentions[0].entity_id == "/sport/soccer"

    def test_multiple_mentions_in_sentence(self, small_kb):
        sentence, _ = link(
            small_kb, "The kitten chased the snake."
        )
        ids = {m.entity_id for m in sentence.mentions}
        assert ids == {"/animal/kitten", "/animal/snake"}

    def test_no_mentions(self, small_kb):
        sentence, linker = link(small_kb, "Nothing to see here.")
        assert sentence.mentions == []
        assert linker.stats.linked == 0

    def test_mention_at_lookup(self, small_kb):
        sentence, _ = link(small_kb, "San Francisco is big.")
        assert sentence.mention_at(0) is not None
        assert sentence.mention_at(1) is not None
        assert sentence.mention_at(2) is None


class TestDisambiguation:
    def test_ambiguous_without_context_dropped(self, small_kb):
        """Section 2: ambiguous city names are discarded."""
        sentence, linker = link(small_kb, "Buffalo is nice.")
        assert sentence.mentions == []
        assert linker.stats.ambiguous_dropped == 1

    def test_sentence_type_noun_disambiguates(self, small_kb):
        sentence, _ = link(small_kb, "Buffalo is a big city.")
        assert sentence.mentions[0].entity_id == "/city/buffalo"

    def test_sentence_animal_noun_disambiguates(self, small_kb):
        sentence, _ = link(small_kb, "The buffalo is a big animal.")
        assert sentence.mentions[0].entity_id == "/animal/buffalo"

    def test_document_context_fallback(self, small_kb):
        context = Counter({"animal": 3})
        sentence, _ = link(small_kb, "Buffalo is big.", context)
        assert sentence.mentions[0].entity_id == "/animal/buffalo"

    def test_conflicting_context_tie_dropped(self, small_kb):
        context = Counter({"animal": 2, "city": 2})
        sentence, linker = link(small_kb, "Buffalo is big.", context)
        assert sentence.mentions == []
        assert linker.stats.ambiguous_dropped == 1

    def test_sentence_context_outranks_document(self, small_kb):
        """The in-sentence type noun wins over document background."""
        context = Counter({"animal": 30})
        sentence, _ = link(
            small_kb, "Buffalo is a big city.", context
        )
        assert sentence.mentions[0].entity_id == "/city/buffalo"


class TestSelfRival:
    """An alias repeating the name in another case must not make the
    entity its own rival (two tied candidates, so every mention was
    dropped as ambiguous)."""

    @pytest.fixture()
    def tokyo_kb(self):
        return KnowledgeBase(
            [Entity.create("Tokyo", "city", aliases=("tokyo", "TOKYO"))]
        )

    def test_filed_once_per_lowercased_form(self, tokyo_kb):
        assert tokyo_kb.candidates("Tokyo") == [tokyo_kb.get("/city/tokyo")]

    @pytest.mark.parametrize("fast_path", [False, True])
    def test_links_on_both_paths(self, tokyo_kb, fast_path):
        annotator = Annotator(
            tokyo_kb, fast_path=fast_path, share_memo=False
        )
        document = annotator.annotate("doc", "Tokyo is hectic.")
        assert [m.entity_id for m in document.sentences[0].mentions] == [
            "/city/tokyo"
        ]
        assert annotator.linker_stats.linked == 1
        assert annotator.linker_stats.ambiguous_dropped == 0


class TestDocumentContext:
    def test_counts_type_nouns(self, small_kb):
        sentences = [
            tag(tokenize("I love this city.")),
            tag(tokenize("The city has animals in the zoo.")),
        ]
        context = document_type_context(sentences)
        assert context["city"] == 2
        assert context["animal"] == 1

    def test_synonyms_resolve_to_canonical_type(self, small_kb):
        sentences = [tag(tokenize("What a lovely town."))]
        context = document_type_context(sentences)
        assert context["city"] == 1

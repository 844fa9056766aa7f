"""Rule-based part-of-speech tagger.

Tagging proceeds in two passes: a lexicon pass assigns closed-class
tags and known open-class words; a context pass then repairs the
cases where a surface form is ambiguous (``that`` as determiner vs
complementizer, ``pretty`` as adverb vs adjective, capitalized words
as proper nouns, unknown words by suffix morphology).
"""

from __future__ import annotations

from itertools import repeat

from . import lexicon
from .tokens import (
    ADJ, ADV, AUX, CONJ, DET, MARK, NEG, NOUN, PREP, PRON, PROPN, PUNCT,
    VERB, X, Sentence,
)

_PUNCT = ".,!?;:()\"'"


def _lexical_table() -> dict[str, int]:
    """The lexicon pass as one table of tag codes, built from the
    lexicon classes in precedence order: an earlier class keeps a word
    that a later one also lists ("feel" is a copula before an opinion
    verb, "pretty" an adverb before an adjective). Punctuation comes
    first; its lemma is its text."""
    table: dict[str, int] = dict.fromkeys(_PUNCT, PUNCT)
    for words, code in (
        (lexicon.NEGATION_FORMS, NEG),
        (lexicon.AUX_DO_FORMS, AUX),
        (lexicon.COPULA_FORMS, VERB),
        (lexicon.OPINION_VERB_FORMS, VERB),
        (lexicon.DETERMINERS, DET),
        (lexicon.PRONOUNS, PRON),
        (lexicon.ADVERBS, ADV),
        (lexicon.ADJECTIVES, ADJ),
        (lexicon.PREPOSITIONS, PREP),
        (lexicon.COORDINATORS, CONJ),
        (lexicon.TYPE_NOUNS, NOUN),
        (lexicon.COMMON_NOUNS, NOUN),
    ):
        for word in words:
            table.setdefault(word, code)
    return table


#: Lemma -> tag code of the lexicon pass; unknown lemmas tag ``X``.
_LEXICAL_TAGS = _lexical_table()

#: Lemmas the context pass may retag even when the lexicon knew them.
_REPAIRED_LEMMAS = lexicon.COMPLEMENTIZERS | {"no", "pretty"}


def tag(sentence: Sentence) -> Sentence:
    """Fill the sentence's tag codes and return it."""
    texts, lemmas = sentence.texts, sentence.lemmas
    tags = bytearray(
        map(_LEXICAL_TAGS.get, lemmas, repeat(X, len(lemmas)))
    )
    if X in tags or not _REPAIRED_LEMMAS.isdisjoint(lemmas):
        for index, lemma in enumerate(lemmas):
            # The repair pass only ever changes these tokens.
            if tags[index] == X or lemma in _REPAIRED_LEMMAS:
                _contextual_repair(tags, texts, lemmas, index)
    sentence.tags = bytes(tags)
    return sentence


def _contextual_repair(
    tags: bytearray, texts: tuple, lemmas: tuple, index: int
) -> None:
    lemma = lemmas[index]
    last = len(tags) - 1

    # "that" after a verb introduces a clause; before a noun it is a
    # determiner (the lexicon pass tagged it DET). Sentence-initial
    # complementizers ("If ...", "Whether ...") mark a subordinate or
    # hypothetical clause, which extraction must not treat as a claim.
    if lemma in lexicon.COMPLEMENTIZERS:
        if index == 0:
            if lemma != "that":
                tags[index] = MARK
        elif tags[index - 1] in (VERB, NEG, AUX):
            tags[index] = MARK
    # "no" directly before a noun is a determiner-like negation of the
    # NP, keep NEG (polarity logic handles it); "no" standing alone at
    # the start is interjection-like -> X.
    if lemma == "no" and (index == last or tags[index + 1] == PUNCT):
        tags[index] = X
    # "pretty" before an adjective is a degree adverb; elsewhere (e.g.
    # as a bare predicate: "she is pretty") it is the adjective.
    if lemma == "pretty":
        if index < last and _is_adjectivish(tags, lemmas, index + 1):
            tags[index] = ADV
        else:
            tags[index] = ADJ
    # "like" after a copula is a preposition ("seems like"), otherwise
    # the lexicon's PREP stands.
    # Unknown tokens: suffix morphology, then proper-noun heuristics.
    if tags[index] == X:
        tags[index] = _morphology_tag(tags, texts, lemmas, index)


def _is_adjectivish(tags: bytearray, lemmas: tuple, index: int) -> bool:
    if tags[index] == ADJ:
        return True
    lemma = lemmas[index]
    return lemma in lexicon.ADJECTIVES or lemma.endswith(
        lexicon.ADJECTIVE_SUFFIXES
    )


def _morphology_tag(
    tags: bytearray, texts: tuple, lemmas: tuple, index: int
) -> int:
    text, lemma = texts[index], lemmas[index]
    # Capitalized off sentence-start: proper noun (entity mention).
    if text[:1].isupper() and index > 0:
        return PROPN
    if (
        lemma.endswith(lexicon.ADVERB_SUFFIX)
        and len(lemma) > 3
        and not lemma.endswith("ly" * 2)
    ):
        if index + 1 < len(tags) and _is_adjectivish(
            tags, lemmas, index + 1
        ):
            return ADV
    if lemma.endswith(lexicon.ADJECTIVE_SUFFIXES):
        return ADJ
    if text[:1].isupper():
        return PROPN
    if lemma.isalpha():
        return NOUN
    return X

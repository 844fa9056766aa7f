"""Rule-based part-of-speech tagger.

Tagging proceeds in two passes: a lexicon pass assigns closed-class
tags and known open-class words; a context pass then repairs the
cases where a surface form is ambiguous (``that`` as determiner vs
complementizer, ``pretty`` as adverb vs adjective, capitalized words
as proper nouns, unknown words by suffix morphology).
"""

from __future__ import annotations

from . import lexicon
from .tokens import POS, Sentence, Token

_PUNCT = set(".,!?;:()\"'")


def _lexical_table() -> dict[str, POS]:
    """The lexicon pass as one table, built from the lexicon classes
    in precedence order: an earlier class keeps a word that a later
    one also lists ("feel" is a copula before an opinion verb,
    "pretty" an adverb before an adjective)."""
    table: dict[str, POS] = {}
    for words, pos in (
        (lexicon.NEGATION_FORMS, POS.NEG),
        (lexicon.AUX_DO_FORMS, POS.AUX),
        (lexicon.COPULA_FORMS, POS.VERB),
        (lexicon.OPINION_VERB_FORMS, POS.VERB),
        (lexicon.DETERMINERS, POS.DET),
        (lexicon.PRONOUNS, POS.PRON),
        (lexicon.ADVERBS, POS.ADV),
        (lexicon.ADJECTIVES, POS.ADJ),
        (lexicon.PREPOSITIONS, POS.PREP),
        (lexicon.COORDINATORS, POS.CONJ),
        (lexicon.TYPE_NOUNS, POS.NOUN),
        (lexicon.COMMON_NOUNS, POS.NOUN),
    ):
        for word in words:
            table.setdefault(word, pos)
    return table


#: Lemma -> tag of the lexicon pass; unknown lemmas tag ``X``.
_LEXICAL_TAGS = _lexical_table()

#: Lemmas the context pass may retag even when the lexicon knew them.
_REPAIRED_LEMMAS = lexicon.COMPLEMENTIZERS | {"no", "pretty"}


def tag(sentence: Sentence) -> Sentence:
    """Tag the sentence in place and return it."""
    tokens = sentence.tokens
    lexical = _LEXICAL_TAGS.get
    for token in tokens:
        token.pos = (
            POS.PUNCT
            if token.text in _PUNCT
            else lexical(token.lemma, POS.X)
        )
    for index, token in enumerate(tokens):
        # The repair pass only ever changes these tokens.
        if token.pos is POS.X or token.lemma in _REPAIRED_LEMMAS:
            _contextual_repair(tokens, index, token)
    return sentence


def _contextual_repair(tokens: list[Token], index: int, token: Token) -> None:
    lemma = token.lemma
    nxt = tokens[index + 1] if index + 1 < len(tokens) else None
    prev = tokens[index - 1] if index > 0 else None

    # "that" after a verb introduces a clause; before a noun it is a
    # determiner (the lexicon pass tagged it DET). Sentence-initial
    # complementizers ("If ...", "Whether ...") mark a subordinate or
    # hypothetical clause, which extraction must not treat as a claim.
    if lemma in lexicon.COMPLEMENTIZERS:
        if prev is None and lemma != "that":
            token.pos = POS.MARK
        elif prev is not None and prev.pos in (
            POS.VERB, POS.NEG, POS.AUX,
        ):
            token.pos = POS.MARK
    # "no" directly before a noun is a determiner-like negation of the
    # NP, keep NEG (polarity logic handles it); "no" standing alone at
    # the start is interjection-like -> X.
    if lemma == "no" and (nxt is None or nxt.pos is POS.PUNCT):
        token.pos = POS.X
    # "pretty" before an adjective is a degree adverb; elsewhere (e.g.
    # as a bare predicate: "she is pretty") it is the adjective.
    if lemma == "pretty":
        if nxt is not None and _is_adjectivish(nxt):
            token.pos = POS.ADV
        else:
            token.pos = POS.ADJ
    # "like" after a copula is a preposition ("seems like"), otherwise
    # the lexicon's PREP stands.
    # Unknown tokens: suffix morphology, then proper-noun heuristics.
    if token.pos is POS.X:
        token.pos = _morphology_tag(tokens, index, token)


def _is_adjectivish(token: Token) -> bool:
    if token.pos is POS.ADJ:
        return True
    lemma = token.lemma
    return lemma in lexicon.ADJECTIVES or lemma.endswith(
        lexicon.ADJECTIVE_SUFFIXES
    )


def _morphology_tag(tokens: list[Token], index: int, token: Token) -> POS:
    text, lemma = token.text, token.lemma
    # Capitalized off sentence-start: proper noun (entity mention).
    if text[:1].isupper() and index > 0:
        return POS.PROPN
    if (
        lemma.endswith(lexicon.ADVERB_SUFFIX)
        and len(lemma) > 3
        and not lemma.endswith("ly" * 2)
    ):
        nxt = tokens[index + 1] if index + 1 < len(tokens) else None
        if nxt is not None and _is_adjectivish(nxt):
            return POS.ADV
    if lemma.endswith(lexicon.ADJECTIVE_SUFFIXES):
        return POS.ADJ
    if text[:1].isupper():
        return POS.PROPN
    if lemma.isalpha():
        return POS.NOUN
    return POS.X

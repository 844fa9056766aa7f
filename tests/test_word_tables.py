"""Property tests: the per-word tables answer exactly what the per-token
chains they replaced answered.

Each oracle below is the earlier implementation, kept here verbatim in
behaviour: the tagger's precedence chain over the lexicon classes with
its ``any(endswith)`` suffix tests, and the linker's longest-match
window that joined and looked up every span of up to four tokens at
every start.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb import Entity, KnowledgeBase
from repro.nlp import EntityLinker, lexicon, tag
from repro.nlp.tokens import POS, Sentence, Token

# ---------------------------------------------------------------------------
# Tagger oracle: the lexicon pass as a precedence chain
# ---------------------------------------------------------------------------

_PUNCT = set(".,!?;:()\"'")


def _oracle_lexical_tag(token: Token) -> POS:
    lemma = token.lemma
    if token.text in _PUNCT:
        return POS.PUNCT
    if lemma in lexicon.NEGATION_FORMS:
        return POS.NEG
    if lemma in lexicon.AUX_DO_FORMS:
        return POS.AUX
    if lemma in lexicon.COPULA_FORMS:
        return POS.VERB
    if lemma in lexicon.OPINION_VERB_FORMS:
        return POS.VERB
    if lemma in lexicon.DETERMINERS:
        return POS.DET
    if lemma in lexicon.PRONOUNS:
        return POS.PRON
    if lemma in lexicon.ADVERBS:
        return POS.ADV
    if lemma in lexicon.ADJECTIVES:
        return POS.ADJ
    if lemma in lexicon.PREPOSITIONS:
        return POS.PREP
    if lemma in lexicon.COORDINATORS:
        return POS.CONJ
    if lemma in lexicon.TYPE_NOUNS or lemma in lexicon.COMMON_NOUNS:
        return POS.NOUN
    return POS.X


def _oracle_is_adjectivish(token: Token) -> bool:
    if token.pos is POS.ADJ:
        return True
    lemma = token.lemma
    return lemma in lexicon.ADJECTIVES or any(
        lemma.endswith(suffix) for suffix in lexicon.ADJECTIVE_SUFFIXES
    )


def _oracle_morphology_tag(
    tokens: list[Token], index: int, token: Token
) -> POS:
    text, lemma = token.text, token.lemma
    if text[:1].isupper() and index > 0:
        return POS.PROPN
    if (
        lemma.endswith(lexicon.ADVERB_SUFFIX)
        and len(lemma) > 3
        and not lemma.endswith("ly" * 2)
    ):
        nxt = tokens[index + 1] if index + 1 < len(tokens) else None
        if nxt is not None and _oracle_is_adjectivish(nxt):
            return POS.ADV
    if any(lemma.endswith(suffix) for suffix in lexicon.ADJECTIVE_SUFFIXES):
        return POS.ADJ
    if text[:1].isupper():
        return POS.PROPN
    if lemma.isalpha():
        return POS.NOUN
    return POS.X


def _oracle_tags(texts: list[str]) -> list[POS]:
    tokens = [Token(index, text) for index, text in enumerate(texts)]
    for token in tokens:
        token.pos = _oracle_lexical_tag(token)
    for index, token in enumerate(tokens):
        lemma = token.lemma
        nxt = tokens[index + 1] if index + 1 < len(tokens) else None
        prev = tokens[index - 1] if index > 0 else None
        if lemma in lexicon.COMPLEMENTIZERS:
            if prev is None and lemma != "that":
                token.pos = POS.MARK
            elif prev is not None and prev.pos in (
                POS.VERB, POS.NEG, POS.AUX,
            ):
                token.pos = POS.MARK
        if lemma == "no" and (nxt is None or nxt.pos is POS.PUNCT):
            token.pos = POS.X
        if lemma == "pretty":
            if nxt is not None and _oracle_is_adjectivish(nxt):
                token.pos = POS.ADV
            else:
                token.pos = POS.ADJ
        if token.pos is POS.X:
            token.pos = _oracle_morphology_tag(tokens, index, token)
    return [token.pos for token in tokens]


def _tags(texts: list[str]) -> list[POS]:
    return [token.pos for token in tag(Sentence(tuple(texts))).tokens]


LEXICON_WORDS = sorted(
    set().union(
        lexicon.NEGATION_FORMS,
        lexicon.AUX_DO_FORMS,
        lexicon.COPULA_FORMS,
        lexicon.OPINION_VERB_FORMS,
        lexicon.DETERMINERS,
        lexicon.PRONOUNS,
        lexicon.ADVERBS,
        lexicon.ADJECTIVES,
        lexicon.PREPOSITIONS,
        lexicon.COORDINATORS,
        lexicon.COMPLEMENTIZERS,
        lexicon.TYPE_NOUNS,
        lexicon.COMMON_NOUNS,
        lexicon.COPULA_LEMMAS,
    )
)

#: Long-tail-style names: consonant-vowel syllables plus a coda.
long_tail_names = st.builds(
    lambda syllables, coda: "".join(syllables) + coda,
    st.lists(
        st.builds(
            str.__add__,
            st.sampled_from("bdfgkmnprstvz"),
            st.sampled_from("aeiou"),
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from(("", "d", "k", "m", "n", "p", "r", "t", "s")),
)

#: Stems carrying an adjective or adverb suffix ("zorful", "vakly").
suffixed = st.builds(
    str.__add__,
    long_tail_names,
    st.sampled_from(
        (*lexicon.ADJECTIVE_SUFFIXES, lexicon.ADVERB_SUFFIX, "lyly", "s")
    ),
)

words = st.one_of(
    st.sampled_from(LEXICON_WORDS),
    long_tail_names,
    suffixed,
    st.sampled_from(sorted(_PUNCT)),
    st.sampled_from(("n't", "'s", "42", "x-ray")),
)

cased_words = st.builds(
    lambda word, style: (word, word.capitalize(), word.upper())[style],
    words,
    st.integers(0, 2),
)


class TestTagTable:
    def test_every_lexicon_word_alone_and_in_context(self):
        for word in LEXICON_WORDS:
            for texts in (
                [word],
                ["Kittens", word, "cute"],
                ["I", word],
                [word, "."],
            ):
                assert _tags(texts) == _oracle_tags(texts), texts

    def test_every_suffix(self):
        for suffix in (*lexicon.ADJECTIVE_SUFFIXES, "ly", "lyly", "s"):
            word = "zorb" + suffix
            for texts in (
                [word],
                ["Kittens", "are", word],
                ["Kittens", "are", "vakly", word],
                ["Kittens", "are", "pretty", word],
            ):
                assert _tags(texts) == _oracle_tags(texts), texts

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(texts=st.lists(cased_words, min_size=1, max_size=12))
    def test_tagger_equals_precedence_chain(self, texts):
        assert _tags(texts) == _oracle_tags(texts)


# ---------------------------------------------------------------------------
# Linker oracle: every window of up to four tokens at every start
# ---------------------------------------------------------------------------


def _oracle_scan(kb: KnowledgeBase, texts: list[str]):
    lowered = [text.lower() for text in texts]
    matches = []
    index = 0
    while index < len(lowered):
        match = None
        for end in range(min(index + 4, len(lowered)), index, -1):
            surface = " ".join(lowered[index:end])
            candidates = kb.candidates(surface)
            if candidates:
                match = index, end, tuple(candidates)
                break
            if end == index + 1 and surface.endswith("s"):
                candidates = kb.candidates(surface[:-1])
                if candidates:
                    match = index, end, tuple(candidates)
                    break
        if match is None:
            index += 1
            continue
        matches.append(match)
        index = match[1]
    return matches


def _scan(linker: EntityLinker, texts: list[str]):
    """The scan's flat ``(start, end, key)`` matches, with each key
    looked up to its candidates."""
    flat = iter(linker.scan(Sentence(tuple(texts))))
    return [
        (start, end, tuple(linker.kb.candidates(key)))
        for start, end, key in zip(flat, flat, flat)
    ]


#: A small vocabulary so aliases share heads, nest, and collide.
VOCABULARY = (
    "new", "york", "san", "jose", "bay", "kitten", "tiger", "lake",
    "the", "big", "is", "zorbak", "s", "cute", "mount", "peak",
)

alias_words = st.sampled_from(VOCABULARY)
aliases = st.builds(
    " ".join, st.lists(alias_words, min_size=1, max_size=6)
)
entity_specs = st.lists(
    st.tuples(aliases, st.lists(aliases, max_size=3)),
    min_size=1,
    max_size=8,
)


def _inflect(word: str, plural: bool, upper: bool) -> str:
    word = word + "s" if plural else word
    return word.upper() if upper else word


sentence_words = st.builds(
    _inflect,
    st.sampled_from((*VOCABULARY, "nothing", ".")),
    st.booleans(),
    st.booleans(),
)
sentences = st.lists(sentence_words, max_size=16)


def _entity(number: int, name: str, alias_list: list[str]) -> Entity:
    return Entity(
        id=f"/thing/{number}",
        name=name,
        entity_type=("animal", "city")[number % 2],
        aliases=tuple(alias_list),
    )


class TestLinkerHeadIndex:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(specs=entity_specs, texts=sentences)
    def test_scan_equals_every_window_oracle(self, specs, texts):
        kb = KnowledgeBase(
            _entity(number, name, alias_list)
            for number, (name, alias_list) in enumerate(specs)
        )
        assert _scan(EntityLinker(kb), texts) == _oracle_scan(kb, texts)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(specs=entity_specs, late=entity_specs, texts=sentences)
    def test_scan_sees_entities_added_after_a_scan(
        self, specs, late, texts
    ):
        kb = KnowledgeBase(
            _entity(number, name, alias_list)
            for number, (name, alias_list) in enumerate(specs)
        )
        linker = EntityLinker(kb)
        assert _scan(linker, texts) == _oracle_scan(kb, texts)
        kb.add_all(
            _entity(len(specs) + number, name, alias_list)
            for number, (name, alias_list) in enumerate(late)
        )
        assert _scan(linker, texts) == _oracle_scan(kb, texts)

    def test_explicit_shapes(self):
        kb = KnowledgeBase([
            _entity(0, "kitten", []),
            _entity(1, "new york", ["the big apple"]),
            _entity(2, "san jose bay lake mount", []),  # five words
            _entity(3, "mount", ["mount peak"]),
        ])
        linker = EntityLinker(kb)
        for texts in (
            ["Kittens", "are", "cute"],
            ["I", "love", "New", "York", "."],
            ["the", "big", "apple", "is", "big"],
            ["San", "Jose", "Bay", "Lake", "Mount", "is", "far"],
            ["Mount", "Peak", "mounts"],
            [],
        ):
            assert _scan(linker, texts) == _oracle_scan(kb, texts), texts

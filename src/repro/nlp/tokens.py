"""The flat sentence record the NLP stack fills, and its token views.

Every column of a :class:`Sentence` is ``bytes`` or a tuple of atoms,
which the cyclic collector untracks at its first pass, so a memoized
sentence costs it one object rather than a graph of tokens and nodes.
:class:`Token` (and :mod:`repro.nlp.deptree`'s nodes) are views built
on demand for tests, debugging and rendering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from . import lexicon

if TYPE_CHECKING:  # pragma: no cover
    from .deptree import DepTree


class POS(enum.Enum):
    """Coarse part-of-speech inventory.

    Only the categories the extraction patterns care about are
    distinguished; everything else falls back to ``X``.
    """

    NOUN = "NOUN"
    PROPN = "PROPN"
    ADJ = "ADJ"
    ADV = "ADV"
    VERB = "VERB"
    AUX = "AUX"
    DET = "DET"
    PRON = "PRON"
    NEG = "NEG"
    PREP = "PREP"
    CONJ = "CONJ"
    MARK = "MARK"
    PUNCT = "PUNCT"
    X = "X"


#: POS members by tag code: ``sentence.tags[i]`` indexes this tuple.
POS_BY_CODE: tuple[POS, ...] = tuple(POS)

#: Tag codes, the byte values of ``Sentence.tags`` (POS order).
(
    NOUN, PROPN, ADJ, ADV, VERB, AUX, DET, PRON, NEG, PREP, CONJ, MARK,
    PUNCT, X,
) = range(len(POS_BY_CODE))


@dataclass(slots=True)
class Token:
    """A view of one surface token.

    ``index`` is the position within the sentence; ``lemma`` is a
    lower-cased, lightly normalized form (``n't`` keeps its negation
    identity via the lemma ``not``).
    """

    index: int
    text: str
    lemma: str = ""
    pos: POS = POS.X

    def __post_init__(self) -> None:
        if not self.lemma:
            self.lemma = self.text.lower()


@dataclass(slots=True)
class Span:
    """Half-open token span ``[start, end)`` within one sentence."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


class EntityMention(NamedTuple):
    """A linked entity mention over tokens ``[start, end)``."""

    start: int
    end: int
    entity_id: str
    entity_type: str
    surface: str

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


class Sentence:
    """One sentence as flat columns, filled stage by stage.

    * tokenizer: ``texts`` and ``lemmas``, plus ``type_nouns`` (the
      entity type each type-indicator lemma names, in token order);
    * tagger: ``tags``, one tag code per token;
    * parser: ``heads`` (each token's governor; ``-1`` for the root and
      for tokens outside the tree), ``labels`` (relation codes of
      :mod:`repro.nlp.deptree`) and ``order`` (the tree's tokens in
      pre-order, children in attachment order);
    * the fast path's annotator: ``matches``, ``ambiguous_types`` and
      ``pron_possible`` (see :mod:`repro.nlp.annotate`).

    Documents repeating a sentence share its record, so per-document
    state (mentions) never lands on it.
    """

    __slots__ = (
        "texts", "lemmas", "type_nouns", "tags", "heads", "labels",
        "order", "matches", "ambiguous_types", "pron_possible",
    )

    def __init__(
        self,
        texts: tuple[str, ...],
        lemmas: tuple[str, ...] | None = None,
    ) -> None:
        self.texts = texts
        self.lemmas = (
            tuple(text.lower() for text in texts)
            if lemmas is None
            else lemmas
        )
        self.type_nouns = tuple(
            filter(None, map(lexicon.TYPE_NOUNS.get, self.lemmas))
        )
        self.tags: bytes | None = None
        self.heads: tuple[int, ...] | None = None
        self.labels: bytes | None = None
        self.order: tuple[int, ...] | None = None
        self.matches: tuple = ()
        self.ambiguous_types: tuple[str, ...] = ()
        self.pron_possible = False

    def __len__(self) -> int:
        return len(self.texts)

    def text(self) -> str:
        return " ".join(self.texts)

    @property
    def tokens(self) -> list[Token]:
        """The tokens as :class:`Token` views (untagged ones are X)."""
        tags = self.tags or bytes([X]) * len(self.texts)
        return [
            Token(index, text, lemma, POS_BY_CODE[code])
            for index, (text, lemma, code) in enumerate(
                zip(self.texts, self.lemmas, tags)
            )
        ]

    def tree(self) -> "DepTree | None":
        """The parse as linked :class:`~repro.nlp.deptree.DepNode`
        views; ``None`` when unparsed or empty."""
        from .deptree import DepTree

        return DepTree.of(self)

"""Core value types shared across the Surveyor pipeline.

The paper's central objects are:

* a *subjective property*: an adjective optionally preceded by adverbs
  (``cute``, ``very big``);
* an *entity* of a typed knowledge base (``kitten`` of type ``animal``);
* an *evidence tuple* ``<C+, C->``: the counts of positive and negative
  statements extracted from the corpus about one entity-property pair;
* an *opinion*: the mined dominant-opinion polarity with its posterior
  probability.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field


class Polarity(enum.Enum):
    """Polarity of a statement or a dominant opinion.

    ``POSITIVE`` means the property applies to the entity, ``NEGATIVE``
    means its negation is claimed, and ``NEUTRAL`` means no decision
    (the paper marks this case ``N``).
    """

    POSITIVE = "+"
    NEGATIVE = "-"
    NEUTRAL = "N"

    def flipped(self) -> "Polarity":
        """Return the opposite polarity; ``NEUTRAL`` stays ``NEUTRAL``."""
        if self is Polarity.POSITIVE:
            return Polarity.NEGATIVE
        if self is Polarity.NEGATIVE:
            return Polarity.POSITIVE
        return Polarity.NEUTRAL

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class SubjectiveProperty:
    """An adjective with optional preceding adverbs.

    >>> SubjectiveProperty("big", ("very",)).text
    'very big'
    """

    adjective: str
    adverbs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.adjective:
            raise ValueError("adjective must be non-empty")
        object.__setattr__(self, "adjective", self.adjective.lower())
        object.__setattr__(
            self, "adverbs", tuple(a.lower() for a in self.adverbs)
        )

    @property
    def text(self) -> str:
        """The surface form, adverbs first (``very big``)."""
        return " ".join((*self.adverbs, self.adjective))

    @classmethod
    def parse(cls, text: str) -> "SubjectiveProperty":
        """Parse a space-separated surface form; last token is the adjective."""
        tokens = text.strip().lower().split()
        if not tokens:
            raise ValueError("property text must be non-empty")
        return cls(adjective=tokens[-1], adverbs=tuple(tokens[:-1]))

    def __str__(self) -> str:
        return self.text


#: A field computed on first use and left out of init, repr and eq.
_CACHED = dict(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class PropertyTypeKey:
    """Identifies one property-type combination, the unit of model fitting.

    The paper learns one parameter vector per combination such as
    ``(cute, animal)`` because biases do not generalize across either
    axis (Section 2).

    A key is looked up in every dict of the pipeline, so it keeps its
    hash (the value the dataclass would compute, so no dict or set
    order depends on the cache) and its two texts once built. String
    hashes are seeded per process, so a pickled key carries its fields
    only and the copy computes its own hash.
    """

    property: SubjectiveProperty
    entity_type: str
    _hash: int = field(init=False, repr=False, compare=False)
    _str: str | None = field(**_CACHED)
    _text: str | None = field(**_CACHED)

    def __post_init__(self) -> None:
        entity_type = self.entity_type.lower()
        object.__setattr__(self, "entity_type", entity_type)
        object.__setattr__(self, "_hash", hash((self.property, entity_type)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return PropertyTypeKey, (self.property, self.entity_type)

    def __str__(self) -> str:
        if self._str is None:
            text = f"{self.property} {self.entity_type}"
            object.__setattr__(self, "_str", text)
        return self._str

    @property
    def text(self) -> str:
        """The artefacts' key text, ``very big|animal``."""
        if self._text is None:
            text = f"{self.property}|{self.entity_type}"
            object.__setattr__(self, "_text", text)
        return self._text


@dataclass(frozen=True, slots=True)
class EvidenceCounts:
    """The evidence tuple ``<C+, C->`` for one entity-property pair."""

    positive: int
    negative: int

    def __post_init__(self) -> None:
        if self.positive < 0 or self.negative < 0:
            raise ValueError("statement counts must be non-negative")

    @property
    def total(self) -> int:
        return self.positive + self.negative

    def majority(self) -> Polarity:
        """Plain majority vote over the two counters."""
        if self.positive > self.negative:
            return Polarity.POSITIVE
        if self.negative > self.positive:
            return Polarity.NEGATIVE
        return Polarity.NEUTRAL


#: Shared zero-evidence tuple (set as a plain class attribute so it is
#: not mistaken for a dataclass field).
EvidenceCounts.ZERO = EvidenceCounts(0, 0)  # type: ignore[attr-defined]


@dataclass(frozen=True, slots=True, eq=False)
class EvidenceBlock:
    """One combination's evidence tuples as columns: entity ids in
    sorted order, their ``C+`` and ``C-`` counts, and the block's
    total.

    A block never changes. The evidence counter replaces a
    combination's block when a merge touches it, so a consumer that
    sees the same block object again may reuse what it derived from it.
    """

    ids: tuple[str, ...]
    positive: tuple[int, ...]
    negative: tuple[int, ...]
    total: int

    @classmethod
    def of(cls, counts: Mapping[str, Sequence[int]]) -> "EvidenceBlock":
        """The block of ``{entity_id: (C+, C-)}``."""
        ids = tuple(sorted(counts))
        positive = tuple([counts[entity_id][0] for entity_id in ids])
        negative = tuple([counts[entity_id][1] for entity_id in ids])
        return cls(ids, positive, negative, sum(positive) + sum(negative))

    def padded(self, ids: Iterable[str]) -> "EvidenceBlock":
        """This block over its own ids and ``ids``; the entities only
        ``ids`` names read ``<0, 0>`` (the never-mentioned entities of
        the combination's type)."""
        absent = set(ids).difference(self.ids)
        if not absent:
            return self
        counts = dict(zip(self.ids, zip(self.positive, self.negative)))
        return EvidenceBlock.of(counts | dict.fromkeys(absent, (0, 0)))


@dataclass(frozen=True, slots=True)
class Opinion:
    """A mined dominant opinion for one entity-property pair.

    ``probability`` is the posterior ``Pr(D = + | C+, C-)``; polarity is
    positive above 0.5, negative below, neutral at exactly 0.5 (the
    paper then emits no output for the pair).
    """

    entity_id: str
    key: PropertyTypeKey
    probability: float
    evidence: EvidenceCounts = field(default_factory=lambda: EvidenceCounts.ZERO)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    @property
    def polarity(self) -> Polarity:
        if self.probability > 0.5:
            return Polarity.POSITIVE
        if self.probability < 0.5:
            return Polarity.NEGATIVE
        return Polarity.NEUTRAL

    @property
    def decided(self) -> bool:
        """Whether Surveyor emits this pair at all (probability != 0.5)."""
        return self.polarity is not Polarity.NEUTRAL

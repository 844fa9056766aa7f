"""Subjective query answering over a mined opinion table.

The paper's motivation: search queries like ``safe cities`` or
``cute animals`` should be answerable from structured data. This
module parses such queries — one or more subjective properties
followed by a type noun ("calm cheap cities") — and answers them from
an :class:`~repro.core.result.OpinionTable`, ranking entities by the
joint posterior of holding every requested property. Negated terms
("not hectic cities") invert the corresponding posterior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..nlp import lexicon
from .result import OpinionTable
from .types import PropertyTypeKey, SubjectiveProperty


class QueryError(ValueError):
    """Raised when a query cannot be parsed."""


@dataclass(frozen=True, slots=True)
class QueryTerm:
    """One property requirement, possibly negated."""

    property: SubjectiveProperty
    negated: bool = False

    def key(self, entity_type: str) -> PropertyTypeKey:
        return PropertyTypeKey(
            property=self.property, entity_type=entity_type
        )


@dataclass(frozen=True, slots=True)
class SubjectiveQuery:
    """A parsed query: property terms over one entity type.

    A query names at least one property; one with no terms is refused
    here, so no engine has to rank an empty product.
    """

    entity_type: str
    terms: tuple[QueryTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise QueryError("query needs at least one property")

    @classmethod
    def parse(cls, text: str) -> "SubjectiveQuery":
        """Parse ``[not] <adj> [[not] <adj> ...] <type-noun>``.

        The final token must be a known type noun (``cities``,
        ``animals``, ...); every other token is an adjective, an
        adverb attaching to the following adjective, or the negator
        ``not`` applying to the next property.

        >>> SubjectiveQuery.parse("calm cheap cities").entity_type
        'city'
        """
        tokens = text.strip().lower().split()
        if len(tokens) < 2:
            raise QueryError(
                "query needs at least one property and a type noun"
            )
        entity_type = lexicon.TYPE_NOUNS.get(tokens[-1])
        if entity_type is None:
            raise QueryError(
                f"unknown type noun {tokens[-1]!r}; known: "
                f"{sorted(set(lexicon.TYPE_NOUNS.values()))}"
            )
        terms: list[QueryTerm] = []
        seen: set[str] = set()
        negate_next = False
        pending_adverbs: list[str] = []

        def emit(adjective: str) -> None:
            nonlocal negate_next, pending_adverbs
            prop = SubjectiveProperty(
                adjective, tuple(pending_adverbs)
            )
            if prop.text in seen:
                raise QueryError(
                    f"duplicate property {prop.text!r} in query"
                )
            seen.add(prop.text)
            terms.append(
                QueryTerm(property=prop, negated=negate_next)
            )
            negate_next = False
            pending_adverbs = []

        for token in tokens[:-1]:
            if token == "not":
                negate_next = True
                continue
            if token in lexicon.ADVERBS:
                pending_adverbs.append(token)
                continue
            emit(token)
        if pending_adverbs:
            # A trailing intensifier with no adjective to attach to.
            # Words like "pretty" double as adjectives ("pretty
            # cities"); recover by reading the last one that way.
            last = pending_adverbs[-1]
            if last in lexicon.ADJECTIVES:
                pending_adverbs = pending_adverbs[:-1]
                emit(last)
            else:
                raise QueryError(
                    f"adverb {last!r} attaches to no adjective "
                    f"(before the type noun {tokens[-1]!r})"
                )
        if negate_next:
            raise QueryError(
                f"dangling 'not' before the type noun {tokens[-1]!r}"
            )
        return cls(entity_type=entity_type, terms=tuple(terms))

    def text(self) -> str:
        parts = []
        for term in self.terms:
            if term.negated:
                parts.append("not")
            parts.append(term.property.text)
        parts.append(self.entity_type)
        return " ".join(parts)


class QueryHit(NamedTuple):
    """One ranked answer."""

    entity_id: str
    score: float
    per_term: tuple[float, ...]

    @property
    def confident(self) -> bool:
        """Whether every term individually clears 0.5."""
        return min(self.per_term) > 0.5


class QueryEngine:
    """Answers subjective queries against one opinion table.

    Unknown pairs contribute the agnostic prior 0.5 — missing
    knowledge neither qualifies nor disqualifies an entity.
    """

    def __init__(self, table: OpinionTable) -> None:
        self._table = table

    def answer(
        self, query: SubjectiveQuery | str, top: int = 10
    ) -> list[QueryHit]:
        if isinstance(query, str):
            query = SubjectiveQuery.parse(query)
        entity_ids = self._entities_of_type(query.entity_type)
        if not entity_ids:
            return []
        hits = []
        for entity_id in entity_ids:
            per_term = []
            for term in query.terms:
                opinion = self._table.get(
                    entity_id, term.key(query.entity_type)
                )
                probability = (
                    opinion.probability if opinion is not None else 0.5
                )
                if term.negated:
                    probability = 1.0 - probability
                per_term.append(probability)
            score = 1.0
            for probability in per_term:
                score *= probability
            hits.append(QueryHit(entity_id, score, tuple(per_term)))
        hits.sort(key=lambda hit: (-hit.score, hit.entity_id))
        return hits[:top]

    def _entities_of_type(self, entity_type: str) -> list[str]:
        entity_ids = {
            opinion.entity_id
            for key in self._table.keys()
            if key.entity_type == entity_type
            for opinion in self._table.for_key(key)
        }
        return sorted(entity_ids)

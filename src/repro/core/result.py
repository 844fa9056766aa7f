"""Queryable store for mined opinions.

Surveyor's output is conceptually a knowledge-base extension: tuples
``<entity, property, polarity>`` with posterior probabilities. The
:class:`OpinionTable` indexes these tuples by entity, by property-type
combination, and by polarity, and supports the query patterns the paper
motivates (``safe cities``, ``cute animals``): given a property-type
key, list the entities whose dominant opinion is positive, ranked by
posterior confidence.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, KeysView

from .types import Opinion, Polarity, PropertyTypeKey


class OpinionTable:
    """Indexed collection of :class:`Opinion` tuples.

    Besides the tuples themselves the table remembers which
    property-type combinations were *degraded* — their EM fit went
    numerically degenerate and Surveyor fell back to majority vote, so
    their opinions are hard votes rather than model posteriors. Query
    surfaces (CLI, HTTP server) expose the flag so consumers can treat
    those answers with suspicion.

    A combination's opinions form one *block*. :meth:`add_block`
    inserts a whole block at once and keeps the tuple it is given, so
    two tables (say, two generations of an ingest) may hold the very
    same block; consumers that see the same block object in two
    tables reuse what they derived from it (:meth:`block`). A block is
    never changed in place: :meth:`add` copies the block it writes to
    first.
    """

    def __init__(
        self,
        opinions: Iterable[Opinion] = (),
        degraded_keys: Iterable[PropertyTypeKey] = (),
    ) -> None:
        self._by_pair: dict[tuple[str, PropertyTypeKey], Opinion] = {}
        # A tuple is a frozen block, possibly shared with another
        # table; a list is this table's own, being built by add().
        self._by_key: dict[
            PropertyTypeKey, tuple[Opinion, ...] | list[Opinion]
        ] = {}
        self._by_entity: dict[str, list[Opinion]] = {}
        self._degraded: set[PropertyTypeKey] = set(degraded_keys)
        for opinion in opinions:
            self.add(opinion)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, opinion: Opinion) -> None:
        """Insert an opinion, replacing any previous one for the pair."""
        key = opinion.key
        pair = (opinion.entity_id, key)
        block = self._by_key.get(key)
        if type(block) is not list:
            # Copy on write: a frozen block may sit in other tables.
            block = self._by_key[key] = list(block or ())
        old = self._by_pair.get(pair)
        if old is not None:
            block.remove(old)
            self._by_entity[old.entity_id].remove(old)
        self._by_pair[pair] = opinion
        block.append(opinion)
        self._by_entity.setdefault(opinion.entity_id, []).append(opinion)

    def add_block(
        self, key: PropertyTypeKey, block: tuple[Opinion, ...]
    ) -> None:
        """Insert one combination's opinions (each of ``key``, one per
        entity) whole. The table must hold none of ``key`` yet. The
        tuple is kept as is, so it may also sit in other tables; an
        empty block inserts nothing."""
        if key in self._by_key:
            raise ValueError(f"{key} already holds opinions")
        if not block:
            return
        self._by_key[key] = block
        by_pair = self._by_pair
        by_entity = self._by_entity
        for opinion in block:
            by_pair[(opinion.entity_id, key)] = opinion
            by_entity.setdefault(opinion.entity_id, []).append(opinion)

    def update(self, opinions: Iterable[Opinion]) -> None:
        for opinion in opinions:
            self.add(opinion)

    def mark_degraded(self, key: PropertyTypeKey) -> None:
        """Flag a combination as a degraded (majority-vote) fallback."""
        self._degraded.add(key)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(
        self, entity_id: str, key: PropertyTypeKey
    ) -> Opinion | None:
        return self._by_pair.get((entity_id, key))

    def polarity(
        self, entity_id: str, key: PropertyTypeKey
    ) -> Polarity:
        """Mined polarity for a pair; ``NEUTRAL`` when unknown/undecided."""
        opinion = self.get(entity_id, key)
        return opinion.polarity if opinion else Polarity.NEUTRAL

    def for_key(self, key: PropertyTypeKey) -> list[Opinion]:
        """All opinions for one property-type combination."""
        return list(self._by_key.get(key, ()))

    def for_entity(self, entity_id: str) -> list[Opinion]:
        """All opinions about one entity across properties."""
        return list(self._by_entity.get(entity_id, ()))

    def entities_with(
        self,
        key: PropertyTypeKey,
        polarity: Polarity = Polarity.POSITIVE,
        min_probability: float = 0.0,
    ) -> list[Opinion]:
        """Entities whose dominant opinion matches, ranked by confidence.

        This is the subjective-query answering primitive: for
        ``cute animals``, return the animals most confidently cute.
        """
        selected = [
            op
            for op in self._by_key.get(key, ())
            if op.polarity is polarity
        ]
        if polarity is Polarity.POSITIVE:
            selected = [
                op for op in selected if op.probability >= min_probability
            ]
            selected.sort(key=lambda op: op.probability, reverse=True)
        else:
            selected = [
                op
                for op in selected
                if 1.0 - op.probability >= min_probability
            ]
            selected.sort(key=lambda op: op.probability)
        return selected

    def keys(self) -> list[PropertyTypeKey]:
        return list(self._by_key)

    def block(self, key: PropertyTypeKey) -> tuple[Opinion, ...]:
        """One combination's opinions as a frozen block (``()`` when
        the table has none). While neither table adds to it, the same
        block object is returned each time, and by every table it was
        inserted into."""
        block = self._by_key.get(key, ())
        if type(block) is list:
            block = self._by_key[key] = tuple(block)
        return block

    def entities(self) -> KeysView[str]:
        """A set-like view of the entities the table has opinions on."""
        return self._by_entity.keys()

    @property
    def degraded_keys(self) -> frozenset[PropertyTypeKey]:
        """Combinations whose opinions are majority-vote fallbacks."""
        return frozenset(self._degraded)

    def is_degraded(self, key: PropertyTypeKey) -> bool:
        return key in self._degraded

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_pair)

    def __iter__(self) -> Iterator[Opinion]:
        return iter(self._by_pair.values())

    def __contains__(self, pair: tuple[str, PropertyTypeKey]) -> bool:
        return pair in self._by_pair

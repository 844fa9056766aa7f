"""Immutable in-memory index over a mined :class:`OpinionTable`.

The one-shot :class:`~repro.core.query.QueryEngine` re-scans the whole
table per query to find the entities of the requested type; fine for a
CLI invocation, hopeless for a server. :class:`OpinionIndex` builds the
per-type entity universe and per-``(entity_type, property)`` posting
structures **once**:

* a probability map per combination (entity → posterior), so scoring a
  conjunctive/negated query touches only the entities that appear in at
  least one of the query's posting lists (the *candidate union*) — all
  other entities of the type share the agnostic default score and are
  merged in lazily, already sorted;
* per-combination opinion lists pre-sorted by posterior, so the
  ``repro query``-style listing (``entities_with``) is a slice instead
  of a filter-and-sort;
* the table's degraded-combination flags, surfaced in every response.

The index is immutable after construction: the server hot-reloads by
building a fresh index off to the side and swapping one reference, so
a reader always sees a wholly consistent generation. A new index built
with the live one as ``previous`` shares its posting map and polarity
lists for every combination block the two tables share (an ingest
carries the blocks its batch left clean), so it builds only the rest.

Results are bit-identical to :class:`QueryEngine` / ``OpinionTable``
answers (same floats, same tie-breaks) — the CLI and the HTTP server
share one semantics, enforced by test.
"""

from __future__ import annotations

import heapq
from itertools import islice

from ..core.query import QueryHit, SubjectiveQuery
from ..core.result import OpinionTable
from ..core.types import Opinion, Polarity, PropertyTypeKey

#: Posterior assumed for an entity-property pair the table knows
#: nothing about: missing knowledge neither qualifies nor disqualifies.
AGNOSTIC_PRIOR = 0.5

#: Candidates scored between request-deadline checkpoints — frequent
#: enough to bound overshoot, cheap enough to vanish in the loop cost.
DEADLINE_CHECK_EVERY = 256


class OpinionIndex:
    """Read-only query index over one opinion-table snapshot."""

    __slots__ = (
        "_generation",
        "_blocks",
        "_probability",
        "_by_polarity",
        "_entities_by_type",
        "_degraded",
        "_n_opinions",
    )

    def __init__(
        self,
        table: OpinionTable,
        generation: int = 1,
        previous: OpinionIndex | None = None,
    ) -> None:
        self._generation = int(generation)
        self._n_opinions = len(table)
        self._degraded = table.degraded_keys
        # The block each combination's postings were built from.
        self._blocks: dict[PropertyTypeKey, tuple[Opinion, ...]] = {}
        # entity -> posterior, per combination (the posting map).
        self._probability: dict[
            PropertyTypeKey, dict[str, float]
        ] = {}
        # polarity-partitioned opinion lists per combination, sorted
        # exactly as OpinionTable.entities_with sorts them.
        self._by_polarity: dict[
            PropertyTypeKey, dict[Polarity, tuple[Opinion, ...]]
        ] = {}
        shared = {} if previous is None else previous._blocks
        entities_by_type: dict[str, set[str]] = {}
        for key in table.keys():
            opinions = self._blocks[key] = table.block(key)
            if shared.get(key) is opinions:
                self._probability[key] = previous._probability[key]
                self._by_polarity[key] = previous._by_polarity[key]
            else:
                self._probability[key] = {
                    op.entity_id: op.probability for op in opinions
                }
                self._by_polarity[key] = _partition(opinions)
            entities_by_type.setdefault(key.entity_type, set()).update(
                self._probability[key]
            )
        self._entities_by_type: dict[str, tuple[str, ...]] = {
            entity_type: tuple(sorted(ids))
            for entity_type, ids in entities_by_type.items()
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._generation

    @property
    def n_opinions(self) -> int:
        return self._n_opinions

    @property
    def n_keys(self) -> int:
        return len(self._probability)

    def entity_types(self) -> list[str]:
        return sorted(self._entities_by_type)

    def entities_of_type(self, entity_type: str) -> tuple[str, ...]:
        return self._entities_by_type.get(entity_type, ())

    @property
    def degraded_keys(self) -> frozenset[PropertyTypeKey]:
        return self._degraded

    def is_degraded(self, key: PropertyTypeKey) -> bool:
        return key in self._degraded

    # ------------------------------------------------------------------
    # Free-text queries (the `repro ask` / GET /query?q= semantics)
    # ------------------------------------------------------------------
    def answer(
        self,
        query: SubjectiveQuery | str,
        top: int = 10,
        *,
        deadline=None,
    ) -> list[QueryHit]:
        """Top-k entities by joint posterior, ``QueryEngine``-identical.

        Only entities present in at least one of the query's posting
        maps are scored individually; the rest of the type's universe
        shares the agnostic default score and is merged in lazily (a
        generator over the sorted id list), so the work is
        O(candidates x terms + top), not O(type universe).

        ``deadline`` (a :class:`~repro.serve.admission.Deadline`) is
        checked every :data:`DEADLINE_CHECK_EVERY` candidates so an
        over-budget request is abandoned mid-scoring instead of
        completing late.
        """
        if isinstance(query, str):
            query = SubjectiveQuery.parse(query)
        universe = self._entities_by_type.get(query.entity_type)
        if not universe:
            return []
        terms = query.terms
        postings = [
            self._probability.get(term.key(query.entity_type))
            for term in terms
        ]
        candidates: set[str] = set()
        for posting in postings:
            if posting:
                candidates.update(posting)
        if deadline is not None:
            deadline.checkpoint("candidate collection")
        scored: list[QueryHit] = []
        for ordinal, entity_id in enumerate(candidates):
            if (
                deadline is not None
                and ordinal % DEADLINE_CHECK_EVERY == 0
            ):
                deadline.checkpoint("candidate scoring")
            per_term = []
            for term, posting in zip(terms, postings):
                probability = (
                    posting.get(entity_id, AGNOSTIC_PRIOR)
                    if posting
                    else AGNOSTIC_PRIOR
                )
                if term.negated:
                    probability = 1.0 - probability
                per_term.append(probability)
            score = 1.0
            for probability in per_term:
                score *= probability
            scored.append(
                QueryHit(
                    entity_id=entity_id,
                    score=score,
                    per_term=tuple(per_term),
                )
            )
        rank = lambda hit: (-hit.score, hit.entity_id)  # noqa: E731
        if deadline is not None:
            deadline.checkpoint("ranking")
        scored.sort(key=rank)

        # Everything outside the candidate union scores identically.
        default_per = tuple(
            1.0 - AGNOSTIC_PRIOR if term.negated else AGNOSTIC_PRIOR
            for term in terms
        )
        default_score = 1.0
        for probability in default_per:
            default_score *= probability

        def defaults():
            for entity_id in universe:
                if entity_id not in candidates:
                    yield QueryHit(
                        entity_id=entity_id,
                        score=default_score,
                        per_term=default_per,
                    )

        return list(
            islice(heapq.merge(scored, defaults(), key=rank), top)
        )

    # ------------------------------------------------------------------
    # Single-combination listings (the `repro query` semantics)
    # ------------------------------------------------------------------
    def entities_with(
        self,
        key: PropertyTypeKey,
        polarity: Polarity = Polarity.POSITIVE,
        min_probability: float = 0.0,
    ) -> list[Opinion]:
        """``OpinionTable.entities_with`` over the pre-sorted lists.

        The stored lists are already in final order, so the
        ``min_probability`` filter is a prefix scan with early exit.
        """
        partition = self._by_polarity.get(key)
        if partition is None:
            return []
        selected = partition[polarity]
        if min_probability <= 0.0:
            return list(selected)
        result = []
        for opinion in selected:
            confidence = (
                opinion.probability
                if polarity is Polarity.POSITIVE
                else 1.0 - opinion.probability
            )
            if confidence < min_probability:
                break
            result.append(opinion)
        return result


def _partition(
    opinions: tuple[Opinion, ...],
) -> dict[Polarity, tuple[Opinion, ...]]:
    """One combination's opinions split by polarity, each part sorted
    as ``OpinionTable.entities_with`` sorts it."""
    partition: dict[Polarity, tuple[Opinion, ...]] = {}
    for polarity in Polarity:
        selected = [op for op in opinions if op.polarity is polarity]
        selected.sort(
            key=lambda op: op.probability,
            reverse=polarity is Polarity.POSITIVE,
        )
        partition[polarity] = tuple(selected)
    return partition

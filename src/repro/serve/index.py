"""Immutable in-memory index over a mined :class:`OpinionTable`.

The one-shot :class:`~repro.core.query.QueryEngine` re-scans the whole
table per query to find the entities of the requested type; fine for a
CLI invocation, hopeless for a server. :class:`OpinionIndex` lays the
table out **once** for the two query shapes:

* per entity type, the sorted entity universe, and per combination a
  posterior *column* aligned with it (:data:`AGNOSTIC_PRIOR` where the
  entity has no opinion) plus the column's complement for negated
  terms. A conjunctive/negated query multiplies its terms' columns row
  by row and builds answers for its top k rows only;
* per-combination opinion lists pre-sorted by posterior, so the
  ``repro query``-style listing (``entities_with``) is a slice instead
  of a filter-and-sort;
* the table's degraded-combination flags, surfaced in every response.

The index is immutable after construction: the server hot-reloads by
building a fresh index off to the side and swapping one reference, so
a reader always sees a wholly consistent generation. A new index built
with the live one as ``previous`` shares the polarity lists of every
combination block the two tables share (an ingest carries the blocks
its batch left clean), and their columns too while the type's universe
is unchanged, so it builds only the rest.

Results are bit-identical to :class:`QueryEngine` / ``OpinionTable``
answers (same floats, same tie-breaks) — the CLI and the HTTP server
share one semantics, enforced by test.
"""

from __future__ import annotations

from operator import mul

from ..core.query import QueryHit, SubjectiveQuery
from ..core.result import OpinionTable
from ..core.types import Opinion, Polarity, PropertyTypeKey, SubjectiveProperty

#: Posterior assumed for an entity-property pair the table knows
#: nothing about: missing knowledge neither qualifies nor disqualifies.
AGNOSTIC_PRIOR = 0.5

#: Rows scored between request-deadline checkpoints — frequent enough
#: to bound overshoot, cheap enough to vanish in the loop cost.
DEADLINE_CHECK_EVERY = 256


class OpinionIndex:
    """Read-only query index over one opinion-table snapshot."""

    __slots__ = (
        "_generation",
        "_blocks",
        "_columns",
        "_by_polarity",
        "_universe",
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
        # The block each combination's structures were built from.
        self._blocks: dict[PropertyTypeKey, tuple[Opinion, ...]] = {
            key: table.block(key) for key in table.keys()
        }
        ids_by_type: dict[str, set[str]] = {}
        for key, block in self._blocks.items():
            ids_by_type.setdefault(key.entity_type, set()).update(
                opinion.entity_id for opinion in block
            )
        carried = {} if previous is None else previous._universe
        # entity type -> its entity ids, sorted: its columns' row
        # order. An unchanged universe stays the previous index's tuple,
        # which is what lets that index's columns carry.
        self._universe: dict[str, tuple[str, ...]] = {}
        for entity_type, ids in ids_by_type.items():
            universe = tuple(sorted(ids))
            if carried.get(entity_type) == universe:
                universe = carried[entity_type]
            self._universe[entity_type] = universe
        # entity type -> property -> (column, complement).
        self._columns: dict[
            str, dict[SubjectiveProperty, tuple[list[float], ...]]
        ] = {entity_type: {} for entity_type in self._universe}
        # polarity-partitioned opinion lists per combination, sorted
        # exactly as OpinionTable.entities_with sorts them.
        self._by_polarity: dict[
            PropertyTypeKey, dict[Polarity, tuple[Opinion, ...]]
        ] = {}
        shared = {} if previous is None else previous._blocks
        rows: dict[str, dict[str, int]] = {}
        for key, block in self._blocks.items():
            entity_type = key.entity_type
            universe = self._universe[entity_type]
            columns = self._columns[entity_type]
            if shared.get(key) is block:
                self._by_polarity[key] = previous._by_polarity[key]
                if carried.get(entity_type) is universe:
                    columns[key.property] = (
                        previous._columns[entity_type][key.property]
                    )
                    continue
            else:
                self._by_polarity[key] = _partition(block)
            if entity_type not in rows:
                rows[entity_type] = {e: r for r, e in enumerate(universe)}
            column = [AGNOSTIC_PRIOR] * len(universe)
            for opinion in block:
                column[rows[entity_type][opinion.entity_id]] = (
                    opinion.probability
                )
            columns[key.property] = column, [1.0 - p for p in column]

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
        return len(self._blocks)

    def entity_types(self) -> list[str]:
        return sorted(self._universe)

    def entities_of_type(self, entity_type: str) -> tuple[str, ...]:
        return self._universe.get(entity_type, ())

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

        Each row's score is the product of the query's columns in term
        order (a negated term reads the complement, a combination the
        table lacks :data:`AGNOSTIC_PRIOR`); rows rank by ``(-score,
        entity_id)``, and only the top k become hits.

        ``deadline`` (a :class:`~repro.serve.admission.Deadline`) is
        checked after column collection, every
        :data:`DEADLINE_CHECK_EVERY` rows and before ranking, so an
        over-budget request is abandoned mid-scoring.
        """
        if isinstance(query, str):
            query = SubjectiveQuery.parse(query)
        universe = self._universe.get(query.entity_type)
        if not universe:
            return []
        by_property = self._columns[query.entity_type]
        n_rows = len(universe)
        # (column, complement) indexed by ``negated``.
        agnostic = ([AGNOSTIC_PRIOR] * n_rows,) * 2
        columns = [
            by_property.get(term.property, agnostic)[term.negated]
            for term in query.terms
        ]
        if deadline is not None:
            deadline.checkpoint("column collection")
        # Row by row in term order from 1.0, as QueryEngine multiplies;
        # 1.0 * p is p exactly, so each chunk starts at the first term.
        first, *rest = columns
        scores: list[float] = []
        for start in range(0, n_rows, DEADLINE_CHECK_EVERY):
            if deadline is not None:
                deadline.checkpoint("scoring")
            stop = start + DEADLINE_CHECK_EVERY
            chunk = first[start:stop]
            for column in rest:
                chunk = list(map(mul, chunk, column[start:stop]))
            scores += chunk
        if deadline is not None:
            deadline.checkpoint("ranking")
        # Stable, so tied rows stay in entity-id order: (-score, id).
        rows = sorted(
            range(n_rows), key=scores.__getitem__, reverse=True
        )[:top]
        per_term = zip(*([column[row] for row in rows] for column in columns))
        return [
            QueryHit(universe[row], scores[row], terms)
            for row, terms in zip(rows, per_term)
        ]

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

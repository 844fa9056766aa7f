"""Evidence statement records and count aggregation.

An evidence statement connects one entity to one subjective property
with a polarity (Section 4). The aggregation step groups statements by
entity-property pair and produces the ``<C+, C->`` evidence tuples the
probabilistic model consumes (Section 3).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..core.types import (
    EvidenceBlock,
    EvidenceCounts,
    Polarity,
    PropertyTypeKey,
    SubjectiveProperty,
)

_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class EvidenceStatement:
    """One extracted statement."""

    entity_id: str
    entity_type: str
    property: SubjectiveProperty
    polarity: Polarity
    pattern: str
    doc_id: str = ""
    sentence: str = ""
    #: Negation-particle count on the dependency path (Section 4.2);
    #: ``polarity`` is negative iff this is odd. Kept on the statement
    #: so provenance can report *why* a statement counted the way it
    #: did. A pure function of the parsed sentence, so it is safe to
    #: cache across documents alongside the rest of the proto.
    negations: int = 0
    #: The statement's property-type combination, built once here and
    #: shared by every :meth:`restamp` copy; not part of equality.
    key: PropertyTypeKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.polarity is Polarity.NEUTRAL:
            raise ValueError("statements are positive or negative")
        _set(self, "key", PropertyTypeKey(self.property, self.entity_type))

    def restamp(self, doc_id: str) -> EvidenceStatement:
        """This statement as found in document ``doc_id``: equal to
        ``dataclasses.replace(self, doc_id=doc_id)``, sharing this
        statement's key, and built without re-running ``__init__``."""
        clone = _new(EvidenceStatement)
        _set(clone, "entity_id", self.entity_id)
        _set(clone, "entity_type", self.entity_type)
        _set(clone, "property", self.property)
        _set(clone, "polarity", self.polarity)
        _set(clone, "pattern", self.pattern)
        _set(clone, "doc_id", doc_id)
        _set(clone, "sentence", self.sentence)
        _set(clone, "negations", self.negations)
        _set(clone, "key", self.key)
        return clone


class EvidenceCounter:
    """Accumulates statements into per-pair evidence tuples, one block
    per combination.

    Writes land in plain nested dicts (cheap per statement, and they
    pickle cleanly across process-pool workers). Each combination's
    :class:`~repro.core.types.EvidenceBlock` is built on first read
    and kept until a write touches the combination, so a merge
    replaces exactly the blocks of the combinations it touched: the
    same block object read twice means an unchanged combination.
    """

    def __init__(self) -> None:
        self._counts: dict[PropertyTypeKey, dict[str, list[int]]] = {}
        self._blocks: dict[PropertyTypeKey, EvidenceBlock] = {}
        self._n_statements = 0

    def _slot(self, key: PropertyTypeKey, entity_id: str) -> list[int]:
        if self._blocks:
            self._blocks.pop(key, None)
        per_entity = self._counts.get(key)
        if per_entity is None:
            per_entity = {}
            self._counts[key] = per_entity
        slot = per_entity.get(entity_id)
        if slot is None:
            slot = [0, 0]
            per_entity[entity_id] = slot
        return slot

    def add(self, statement: EvidenceStatement) -> None:
        self.add_all((statement,))

    def add_all(self, statements: Iterable[EvidenceStatement]) -> None:
        """Count statements: each one's key, entity and polarity pick
        the slot; its document plays no part, so memoized protos count
        as the statements they stand for."""
        slot_of = self._slot
        n = 0
        for statement in statements:
            slot = slot_of(statement.key, statement.entity_id)
            if statement.polarity is Polarity.POSITIVE:
                slot[0] += 1
            else:
                slot[1] += 1
            n += 1
        self._n_statements += n

    def seed_pair(
        self,
        key: PropertyTypeKey,
        entity_id: str,
        positive: int,
        negative: int,
    ) -> None:
        """Add one pair's counts in a single step — the same totals as
        ``positive + negative`` calls to :meth:`add`, and like zero
        calls, a ⟨0, 0⟩ pair adds no slot (used by the loaders)."""
        if not positive and not negative:
            return
        slot = self._slot(key, entity_id)
        slot[0] += positive
        slot[1] += negative
        self._n_statements += positive + negative

    def __eq__(self, other: object) -> bool:
        """Exact count equality — the strict-parity assertion."""
        if not isinstance(other, EvidenceCounter):
            return NotImplemented
        return (
            self._n_statements == other._n_statements
            and self._counts == other._counts
        )

    def merge(self, other: "EvidenceCounter") -> None:
        """Fold another counter in (the reduce side of the pipeline)."""
        for key, per_entity in other._counts.items():
            for entity_id, (pos, neg) in per_entity.items():
                slot = self._slot(key, entity_id)
                slot[0] += pos
                slot[1] += neg
        self._n_statements += other._n_statements

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_statements(self) -> int:
        return self._n_statements

    @property
    def n_pairs(self) -> int:
        return sum(len(v) for v in self._counts.values())

    def polarity_totals(self) -> tuple[int, int]:
        """(positive, negative) statements over every pair."""
        positive = sum(
            slot[0]
            for per_entity in self._counts.values()
            for slot in per_entity.values()
        )
        return positive, self._n_statements - positive

    def keys(self) -> list[PropertyTypeKey]:
        return list(self._counts)

    def counts_for(
        self, key: PropertyTypeKey
    ) -> dict[str, EvidenceCounts]:
        return {
            entity_id: EvidenceCounts(pos, neg)
            for entity_id, (pos, neg) in self._counts.get(key, {}).items()
        }

    def as_evidence(
        self,
    ) -> dict[PropertyTypeKey, dict[str, EvidenceCounts]]:
        """The full nested mapping of per-pair tuples (the mining
        reduce's grouping; the ingest cycle reads :meth:`blocks`)."""
        return {key: self.counts_for(key) for key in self._counts}

    def blocks(self) -> dict[PropertyTypeKey, EvidenceBlock]:
        """Every combination's evidence block, in :meth:`keys` order;
        only the blocks a write dropped since the last read are built."""
        blocks = self._blocks
        view = {}
        for key, per_entity in self._counts.items():
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = EvidenceBlock.of(per_entity)
            view[key] = block
        return view

    def get(self, key: PropertyTypeKey, entity_id: str) -> EvidenceCounts:
        pos, neg = self._counts.get(key, {}).get(entity_id, (0, 0))
        return EvidenceCounts(pos, neg)

    def statements_per_key(self) -> dict[PropertyTypeKey, int]:
        """Total statement count per property-type combination."""
        return {key: block.total for key, block in self.blocks().items()}

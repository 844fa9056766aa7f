"""In-memory typed knowledge base.

Provides the operations the pipeline needs:

* enumerate all entities of a most-notable type (Surveyor pads the
  evidence of never-mentioned entities with zero counts);
* resolve surface forms to candidate entities for the linker,
  including the deliberately ambiguous aliases the disambiguation test
  of Section 2 exercises;
* join objective attributes for the correlation studies.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator

from .entity import Entity


class KnowledgeBase:
    """Entity store indexed by ID, type, and surface form."""

    def __init__(self, entities: Iterable[Entity] = ()) -> None:
        self._by_id: dict[str, Entity] = {}
        self._by_type: dict[str, list[Entity]] = defaultdict(list)
        self._by_surface: dict[str, list[Entity]] = defaultdict(list)
        #: First word of an alias -> most words of any alias starting
        #: with it (the linker's scan window at that word).
        self._head_widths: dict[str, int] = {}
        for entity in entities:
            self.add(entity)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, entity: Entity) -> None:
        if entity.id in self._by_id:
            raise ValueError(f"duplicate entity id {entity.id!r}")
        self._by_id[entity.id] = entity
        self._by_type[entity.entity_type].append(entity)
        # Once per lower-cased form: an alias repeating the name in
        # another case must not make the entity its own rival.
        for form in dict.fromkeys(
            form.lower() for form in entity.surface_forms
        ):
            self._by_surface[form].append(entity)
            head, *rest = form.split(" ")
            width = len(rest) + 1
            if width > self._head_widths.get(head, 0):
                self._head_widths[head] = width

    def add_all(self, entities: Iterable[Entity]) -> None:
        for entity in entities:
            self.add(entity)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, entity_id: str) -> Entity:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise KeyError(f"unknown entity id {entity_id!r}") from None

    def maybe_get(self, entity_id: str) -> Entity | None:
        return self._by_id.get(entity_id)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._by_id

    def entities_of_type(self, entity_type: str) -> list[Entity]:
        """All entities whose most notable type matches."""
        return list(self._by_type.get(entity_type.lower(), ()))

    def entity_ids_of_type(self, entity_type: str) -> list[str]:
        """ID view of :meth:`entities_of_type` (the Surveyor protocol)."""
        return [e.id for e in self.entities_of_type(entity_type)]

    def types(self) -> list[str]:
        return sorted(self._by_type)

    def candidates(self, surface_form: str) -> list[Entity]:
        """Entities matching a surface form, across all types.

        More than one candidate means the mention is ambiguous and the
        linker must disambiguate using sentence context.
        """
        return list(self._by_surface.get(surface_form.lower(), ()))

    def surface_forms(self) -> Iterator[str]:
        """All known surface forms (for the linker's scanner)."""
        return iter(self._by_surface)

    # ------------------------------------------------------------------
    # Container protocol / stats
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self._by_id.values())

    def stats(self) -> dict[str, int]:
        """Basic counts for the Section 7.1 scale report."""
        return {
            "entities": len(self._by_id),
            "types": len(self._by_type),
            "surface_forms": len(self._by_surface),
        }

    def merged_with(self, other: "KnowledgeBase") -> "KnowledgeBase":
        """Union of two KBs (IDs must not collide)."""
        merged = KnowledgeBase(self)
        merged.add_all(other)
        return merged

"""Scenario specifications for corpus generation.

A scenario fixes the synthetic world: which entities exist, which
subjective properties are discussed, what the dominant opinion truly
is per entity, and with which biases authors write about them. The
builders cover the paper's experimental settings:

* :func:`covariate_scenario` — ground truth derived from an objective
  attribute (population for ``big city``, GDP for ``wealthy country``),
  with occurrence bias correlated with the same attribute: the setup
  of Section 2 and Appendix A;
* :func:`curated_scenario` — hand-specified ground truth, the setup of
  the Table 2 / AMT evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.types import Polarity, SubjectiveProperty
from ..kb.entity import Entity
from .author import TrueParameters


@dataclass(frozen=True, slots=True)
class PropertySpec:
    """Generative specification for one property over one entity type.

    ``spurious_positive_rate`` / ``spurious_negative_rate`` model the
    Web's long-tail chatter: a fame-independent expected count of
    statements that do not reflect anyone's considered opinion (quoted
    phrases, jokes, boilerplate). Section 2's empirical study found
    positive hits for nearly every Californian city — including ones
    nobody would call big — which is exactly this floor.
    """

    property: SubjectiveProperty
    params: TrueParameters
    ground_truth: dict[str, Polarity]
    popularity: dict[str, float] = field(default_factory=dict)
    spurious_positive_rate: float = 0.0
    spurious_negative_rate: float = 0.0

    def popularity_of(self, entity_id: str) -> float:
        return self.popularity.get(entity_id, 1.0)

    def truth_of(self, entity_id: str) -> Polarity:
        return self.ground_truth[entity_id]


@dataclass(frozen=True, slots=True)
class Scenario:
    """A complete synthetic-world specification for one entity type."""

    name: str
    entity_type: str
    entities: tuple[Entity, ...]
    specs: tuple[PropertySpec, ...]

    def __post_init__(self) -> None:
        for entity in self.entities:
            if entity.entity_type != self.entity_type:
                raise ValueError(
                    f"entity {entity.id} is not of type {self.entity_type!r}"
                )
        entity_ids = {entity.id for entity in self.entities}
        for spec in self.specs:
            missing = entity_ids - set(spec.ground_truth)
            if missing:
                raise ValueError(
                    f"spec {spec.property.text!r} lacks ground truth for "
                    f"{sorted(missing)[:3]}..."
                )

    @property
    def type_noun(self) -> str:
        return self.entity_type


def covariate_scenario(
    name: str,
    entities: list[Entity],
    property_text: str,
    attribute: str,
    threshold: float,
    params: TrueParameters,
    occurrence_exponent: float = 0.35,
    invert: bool = False,
    spurious_positive_rate: float = 0.0,
    spurious_negative_rate: float = 0.0,
) -> Scenario:
    """Scenario whose ground truth follows an objective attribute.

    The dominant opinion is positive iff the entity's attribute exceeds
    ``threshold`` (or falls below it with ``invert``). Popularity —
    the occurrence-bias multiplier — scales as
    ``(attribute / threshold) ** occurrence_exponent``, reproducing the
    paper's observation that big cities are mentioned far more often
    than small ones.
    """
    if not entities:
        raise ValueError("scenario needs at least one entity")
    entity_type = entities[0].entity_type
    property_ = SubjectiveProperty.parse(property_text)
    ground_truth: dict[str, Polarity] = {}
    popularity: dict[str, float] = {}
    for entity in entities:
        value = entity.attribute(attribute)
        above = value > threshold
        positive = above != invert
        ground_truth[entity.id] = (
            Polarity.POSITIVE if positive else Polarity.NEGATIVE
        )
        ratio = max(value, 1e-9) / threshold
        if invert:
            ratio = 1.0 / ratio
        popularity[entity.id] = _clamp(
            math.pow(ratio, occurrence_exponent), 0.01, 50.0
        )
    spec = PropertySpec(
        property=property_,
        params=params,
        ground_truth=ground_truth,
        popularity=popularity,
        spurious_positive_rate=spurious_positive_rate,
        spurious_negative_rate=spurious_negative_rate,
    )
    return Scenario(
        name=name,
        entity_type=entity_type,
        entities=tuple(entities),
        specs=(spec,),
    )


def curated_scenario(
    name: str,
    entities: list[Entity],
    truths: dict[str, dict[str, bool]],
    params_by_property: dict[str, TrueParameters],
    popularity: dict[str, float] | None = None,
    popularity_by_property: dict[str, dict[str, float]] | None = None,
    spurious_by_property: dict[str, tuple[float, float]] | None = None,
) -> Scenario:
    """Scenario with hand-specified ground truth.

    ``truths`` maps property text to per-entity-name booleans;
    ``params_by_property`` supplies the per-property generative biases
    (the paper stresses these differ across property-type pairs).
    ``popularity_by_property`` overrides the shared ``popularity`` for
    individual properties — the hook for per-combination occurrence
    bias, where holding a property makes an entity more talked-about.
    """
    if not entities:
        raise ValueError("scenario needs at least one entity")
    entity_type = entities[0].entity_type
    by_name = {entity.name.lower(): entity for entity in entities}
    specs = []
    for property_text, truth_by_name in truths.items():
        ground_truth: dict[str, Polarity] = {}
        for name_key, positive in truth_by_name.items():
            entity = by_name.get(name_key.lower())
            if entity is None:
                raise KeyError(
                    f"ground truth refers to unknown entity {name_key!r}"
                )
            ground_truth[entity.id] = (
                Polarity.POSITIVE if positive else Polarity.NEGATIVE
            )
        spec_popularity = dict(popularity or {})
        if popularity_by_property and property_text in popularity_by_property:
            spec_popularity.update(popularity_by_property[property_text])
        spurious_pos, spurious_neg = (spurious_by_property or {}).get(
            property_text, (0.0, 0.0)
        )
        specs.append(
            PropertySpec(
                property=SubjectiveProperty.parse(property_text),
                params=params_by_property[property_text],
                ground_truth=ground_truth,
                popularity=spec_popularity,
                spurious_positive_rate=spurious_pos,
                spurious_negative_rate=spurious_neg,
            )
        )
    return Scenario(
        name=name,
        entity_type=entity_type,
        entities=tuple(entities),
        specs=tuple(specs),
    )


def _clamp(value: float, low: float, high: float) -> float:
    return max(low, min(high, value))

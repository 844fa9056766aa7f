"""Generation drift: a structured diff between two opinion tables.

A hot reload replaces every answer the server gives; this module makes
that replacement observable. :func:`compare_tables` diffs two opinion
snapshots — the generation being retired and the one taking over — and
produces a :class:`DriftReport`:

* **flips** — common (entity, property-type) pairs whose dominant
  polarity changed, with a bounded sample of examples;
* a **posterior-delta histogram** (|Δ posterior| over common pairs,
  log-bucketed via :class:`~repro.obs.histogram.StreamingHistogram`);
* **pair churn** — pairs present in only one snapshot;
* **entity churn** — entities present in only one snapshot;
* a **per-property summary** keyed by the serialized combination key.

The serving layer emits a report on every ``/admin/reload`` and
rollback (gauges in ``/metrics``, a drift line in ``/healthz``, a
structured stderr line); ``repro diff A B`` runs the same comparison
on two artefact files offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.result import OpinionTable
from ..core.types import Opinion, PropertyTypeKey
from ..storage.serialize import _key_to_str
from .histogram import StreamingHistogram

DRIFT_FORMAT = "generation_drift"
DRIFT_VERSION = 1

#: Flip examples kept on a report (the gauges carry the totals).
MAX_FLIP_EXAMPLES = 10


@dataclass(slots=True)
class PropertyDrift:
    """Drift rollup for one property-type combination."""

    common: int = 0
    flips: int = 0
    added: int = 0
    removed: int = 0
    delta_sum: float = 0.0

    @property
    def mean_abs_delta(self) -> float:
        if not self.common:
            return 0.0
        return self.delta_sum / self.common

    def to_dict(self) -> dict[str, Any]:
        return {
            "common": self.common,
            "flips": self.flips,
            "added": self.added,
            "removed": self.removed,
            "mean_abs_delta": round(self.mean_abs_delta, 6),
        }


@dataclass(slots=True)
class DriftReport:
    """Everything one snapshot swap changed."""

    pairs_before: int
    pairs_after: int
    common: int
    added: int
    removed: int
    flips: int
    entity_churn: int
    delta_max: float
    delta_histogram: StreamingHistogram
    flip_examples: list[dict[str, Any]] = field(default_factory=list)
    per_property: dict[str, PropertyDrift] = field(
        default_factory=dict
    )

    @property
    def flip_fraction(self) -> float:
        """Flipped share of the answers both generations had."""
        if not self.common:
            return 0.0
        return self.flips / self.common

    def summary(self) -> dict[str, Any]:
        """The compact dict ``/healthz`` and log lines carry."""
        return {
            "pairs_before": self.pairs_before,
            "pairs_after": self.pairs_after,
            "common": self.common,
            "added": self.added,
            "removed": self.removed,
            "flips": self.flips,
            "flip_fraction": round(self.flip_fraction, 6),
            "entity_churn": self.entity_churn,
            "delta_max": round(self.delta_max, 6),
        }

    def to_dict(self) -> dict[str, Any]:
        """The full structured report (``repro diff --format json``)."""
        return {
            "format": DRIFT_FORMAT,
            "version": DRIFT_VERSION,
            **self.summary(),
            "flip_examples": list(self.flip_examples),
            "per_property": {
                key: drift.to_dict()
                for key, drift in sorted(self.per_property.items())
            },
            "delta_histogram": self.delta_histogram.to_dict(),
        }

    def render(self) -> str:
        """Human-readable report for the ``repro diff`` CLI."""
        lines = [
            "generation drift",
            f"  pairs: {self.pairs_before} -> {self.pairs_after} "
            f"({self.common} common, +{self.added} / -{self.removed})",
            f"  flips: {self.flips} "
            f"({self.flip_fraction:.1%} of common answers)",
            f"  entity churn: {self.entity_churn}",
            f"  max |delta posterior|: {self.delta_max:.4f}",
        ]
        for example in self.flip_examples:
            lines.append(
                f"  flip: {example['entity']} · {example['key']}  "
                f"{example['before']:.3f} -> {example['after']:.3f}"
            )
        changed = [
            (key, drift)
            for key, drift in sorted(self.per_property.items())
            if drift.flips or drift.added or drift.removed
        ]
        for key, drift in changed:
            lines.append(
                f"  {key}: {drift.flips} flips, +{drift.added} / "
                f"-{drift.removed}, mean |delta| "
                f"{drift.mean_abs_delta:.4f}"
            )
        return "\n".join(lines)


def compare_tables(
    before: OpinionTable,
    after: OpinionTable,
    max_examples: int = MAX_FLIP_EXAMPLES,
) -> DriftReport:
    """Diff two opinion tables; deterministic for given inputs.

    Iteration follows the *after* table's sorted pair order, so flip
    examples and per-property rollups are stable run to run.

    A combination whose block is the same object in both tables (an
    ingest carried it forward) has every pair in common with a zero
    delta and no flip, so it is counted in bulk; only the other
    blocks are diffed pair by pair.
    """
    histogram = StreamingHistogram()
    per_property: dict[str, PropertyDrift] = {}

    def rollup(key: PropertyTypeKey) -> PropertyDrift:
        text = _key_to_str(key)
        drift = per_property.get(text)
        if drift is None:
            drift = PropertyDrift()
            per_property[text] = drift
        return drift

    common = flips = 0
    after_pairs: dict[tuple[PropertyTypeKey, str], Opinion] = {}
    for key in after.keys():
        block = after.block(key)
        if before.block(key) is block:
            common += len(block)
            rollup(key).common += len(block)
            histogram.observe(0.0, count=len(block))
        else:
            for opinion in block:
                after_pairs[(key, opinion.entity_id)] = opinion
    before_pairs = {
        (key, opinion.entity_id): opinion
        for key in before.keys()
        if (block := before.block(key)) is not after.block(key)
        for opinion in block
    }

    delta_max = 0.0
    flip_examples: list[dict[str, Any]] = []
    ordered = sorted(
        after_pairs,
        key=lambda pair: (_key_to_str(pair[0]), pair[1]),
    )
    for pair in ordered:
        old = before_pairs.get(pair)
        new = after_pairs[pair]
        drift = rollup(pair[0])
        if old is None:
            drift.added += 1
            continue
        common += 1
        drift.common += 1
        delta = abs(new.probability - old.probability)
        drift.delta_sum += delta
        histogram.observe(delta)
        if delta > delta_max:
            delta_max = delta
        if new.polarity is not old.polarity:
            flips += 1
            drift.flips += 1
            if len(flip_examples) < max_examples:
                flip_examples.append(
                    {
                        "entity": pair[1],
                        "key": _key_to_str(pair[0]),
                        "before": round(old.probability, 6),
                        "after": round(new.probability, 6),
                        "before_polarity": str(old.polarity),
                        "after_polarity": str(new.polarity),
                    }
                )
    removed = 0
    for pair in sorted(
        before_pairs,
        key=lambda pair: (_key_to_str(pair[0]), pair[1]),
    ):
        if pair not in after_pairs:
            removed += 1
            rollup(pair[0]).removed += 1
    return DriftReport(
        pairs_before=len(before),
        pairs_after=len(after),
        common=common,
        added=len(after) - common,
        removed=removed,
        flips=flips,
        entity_churn=len(before.entities() ^ after.entities()),
        delta_max=delta_max,
        delta_histogram=histogram,
        flip_examples=flip_examples,
        per_property=per_property,
    )

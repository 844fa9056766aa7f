"""The Surveyor driver — Algorithm 1 of the paper.

Given (a) evidence counts grouped by property-type combination and
(b) a knowledge base that can enumerate the entities of a type, Surveyor
fits the user-behaviour model per combination (for combinations whose
total extraction count reaches the occurrence threshold ``rho``) and
emits a dominant opinion for *every* entity of the type — including
entities never mentioned on the Web, for which the absence of evidence
is itself informative.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Protocol

from ..obs.trace import NULL_SPAN
from .em import EMLearner, EMTrace
from .errors import ModelFitError
from .model import UserBehaviorModel
from .params import ModelParameters
from .result import OpinionTable
from .types import (
    EvidenceBlock,
    EvidenceCounts,
    Opinion,
    Polarity,
    PropertyTypeKey,
)

#: The paper filters property-type pairs with fewer than 100 evidence
#: sentences before running EM (Section 7.1).
DEFAULT_OCCURRENCE_THRESHOLD = 100


class EntityCatalog(Protocol):
    """The slice of a knowledge base Surveyor needs.

    ``repro.kb.KnowledgeBase`` satisfies this protocol; tests may pass a
    plain dict-backed stub.
    """

    def entity_ids_of_type(self, entity_type: str) -> Iterable[str]:
        """IDs of all entities whose most notable type matches."""
        ...


@dataclass(frozen=True, slots=True)
class FittedCombination:
    """Per property-type fit artefacts, useful for inspection/ablation."""

    key: PropertyTypeKey
    parameters: ModelParameters
    trace: EMTrace
    n_entities: int
    n_statements: int

    def model(self) -> UserBehaviorModel:
        return UserBehaviorModel(self.parameters)


#: A combination's evidence: its block, or per-entity tuples.
Evidence = EvidenceBlock | Mapping[str, EvidenceCounts]

#: A source of per-combination fits: ``(key, block) -> fit``.
FitFunction = Callable[[PropertyTypeKey, EvidenceBlock], FittedCombination]


@dataclass(frozen=True, slots=True)
class SurveyorResult:
    """Output of one Surveyor run.

    ``degraded`` lists the combinations whose EM fit was numerically
    degenerate and fell back to the majority-vote baseline; their
    opinions are hard votes rather than model posteriors.
    """

    opinions: OpinionTable
    fits: dict[PropertyTypeKey, FittedCombination]
    skipped: tuple[PropertyTypeKey, ...]
    degraded: tuple[PropertyTypeKey, ...] = ()

    @property
    def n_pairs(self) -> int:
        return len(self.opinions)


@dataclass
class Surveyor:
    """End-to-end evidence interpreter (extraction happens upstream).

    Parameters
    ----------
    catalog:
        Entity enumeration source; combined with the evidence counts to
        include never-mentioned entities with ``<0, 0>`` tuples.
    occurrence_threshold:
        Minimum total statements per property-type combination (``rho``).
    learner:
        EM configuration; a default instance is used when omitted.
    emit_undecided:
        When true, pairs with posterior exactly 0.5 are kept in the
        table as ``NEUTRAL``; the paper drops them (default).
    tracer:
        Optional span tracer; each interpreted combination then opens
        a ``combination`` span (with the learner's ``em_iteration``
        spans nested inside when the learner shares the tracer).
    """

    catalog: EntityCatalog
    occurrence_threshold: int = DEFAULT_OCCURRENCE_THRESHOLD
    learner: EMLearner = field(default_factory=EMLearner)
    emit_undecided: bool = False
    tracer: object | None = field(default=None, repr=False)

    def run(
        self,
        evidence: Mapping[PropertyTypeKey, Evidence],
        fit: FitFunction | None = None,
        previous: SurveyorResult | None = None,
        dirty: Container[PropertyTypeKey] = frozenset(),
    ) -> SurveyorResult:
        """Interpret all combinations meeting the occurrence threshold.

        ``evidence`` maps each property-type combination to the
        evidence gathered during extraction, as its block
        (:meth:`EvidenceCounter.blocks`) or as per-entity tuples;
        entities of the type that it lacks are treated as ``<0, 0>``.
        ``fit`` supplies each interpreted combination's fit
        in place of :meth:`fit_combination` (the ingest refitter hands
        back cached fits for combinations whose evidence is unchanged);
        everything else about the run is the same.

        ``previous`` is an earlier run of this surveyor's settings over
        evidence that differs at most in the ``dirty`` combinations. A
        combination outside ``dirty`` whose fit is the very object
        ``previous`` used has the same opinions, so the new table takes
        ``previous``'s block as is instead of emitting it again.
        """
        fit_one = self.fit_combination if fit is None else fit
        carried = {} if previous is None else previous.fits
        table = OpinionTable()
        fits: dict[PropertyTypeKey, FittedCombination] = {}
        skipped: list[PropertyTypeKey] = []
        degraded: list[PropertyTypeKey] = []

        for key in sorted(evidence, key=str):
            evidence_block = evidence[key]
            if not isinstance(evidence_block, EvidenceBlock):
                evidence_block = self._full_evidence(key, evidence_block)
            if evidence_block.total < self.occurrence_threshold:
                skipped.append(key)
                continue
            # Padded once, for the fit and the emit both; a clean
            # combination a previous run fitted is likely carried and
            # padded only if it is not.
            padded = key in dirty or key not in carried
            if padded:
                evidence_block = self._full_evidence(key, evidence_block)
            with self._combination_span(key) as span:
                fitted = fit_one(key, evidence_block)
                fits[key] = fitted
                span.set("verdict", fitted.trace.verdict)
                span.set("iterations", fitted.trace.iterations)
                span.set("n_entities", fitted.n_entities)
                span.set("n_statements", fitted.n_statements)
                if fitted.trace.degraded:
                    degraded.append(key)
                    table.mark_degraded(key)
                if key not in dirty and carried.get(key) is fitted:
                    block = previous.opinions.block(key)
                else:
                    block = self._emit(key, fitted, (
                        evidence_block if padded
                        else self._full_evidence(key, evidence_block)
                    ))
                table.add_block(key, block)
        return SurveyorResult(
            opinions=table,
            fits=fits,
            skipped=tuple(skipped),
            degraded=tuple(degraded),
        )

    def _emit(
        self,
        key: PropertyTypeKey,
        fit: FittedCombination,
        evidence: EvidenceBlock,
    ) -> tuple[Opinion, ...]:
        """One combination's opinion on every entity of its type
        (``evidence`` is the combination's padded block).

        A degenerate fit fell back to majority vote, so its opinions
        are hard votes instead of model posteriors. Either way the
        probability depends on the evidence tuple alone, so it is
        computed once per distinct ``<C+, C->`` of the combination,
        and the opinions with that tuple share one object of it.
        """
        if fit.trace.degraded:
            probability_of = _majority_probability
        else:
            probability_of = fit.model().posterior_positive
        distinct: dict[tuple[int, int], tuple[EvidenceCounts, float]] = {}
        emit_undecided = self.emit_undecided
        block = []
        for entity_id, pair in zip(
            evidence.ids, zip(evidence.positive, evidence.negative)
        ):
            entry = distinct.get(pair)
            if entry is None:
                counts = EvidenceCounts(*pair)
                entry = distinct[pair] = (counts, probability_of(counts))
            counts, probability = entry
            # Exactly 0.5 is the undecided case the paper drops.
            if probability != 0.5 or emit_undecided:
                block.append(Opinion(entity_id, key, probability, counts))
        return tuple(block)

    def _combination_span(self, key: PropertyTypeKey):
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(
            "combination", kind="combination", key=str(key)
        )

    def fit_combination(
        self, key: PropertyTypeKey, evidence: Evidence
    ) -> FittedCombination:
        """Fit the model for one combination (no thresholding)."""
        full = self._full_evidence(key, evidence)
        if not full.ids:
            raise ModelFitError(
                f"no entities of type {key.entity_type!r} in the catalog "
                "or the evidence"
            )
        result = self.learner.fit(full)
        return FittedCombination(
            key=key,
            parameters=result.parameters,
            trace=result.trace,
            n_entities=len(full.ids),
            n_statements=full.total,
        )

    def _full_evidence(
        self, key: PropertyTypeKey, evidence: Evidence
    ) -> EvidenceBlock:
        """Join evidence with the catalog, padding absentees with zeros.

        Entities appearing in the evidence but not in the catalog (e.g.
        a linker matched an alias of an entity filed under another most
        notable type) are still interpreted.
        """
        if not isinstance(evidence, EvidenceBlock):
            evidence = EvidenceBlock.of({
                entity_id: (counts.positive, counts.negative)
                for entity_id, counts in evidence.items()
            })
        return evidence.padded(
            self.catalog.entity_ids_of_type(key.entity_type)
        )


def _majority_probability(counts: EvidenceCounts) -> float:
    """Hard majority vote as a probability (1, 0, or 0.5 on a tie)."""
    return _MAJORITY_PROBABILITY[counts.majority()]


_MAJORITY_PROBABILITY = {
    Polarity.POSITIVE: 1.0,
    Polarity.NEGATIVE: 0.0,
    Polarity.NEUTRAL: 0.5,
}

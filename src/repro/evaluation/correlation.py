"""Polarity-vs-covariate correlation analysis (Figure 3 / Figure 13).

The Section 2 and Appendix A studies judge interpretation quality
qualitatively: the mined polarity of ``big city`` should correlate with
population, ``wealthy country`` with GDP per capita, and the method
should decide *every* entity rather than leaving the unmentioned ones
blank. This module quantifies both aspects:

* rank-biserial / point-biserial association between polarity and the
  (log) covariate;
* the decided fraction;
* the covariate separation: median covariate of positive-marked vs
  negative-marked entities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.result import OpinionTable
from ..core.types import Polarity, PropertyTypeKey
from ..kb.entity import Entity


@dataclass(frozen=True, slots=True)
class PolarityPoint:
    """One entity's covariate and mined polarity."""

    entity_id: str
    covariate: float
    polarity: Polarity


@dataclass(frozen=True, slots=True)
class CorrelationReport:
    """Association between polarity and covariate for one method.

    ``auc`` is the headline statistic: the probability that a
    positive-marked entity has a higher covariate than a
    negative-marked one (Mann-Whitney). Unlike the point-biserial
    correlation it is insensitive to the (often extreme) class
    imbalance of these studies — 15 genuinely big cities among 461.
    """

    name: str
    n_entities: int
    n_decided: int
    auc: float
    point_biserial: float
    positive_median: float
    negative_median: float

    @property
    def decided_fraction(self) -> float:
        return self.n_decided / self.n_entities if self.n_entities else 0.0

    @property
    def separation(self) -> float:
        """Ratio of medians; >1 means positives sit higher, as expected."""
        if self.negative_median <= 0:
            return math.inf
        return self.positive_median / self.negative_median

    def row(self) -> str:
        return (
            f"{self.name:22s} decided={self.decided_fraction:5.3f} "
            f"auc={self.auc:.3f} r={self.point_biserial:+.3f} "
            f"median+={self.positive_median:.3g} "
            f"median-={self.negative_median:.3g}"
        )


def polarity_points(
    table: OpinionTable,
    key: PropertyTypeKey,
    entities: list[Entity],
    attribute: str,
) -> list[PolarityPoint]:
    """Join mined polarities with the objective covariate."""
    return [
        PolarityPoint(
            entity_id=entity.id,
            covariate=entity.attribute(attribute),
            polarity=table.polarity(entity.id, key),
        )
        for entity in entities
    ]


def correlation_report(
    name: str, points: list[PolarityPoint]
) -> CorrelationReport:
    """Point-biserial correlation of decided polarity vs log-covariate."""
    from scipy import stats

    decided = [p for p in points if p.polarity is not Polarity.NEUTRAL]
    positive_values = [
        p.covariate for p in decided if p.polarity is Polarity.POSITIVE
    ]
    negative_values = [
        p.covariate for p in decided if p.polarity is Polarity.NEGATIVE
    ]
    if decided and positive_values and negative_values:
        labels = np.array(
            [1.0 if p.polarity is Polarity.POSITIVE else 0.0 for p in decided]
        )
        log_cov = np.log10(
            np.maximum([p.covariate for p in decided], 1e-12)
        )
        if np.std(log_cov) > 0 and np.std(labels) > 0:
            r = float(stats.pearsonr(labels, log_cov).statistic)
        else:
            r = 0.0
        u_statistic = stats.mannwhitneyu(
            positive_values, negative_values, alternative="two-sided"
        ).statistic
        auc = float(
            u_statistic / (len(positive_values) * len(negative_values))
        )
    else:
        r = 0.0
        auc = 0.5
    return CorrelationReport(
        name=name,
        n_entities=len(points),
        n_decided=len(decided),
        auc=auc,
        point_biserial=r,
        positive_median=(
            float(np.median(positive_values)) if positive_values else 0.0
        ),
        negative_median=(
            float(np.median(negative_values)) if negative_values else 0.0
        ),
    )

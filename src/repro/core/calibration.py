"""Connecting subjective properties to objective ones (Section 9).

The paper's outlook: *"We could for instance try to find a lower bound
on the population count of a city starting from which an average user
would call that city big."* This module implements that link: given
mined opinions for one property-type combination and an objective
covariate from the knowledge base, it fits

* a **decision stump** — the covariate threshold that best separates
  positive from negative dominant opinions (the paper's "lower
  bound"), and
* a **logistic curve** — ``Pr(property applies | covariate)`` over the
  log covariate, giving a smooth subjective-to-objective bridge that
  can score entities missing from the mined table entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..kb.entity import Entity
from .errors import ReproError
from .result import OpinionTable
from .types import Polarity, PropertyTypeKey


@dataclass(frozen=True, slots=True)
class SubjectiveObjectiveLink:
    """A fitted bridge between a subjective property and a covariate.

    ``threshold`` is the stump boundary on the raw covariate;
    ``intercept``/``slope`` parameterize the logistic curve on
    ``log10`` of the covariate. ``accuracy`` is the stump's agreement
    with the mined polarities.
    """

    key: PropertyTypeKey
    attribute: str
    threshold: float
    accuracy: float
    intercept: float
    slope: float
    n_positive: int
    n_negative: int

    def probability(self, covariate: float) -> float:
        """Logistic ``Pr(property applies | covariate)``."""
        if covariate <= 0:
            return 0.0 if self.slope > 0 else 1.0
        z = self.intercept + self.slope * math.log10(covariate)
        return 1.0 / (1.0 + math.exp(-max(min(z, 700.0), -700.0)))

    def applies(self, covariate: float) -> bool:
        """Stump decision for an unseen entity."""
        return covariate > self.threshold

    def describe(self) -> str:
        return (
            f"{self.key}: applies above {self.attribute} ~ "
            f"{self.threshold:,.0f} (stump accuracy "
            f"{self.accuracy:.2f}, logistic midpoint "
            f"{self.logistic_midpoint():,.0f})"
        )

    def logistic_midpoint(self) -> float:
        """Covariate where the logistic crosses 0.5."""
        if self.slope == 0:
            return math.inf
        return 10.0 ** (-self.intercept / self.slope)


class CalibrationError(ReproError, ValueError):
    """Raised when the opinions cannot support a calibration."""


def fit_link(
    table: OpinionTable,
    key: PropertyTypeKey,
    entities: list[Entity],
    attribute: str,
) -> SubjectiveObjectiveLink:
    """Fit the subjective-to-objective bridge for one combination.

    Uses the *mined* polarities (not any hidden truth): the output is
    the model's own implied objective boundary. Entities without a
    decided opinion or without the attribute are skipped.
    """
    values: list[float] = []
    labels: list[int] = []
    for entity in entities:
        polarity = table.polarity(entity.id, key)
        if polarity is Polarity.NEUTRAL:
            continue
        if attribute not in entity.attributes:
            continue
        values.append(entity.attribute(attribute))
        labels.append(1 if polarity is Polarity.POSITIVE else 0)
    n_positive = sum(labels)
    n_negative = len(labels) - n_positive
    if n_positive == 0 or n_negative == 0:
        raise CalibrationError(
            f"need both polarities to calibrate {key}; got "
            f"{n_positive}+ / {n_negative}-"
        )

    threshold, accuracy = _best_stump(values, labels)
    intercept, slope = _fit_logistic(values, labels)
    return SubjectiveObjectiveLink(
        key=key,
        attribute=attribute,
        threshold=threshold,
        accuracy=accuracy,
        intercept=intercept,
        slope=slope,
        n_positive=n_positive,
        n_negative=n_negative,
    )


def _best_stump(
    values: list[float], labels: list[int]
) -> tuple[float, float]:
    """Threshold maximizing agreement with ``covariate > t -> positive``.

    Candidate boundaries are midpoints between consecutive sorted
    covariates (geometric midpoints, since the quantities are
    log-scaled in nature).
    """
    order = np.argsort(values)
    sorted_values = np.asarray(values, dtype=float)[order]
    sorted_labels = np.asarray(labels, dtype=int)[order]
    n = len(sorted_values)
    total_positive = int(sorted_labels.sum())
    # positives_below[i] = #positives among the first i entities.
    positives_below = np.concatenate(([0], np.cumsum(sorted_labels)))
    best_correct = -1
    best_threshold = sorted_values[0] / 2.0
    for cut in range(n + 1):
        # Entities [0, cut) predicted negative; [cut, n) positive.
        correct = (
            (cut - positives_below[cut])
            + (total_positive - positives_below[cut])
        )
        if correct > best_correct:
            best_correct = int(correct)
            if cut == 0:
                best_threshold = sorted_values[0] / 2.0
            elif cut == n:
                best_threshold = sorted_values[-1] * 2.0
            else:
                lower = max(sorted_values[cut - 1], 1e-12)
                upper = max(sorted_values[cut], lower)
                best_threshold = math.sqrt(lower * upper)
    return best_threshold, best_correct / n


def _fit_logistic(
    values: list[float], labels: list[int]
) -> tuple[float, float]:
    """Maximum-likelihood 1-D logistic regression on log10(covariate)."""
    from scipy import optimize

    x = np.log10(np.maximum(np.asarray(values, dtype=float), 1e-12))
    y = np.asarray(labels, dtype=float)

    def negative_log_likelihood(theta: np.ndarray) -> float:
        z = theta[0] + theta[1] * x
        # log(1 + e^z) computed stably.
        log1pexp = np.logaddexp(0.0, z)
        return float(np.sum(log1pexp - y * z))

    result = optimize.minimize(
        negative_log_likelihood,
        x0=np.array([0.0, 1.0]),
        method="Nelder-Mead",
        options={"maxiter": 2000, "xatol": 1e-6, "fatol": 1e-9},
    )
    intercept, slope = result.x
    return float(intercept), float(slope)

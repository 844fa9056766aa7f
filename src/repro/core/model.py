"""The probabilistic user-behaviour model (Section 5).

Given parameters for one property-type combination, the model assigns
each evidence tuple ``<C+, C->`` a posterior probability that the
dominant opinion on the underlying entity is positive. The generative
story (Figure 7/8 of the paper):

1. the dominant opinion ``D`` is positive or negative with a uniform
   prior (the paper is agnostic: ``Pr(D=+) = Pr(D=-) = 0.5``);
2. each of ``n`` document authors agrees with ``D`` with probability
   ``pA``, forming an opinion ``O``;
3. an author with opinion ``O`` writes a statement of that polarity
   with probability ``p+S`` (if ``O=+``) or ``p-S`` (if ``O=-``),
   otherwise stays silent;
4. counts are sums over authors; in the Poisson limit,
   ``C+ | D`` and ``C- | D`` are independent Poissons with the rates
   derived in :mod:`repro.core.params`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ModelParameters
from .poisson import log_sum_exp, multinomial_log_pmf, poisson_log_pmf
from .types import EvidenceCounts, Opinion, Polarity, PropertyTypeKey

#: The paper's agnostic prior over the dominant opinion.
UNIFORM_LOG_PRIOR = math.log(0.5)


@dataclass(frozen=True)
class UserBehaviorModel:
    """Fitted model for one property-type combination.

    The model is cheap to construct; all heavy lifting happened during
    EM. ``prior_positive`` defaults to the paper's uniform 0.5 but is
    exposed for the empirical-prior ablation.
    """

    parameters: ModelParameters
    prior_positive: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.prior_positive < 1.0:
            raise ValueError(
                f"prior must be in (0, 1), got {self.prior_positive}"
            )

    # ------------------------------------------------------------------
    # Likelihoods
    # ------------------------------------------------------------------
    def log_likelihood(
        self, counts: EvidenceCounts, positive_dominant: bool
    ) -> float:
        """``log Pr(C+ = a, C- = b | D)`` under the Poisson product."""
        rates = self.parameters.poisson_rates()
        pos_rate, neg_rate = rates.for_dominant(positive_dominant)
        return poisson_log_pmf(counts.positive, pos_rate) + poisson_log_pmf(
            counts.negative, neg_rate
        )

    def log_evidence(self, counts: EvidenceCounts) -> float:
        """``log Pr(C+, C-)`` marginalized over the dominant opinion."""
        log_prior_pos = math.log(self.prior_positive)
        log_prior_neg = math.log(1.0 - self.prior_positive)
        return log_sum_exp(
            (
                log_prior_pos + self.log_likelihood(counts, True),
                log_prior_neg + self.log_likelihood(counts, False),
            )
        )

    # ------------------------------------------------------------------
    # Posterior inference
    # ------------------------------------------------------------------
    def posterior_positive(self, counts: EvidenceCounts) -> float:
        """``Pr(D = + | C+, C-)`` — the quantity Surveyor thresholds at 0.5."""
        log_joint_pos = math.log(self.prior_positive) + self.log_likelihood(
            counts, True
        )
        log_joint_neg = math.log(
            1.0 - self.prior_positive
        ) + self.log_likelihood(counts, False)
        # Equal joints are the undecided case, exactly: through
        # log-sum-exp, ``x - (x + log 2)`` rounds and would read a hair
        # off 0.5, and Surveyor drops only an exact 0.5.
        if log_joint_pos == log_joint_neg:
            return 0.5
        denominator = log_sum_exp((log_joint_pos, log_joint_neg))
        return math.exp(log_joint_pos - denominator)

    def classify(self, counts: EvidenceCounts) -> Polarity:
        """Threshold the posterior at 0.5 as in Algorithm 1."""
        probability = self.posterior_positive(counts)
        if probability > 0.5:
            return Polarity.POSITIVE
        if probability < 0.5:
            return Polarity.NEGATIVE
        return Polarity.NEUTRAL

    def opinion(
        self, entity_id: str, key: PropertyTypeKey, counts: EvidenceCounts
    ) -> Opinion:
        """Package posterior and evidence into an :class:`Opinion`."""
        return Opinion(
            entity_id=entity_id,
            key=key,
            probability=self.posterior_positive(counts),
            evidence=counts,
        )

    # ------------------------------------------------------------------
    # Exact-multinomial variant (ablation support)
    # ------------------------------------------------------------------
    def posterior_positive_multinomial(
        self, counts: EvidenceCounts, n_documents: int
    ) -> float:
        """Posterior under the exact Multinomial instead of the Poisson
        product — used to quantify the approximation the paper makes.
        """
        log_terms = []
        for positive_dominant, prior in (
            (True, self.prior_positive),
            (False, 1.0 - self.prior_positive),
        ):
            p_pos, p_neg, p_none = self.parameters.statement_probabilities(
                positive_dominant, n_documents
            )
            silent = n_documents - counts.total
            if silent < 0:
                raise ValueError("counts exceed the number of documents")
            log_terms.append(
                math.log(prior)
                + multinomial_log_pmf(
                    (counts.positive, counts.negative, silent),
                    (p_pos, p_neg, p_none),
                )
            )
        denominator = log_sum_exp(log_terms)
        if denominator == -math.inf:
            return 0.5
        return math.exp(log_terms[0] - denominator)

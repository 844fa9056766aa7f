"""Tests for the EM learner (Section 6)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from repro.core import (
    EMLearner,
    EMTrace,
    EvidenceCounts,
    FittedCombination,
    ModelParameters,
    Polarity,
    PropertyTypeKey,
    SubjectiveProperty,
    Surveyor,
    UserBehaviorModel,
)
from repro.core import em
from repro.core.em import (
    _RATE_FLOOR,
    _grid_maximum,
    _two_product,
    _weighted_totals,
)
from repro.core.params import (
    DEFAULT_AGREEMENT_GRID,
    DEFAULT_INITIAL_PARAMETERS,
)
from repro.corpus import TrueParameters, sample_statement_counts


def synthetic_evidence(
    params: TrueParameters,
    n_positive: int,
    n_negative: int,
    seed: int = 5,
) -> tuple[list[EvidenceCounts], list[Polarity]]:
    """Draw evidence tuples from the generative model."""
    rng = random.Random(seed)
    evidence = []
    truths = []
    for index in range(n_positive + n_negative):
        truth = (
            Polarity.POSITIVE if index < n_positive else Polarity.NEGATIVE
        )
        pos, neg = sample_statement_counts(truth, params, rng)
        evidence.append(EvidenceCounts(pos, neg))
        truths.append(truth)
    return evidence, truths


class TestParameterRecovery:
    def test_recovers_known_parameters(self):
        true = TrueParameters(0.9, 40.0, 6.0)
        evidence, _ = synthetic_evidence(true, 60, 120)
        result = EMLearner().fit(evidence)
        assert result.parameters.agreement == pytest.approx(0.9, abs=0.05)
        assert result.parameters.rate_positive == pytest.approx(
            40.0, rel=0.15
        )
        assert result.parameters.rate_negative == pytest.approx(
            6.0, rel=0.3
        )

    def test_posteriors_recover_labels(self):
        true = TrueParameters(0.88, 30.0, 4.0)
        evidence, truths = synthetic_evidence(true, 40, 80)
        result = EMLearner().fit(evidence)
        predicted = [
            Polarity.POSITIVE if r > 0.5 else Polarity.NEGATIVE
            for r in result.responsibilities
        ]
        accuracy = sum(
            p is t for p, t in zip(predicted, truths)
        ) / len(truths)
        assert accuracy > 0.9

    def test_asymmetric_bias_recovered(self):
        """A warn-style combination: negatives dominate."""
        true = TrueParameters(0.85, 4.0, 25.0)
        evidence, truths = synthetic_evidence(true, 50, 50, seed=11)
        result = EMLearner().fit(evidence)
        assert result.parameters.rate_negative > result.parameters.rate_positive
        predicted = [
            Polarity.POSITIVE if r > 0.5 else Polarity.NEGATIVE
            for r in result.responsibilities
        ]
        accuracy = sum(p is t for p, t in zip(predicted, truths)) / len(truths)
        assert accuracy > 0.85


class TestConvergence:
    def test_expected_likelihood_nondecreasing(self):
        true = TrueParameters(0.9, 30.0, 3.0)
        evidence, _ = synthetic_evidence(true, 30, 60)
        result = EMLearner(max_iterations=30, tolerance=0.0).fit(evidence)
        lls = result.trace.log_likelihoods
        # EM guarantees monotone Q after the first full cycle; allow
        # tiny numeric wiggle.
        for earlier, later in zip(lls[1:], lls[2:]):
            assert later >= earlier - 1e-6

    def test_converges_before_max_iterations(self):
        true = TrueParameters(0.9, 30.0, 3.0)
        evidence, _ = synthetic_evidence(true, 30, 60)
        result = EMLearner(max_iterations=100).fit(evidence)
        assert result.trace.converged
        assert result.trace.iterations < 100

    def test_record_path_traces_parameters(self):
        true = TrueParameters(0.9, 30.0, 3.0)
        evidence, _ = synthetic_evidence(true, 20, 40)
        result = EMLearner(record_path=True, max_iterations=5).fit(evidence)
        assert len(result.trace.parameters_path) >= 2
        assert isinstance(
            result.trace.parameters_path[0], ModelParameters
        )


class TestMStep:
    def test_closed_form_maximizes_q_for_fixed_agreement(self):
        """The closed-form np±S must beat any perturbed rates."""
        true = TrueParameters(0.9, 30.0, 3.0)
        evidence, _ = synthetic_evidence(true, 30, 60)
        learner = EMLearner()
        pos = np.array([e.positive for e in evidence], dtype=float)
        neg = np.array([e.negative for e in evidence], dtype=float)
        resp = learner._e_step(pos, neg, true_to_model(true))
        theta, q_star = learner._m_step(pos, neg, resp)

        g_pp = float(np.dot(pos, resp))
        g_np = float(np.dot(neg, resp))
        g_pn = float(np.dot(pos, 1 - resp))
        g_nn = float(np.dot(neg, 1 - resp))
        g_pos = float(np.sum(resp))
        g_neg = float(np.sum(1 - resp))
        for factor_pos in (0.8, 0.9, 1.1, 1.25):
            for factor_neg in (0.8, 1.2):
                perturbed = ModelParameters(
                    agreement=theta.agreement,
                    rate_positive=theta.rate_positive * factor_pos,
                    rate_negative=theta.rate_negative * factor_neg,
                )
                q_perturbed = scalar_q(
                    perturbed, g_pp, g_np, g_pn, g_nn, g_pos, g_neg
                )
                assert q_perturbed <= q_star + 1e-9

    def test_linear_time_in_entities(self):
        """One EM fit over 10x entities takes < ~25x the time (sanity
        check of the O(m) claim; generous bound for timer noise)."""
        import time

        true = TrueParameters(0.9, 30.0, 3.0)
        small, _ = synthetic_evidence(true, 40, 80, seed=3)
        large = small * 10
        learner = EMLearner(max_iterations=5, tolerance=0.0)

        learner.fit(small)  # warm-up
        start = time.perf_counter()
        learner.fit(small)
        small_time = time.perf_counter() - start
        start = time.perf_counter()
        learner.fit(large)
        large_time = time.perf_counter() - start
        assert large_time < max(25 * small_time, 0.5)


class TestValidation:
    def test_empty_evidence_rejected(self):
        with pytest.raises(ValueError):
            EMLearner().fit([])

    def test_grid_must_be_identifiable(self):
        with pytest.raises(ValueError):
            EMLearner(agreement_grid=(0.4, 0.9))
        with pytest.raises(ValueError):
            EMLearner(agreement_grid=(0.9, 1.0))

    def test_grid_must_be_nonempty(self):
        with pytest.raises(ValueError):
            EMLearner(agreement_grid=())

    def test_max_iterations_positive(self):
        with pytest.raises(ValueError):
            EMLearner(max_iterations=0)

    def test_all_zero_evidence_degrades_gracefully(self):
        """All-silent evidence: no crash, all posteriors defined."""
        evidence = [EvidenceCounts(0, 0)] * 20
        result = EMLearner().fit(evidence)
        assert np.all((result.responsibilities >= 0))
        assert np.all((result.responsibilities <= 1))

    def test_single_entity(self):
        result = EMLearner().fit([EvidenceCounts(4, 1)])
        assert 0.0 <= result.responsibilities[0] <= 1.0


class TestNumericalRobustness:
    """Degenerate evidence shapes must fit without NaN/inf or raising."""

    def assert_finite_fit(self, result):
        assert np.all(np.isfinite(result.responsibilities))
        assert np.all(result.responsibilities >= 0.0)
        assert np.all(result.responsibilities <= 1.0)
        params = result.parameters
        for value in (
            params.agreement,
            params.rate_positive,
            params.rate_negative,
        ):
            assert np.isfinite(value)

    def test_all_zero_evidence_fit_is_finite(self):
        result = EMLearner().fit([EvidenceCounts(0, 0)] * 50)
        self.assert_finite_fit(result)

    def test_single_entity_combination_is_finite(self):
        for counts in (
            EvidenceCounts(0, 0),
            EvidenceCounts(7, 0),
            EvidenceCounts(0, 7),
            EvidenceCounts(3, 3),
        ):
            result = EMLearner().fit([counts])
            self.assert_finite_fit(result)

    def test_extreme_count_spread_is_finite(self):
        evidence = [
            EvidenceCounts(10_000, 0),
            EvidenceCounts(0, 10_000),
            EvidenceCounts(0, 0),
            EvidenceCounts(1, 1),
        ]
        result = EMLearner().fit(evidence)
        self.assert_finite_fit(result)
        assert np.all(np.isfinite(result.trace.log_likelihoods))

    def test_identical_evidence_everywhere_is_finite(self):
        result = EMLearner().fit([EvidenceCounts(5, 5)] * 30)
        self.assert_finite_fit(result)

    def test_degraded_fallback_never_produces_nan(self):
        class NaNLearner(EMLearner):
            def _m_step(self, pos, neg, resp, weights=None):
                theta, _ = super()._m_step(pos, neg, resp, weights)
                return theta, float("nan")

        result = NaNLearner().fit(
            [EvidenceCounts(5, 0), EvidenceCounts(0, 5)]
        )
        assert result.trace.degraded
        self.assert_finite_fit(result)


class TestUniqueCountsBitIdentity:
    """The weighted unique-counts E/M path must be bit-identical to
    the dense per-entity path — same responsibilities, parameters,
    and convergence trace, down to the last ulp."""

    @pytest.fixture(autouse=True)
    def collapse_every_size(self, monkeypatch):
        # The learner collapses only large combinations by default;
        # here every combination of two or more entities does.
        monkeypatch.setattr(em, "_COLLAPSE_MIN_ENTITIES", 2)

    def assert_identical(self, evidence):
        dense = EMLearner(unique_counts=False, record_path=True).fit(
            evidence
        )
        unique = EMLearner(unique_counts=True, record_path=True).fit(
            evidence
        )
        assert np.array_equal(
            dense.responsibilities, unique.responsibilities
        )
        assert dense.parameters == unique.parameters
        assert (
            dense.trace.log_likelihoods == unique.trace.log_likelihoods
        )
        assert dense.trace.iterations == unique.trace.iterations
        assert dense.trace.converged == unique.trace.converged
        assert (
            dense.trace.parameters_path == unique.trace.parameters_path
        )

    def test_randomized_duplicate_heavy_evidence(self):
        """Web-shaped evidence: most pairs are silent, counts repeat."""
        for seed in range(10):
            rng = random.Random(seed)
            evidence = []
            for _ in range(rng.randint(1, 300)):
                if rng.random() < 0.7:
                    evidence.append(EvidenceCounts(0, 0))
                else:
                    evidence.append(
                        EvidenceCounts(
                            rng.randint(0, 12), rng.randint(0, 12)
                        )
                    )
            self.assert_identical(evidence)

    def test_all_zero_evidence(self):
        self.assert_identical([EvidenceCounts(0, 0)] * 25)

    def test_synthetic_generative_evidence(self):
        true = TrueParameters(0.9, 30.0, 4.0)
        evidence, _ = synthetic_evidence(true, 40, 80)
        self.assert_identical(evidence)

    def test_collapse_actually_triggers(self):
        """Heavy duplication: the unique path must really collapse
        (sanity-checked here) and still match bit for bit."""
        evidence = (
            [EvidenceCounts(3, 1)] * 10 + [EvidenceCounts(0, 0)] * 10
        )
        pos = np.array([e.positive for e in evidence], dtype=float)
        neg = np.array([e.negative for e in evidence], dtype=float)
        stacked = np.stack((pos, neg), axis=1)
        assert len(np.unique(stacked, axis=0)) < len(evidence)
        assert collapsed_rows(EMLearner(), evidence) == [2]
        self.assert_identical(evidence)

    def test_large_combinations_collapse_by_default(self, monkeypatch):
        monkeypatch.undo()
        rng = random.Random(3)
        evidence = [
            EvidenceCounts(0, 0)
            if rng.random() < 0.8
            else EvidenceCounts(rng.randint(0, 5), rng.randint(0, 2))
            for _ in range(em._COLLAPSE_MIN_ENTITIES)
        ]
        rows = collapsed_rows(EMLearner(), evidence)
        assert rows and rows[0] < len(evidence)
        assert collapsed_rows(EMLearner(), evidence[:-1]) == []
        self.assert_identical(evidence)


def collapsed_rows(learner: EMLearner, evidence) -> list[int]:
    """The weighted row counts the learner's M-steps saw (empty when
    it iterated one row per entity)."""
    seen: list[int] = []

    class Recording(type(learner)):
        def _m_step(self, pos, neg, resp, weights=None):
            if weights is not None:
                seen.append(len(weights))
            return super()._m_step(pos, neg, resp, weights)

    Recording(max_iterations=1).fit(evidence)
    return seen


def scalar_weighted_total(terms: np.ndarray, weights: np.ndarray) -> float:
    """The pair-by-pair reference: Dekker's product of each ``(w, t)``
    by the scalar :func:`_two_product`, then one ``fsum``."""
    parts: list[float] = []
    for w, t in zip(weights.tolist(), terms.tolist()):
        parts.extend(_two_product(w, t))
    return math.fsum(parts)


def mixed_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """Six rows of n terms: posteriors, counts, zeros, subnormal and
    huge magnitudes, mixed within and across rows."""
    kinds = rng.integers(0, 5, size=(6, n))
    return np.select(
        [kinds == 0, kinds == 1, kinds == 2, kinds == 3],
        [
            rng.random((6, n)),
            rng.integers(0, 50, size=(6, n)) * rng.random((6, n)),
            np.zeros((6, n)),
            rng.random((6, n)) * 1e-310,  # subnormal
        ],
        rng.random((6, n)) * 1e300,
    )


class TestVectorWeightedSums:
    """The one-pass Dekker expansion of every ``w x t`` product is the
    scalar :func:`_two_product`'s, bit for bit."""

    def test_random_rows_match_the_scalar_reference(self):
        rng = np.random.default_rng(2015)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            weights = rng.integers(1, 3001, size=n).astype(float)
            rows = mixed_rows(rng, n)
            vector = _weighted_totals(rows, weights)
            for row, total in zip(rows, vector):
                assert same_bits(
                    total, scalar_weighted_total(row, weights)
                )

    def test_unweighted_rows_are_fsums(self):
        rng = np.random.default_rng(7)
        rows = mixed_rows(rng, 50)
        assert _weighted_totals(rows, None) == [
            math.fsum(row) for row in rows.tolist()
        ]

    @pytest.mark.parametrize("n_entities", [5, 40, 300, 3000])
    def test_whole_fits_match_a_scalar_learner(self, n_entities):
        """Per-step log-factorials and pair-by-pair sums: the learner
        before the vector pass, down to the posterior bytes."""

        def log_pmf(counts, rate):
            return em._poisson_log_pmf_vec(
                counts, rate, gammaln(counts + 1.0)
            )

        class Scalar(EMLearner):
            def _e_step(self, pos, neg, theta):
                rates = theta.poisson_rates()
                log_pos = log_pmf(pos, rates.pos_given_pos) + log_pmf(
                    neg, rates.neg_given_pos
                )
                log_neg = log_pmf(pos, rates.pos_given_neg) + log_pmf(
                    neg, rates.neg_given_neg
                )
                delta = np.clip(log_neg - log_pos, -700.0, 700.0)
                return 1.0 / (1.0 + np.exp(delta))

            def _m_step(self, pos, neg, resp, weights=None):
                anti = 1.0 - resp
                terms = (
                    pos * resp, neg * resp, pos * anti, neg * anti,
                    resp, anti,
                )
                if weights is None:
                    weights = np.ones_like(resp)
                return scalar_grid_scan(
                    self._grid,
                    *(scalar_weighted_total(t, weights) for t in terms),
                )

        rng = random.Random(n_entities)
        for _ in range(5):
            evidence = [
                EvidenceCounts(0, 0)
                if rng.random() < 0.6
                else EvidenceCounts(rng.randint(0, 40), rng.randint(0, 9))
                for _ in range(n_entities)
            ]
            vector = EMLearner(record_path=True).fit(evidence)
            scalar = Scalar(record_path=True).fit(evidence)
            assert (
                vector.responsibilities.tobytes()
                == scalar.responsibilities.tobytes()
            )
            assert vector.parameters == scalar.parameters
            assert vector.trace == scalar.trace


def true_to_model(true: TrueParameters) -> ModelParameters:
    return ModelParameters(
        agreement=true.agreement,
        rate_positive=true.rate_positive,
        rate_negative=true.rate_negative,
    )


#: Small random evidence: 2-12 entities, each with 0-30 statements of
#: either polarity.
small_evidence = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    min_size=2,
    max_size=12,
)


def brute_force_q(pos, neg, resp, agreement, rate_pos, rate_neg):
    """Q' from its definition, broadcast over every grid point.

    Q' = sum_i r_i (c+_i log l++ - l++ + c-_i log l-+ - l-+)
       + (1 - r_i)(c+_i log l+- - l+- + c-_i log l-- - l--),
    with each rate floored as the learner floors it.
    """
    def term(count_weight, weight, rate):
        rate = np.maximum(rate, _RATE_FLOOR)
        return count_weight * np.log(rate) - weight * rate

    anti = 1.0 - resp
    return (
        term(pos @ resp, resp.sum(), agreement * rate_pos)
        + term(neg @ resp, resp.sum(), (1 - agreement) * rate_neg)
        + term(pos @ anti, anti.sum(), (1 - agreement) * rate_pos)
        + term(neg @ anti, anti.sum(), agreement * rate_neg)
    )


def scalar_q(theta, g_pp, g_np, g_pn, g_nn, g_pos, g_neg):
    """Q'(theta) for one parameter vector, from the g statistics, with
    the learner's rate floor."""
    rates = theta.poisson_rates()
    l_pp = max(rates.pos_given_pos, _RATE_FLOOR)
    l_np = max(rates.neg_given_pos, _RATE_FLOOR)
    l_pn = max(rates.pos_given_neg, _RATE_FLOOR)
    l_nn = max(rates.neg_given_neg, _RATE_FLOOR)
    log = np.log
    return float(
        g_pp * log(l_pp)
        - g_pos * l_pp
        + g_np * log(l_np)
        - g_pos * l_np
        + g_pn * log(l_pn)
        - g_neg * l_pn
        + g_nn * log(l_nn)
        - g_neg * l_nn
    )


def scalar_grid_scan(grid, g_pp, g_np, g_pn, g_nn, g_pos, g_neg):
    """The M-step's grid maximum as a scalar scan, one ``pA`` at a
    time: the reference the learner's vector pass must equal bit for
    bit."""
    best = None
    for p_a in grid:
        p_a = float(p_a)
        denom_pos = g_neg + p_a * (g_pos - g_neg)
        denom_neg = g_pos + p_a * (g_neg - g_pos)
        candidate = ModelParameters(
            agreement=p_a,
            rate_positive=max(
                (g_pp + g_pn) / denom_pos if denom_pos > 0 else 0.0,
                _RATE_FLOOR,
            ),
            rate_negative=max(
                (g_np + g_nn) / denom_neg if denom_neg > 0 else 0.0,
                _RATE_FLOOR,
            ),
        )
        score = scalar_q(candidate, g_pp, g_np, g_pn, g_nn, g_pos, g_neg)
        if best is None or score > best[1]:
            best = (candidate, score)
    return best


def same_bits(a: float, b: float) -> bool:
    """Equal to the last bit, or both NaN."""
    a, b = float(a), float(b)
    return (np.isnan(a) and np.isnan(b)) or a.hex() == b.hex()


GRID = np.asarray(DEFAULT_AGREEMENT_GRID, dtype=float)

any_float = st.floats(allow_nan=True, allow_infinity=True)
g_statistic = st.floats(0.0, 1e6)


class TestVectorMStep:
    """The vector grid pass against the scalar scan it replaced."""

    def assert_matches_scan(self, *g):
        theta, q = _grid_maximum(GRID, *g)
        reference, reference_q = scalar_grid_scan(GRID, *g)
        assert theta.agreement == reference.agreement
        assert same_bits(theta.rate_positive, reference.rate_positive)
        assert same_bits(theta.rate_negative, reference.rate_negative)
        assert same_bits(q, reference_q)
        return theta

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(g=st.tuples(*[g_statistic] * 6))
    def test_random_g_statistics(self, g):
        self.assert_matches_scan(*g)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(g=st.tuples(*[any_float] * 6))
    def test_any_floats_including_nan_and_inf(self, g):
        with np.errstate(all="ignore"):
            self.assert_matches_scan(*g)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(counts=small_evidence)
    def test_statistics_of_real_posteriors(self, counts):
        pos = np.array([p for p, _ in counts], dtype=float)
        neg = np.array([n for _, n in counts], dtype=float)
        resp = EMLearner()._e_step(pos, neg, DEFAULT_INITIAL_PARAMETERS)
        anti = 1.0 - resp
        self.assert_matches_scan(
            *_weighted_totals(
                np.array((
                    pos * resp, neg * resp, pos * anti, neg * anti,
                    resp, anti,
                )),
                None,
            )
        )

    def test_zero_denominators(self):
        # No posterior mass at all: both denominators are 0 at every
        # grid point, so every rate is floored.
        theta = self.assert_matches_scan(3.0, 2.0, 1.0, 4.0, 0.0, 0.0)
        assert theta.rate_positive == theta.rate_negative == _RATE_FLOOR

    def test_floor_clamped_rates(self):
        # No statements: the closed-form rates are 0, then floored.
        theta = self.assert_matches_scan(0.0, 0.0, 0.0, 0.0, 5.0, 7.0)
        assert theta.rate_positive == theta.rate_negative == _RATE_FLOOR

    def test_exact_ties_keep_the_first_grid_point(self):
        # Every rate floored and every Q' equal: the first pA wins.
        for g in ((0.0,) * 6, (0.0, 0.0, 0.0, 0.0, 5.0, 7.0)):
            theta = self.assert_matches_scan(*g)
            assert theta.agreement == GRID[0]

    def test_nan_statistics_pick_the_first_point(self):
        with np.errstate(all="ignore"):
            theta = self.assert_matches_scan(
                float("nan"), 1.0, 1.0, 1.0, 2.0, 2.0
            )
        assert theta.agreement == GRID[0]
        assert np.isnan(theta.rate_positive)

    def test_nan_posteriors_fall_back_to_majority_vote(self):
        class NaNPosteriors(EMLearner):
            def _e_step(self, pos, neg, theta):
                return np.full(pos.shape, np.nan)

        evidence = [EvidenceCounts(5, 0), EvidenceCounts(0, 5)]
        result = NaNPosteriors().fit(evidence)
        assert result.trace.degraded
        assert result.parameters == DEFAULT_INITIAL_PARAMETERS
        assert result.responsibilities.tolist() == [1.0, 0.0]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(counts=small_evidence)
    def test_whole_fit_matches_a_scalar_scan_learner(self, counts):
        class ScalarScan(EMLearner):
            def _m_step(self, pos, neg, resp, weights=None):
                anti = 1.0 - resp
                return scalar_grid_scan(
                    self._grid,
                    *_weighted_totals(
                        np.array((
                            pos * resp, neg * resp, pos * anti,
                            neg * anti, resp, anti,
                        )),
                        weights,
                    ),
                )

        evidence = [EvidenceCounts(p, n) for p, n in counts]
        vector = EMLearner(record_path=True).fit(evidence)
        scalar = ScalarScan(record_path=True).fit(evidence)
        assert vector.trace == scalar.trace
        assert vector.parameters == scalar.parameters
        assert (
            vector.responsibilities.tobytes()
            == scalar.responsibilities.tobytes()
        )


class TestOracle:
    """Algorithm 2 checked against brute force and its symmetries."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(counts=small_evidence)
    def test_fit_is_argmax_of_q_over_the_whole_grid(self, counts):
        evidence = [EvidenceCounts(p, n) for p, n in counts]
        learner = EMLearner(record_path=True)
        result = learner.fit(evidence)
        assume(not result.trace.degraded)
        pos = np.array([p for p, _ in counts], dtype=float)
        neg = np.array([n for _, n in counts], dtype=float)
        # The returned vector came from the M-step over the posteriors
        # of the vector before it.
        resp = learner._e_step(pos, neg, result.trace.parameters_path[-2])
        fitted = result.parameters
        # Every grid agreement value against rates from 1/55x to 55x
        # the fitted ones (the fitted rates themselves included).
        scale = np.exp(np.linspace(-4.0, 4.0, 81))
        q = brute_force_q(
            pos, neg, resp,
            np.asarray(DEFAULT_AGREEMENT_GRID)[:, None, None],
            fitted.rate_positive * scale[None, :, None],
            fitted.rate_negative * scale[None, None, :],
        )
        q_fit = brute_force_q(
            pos, neg, resp,
            fitted.agreement, fitted.rate_positive, fitted.rate_negative,
        )
        tolerance = 1e-9 * max(1.0, abs(q_fit))
        assert q.max() <= q_fit + tolerance
        best = np.unravel_index(np.argmax(q), q.shape)
        assert DEFAULT_AGREEMENT_GRID[best[0]] == fitted.agreement

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(counts=small_evidence)
    def test_swapping_polarities_mirrors_the_posterior(self, counts):
        """Swap every <C+, C-> and start EM from the mirrored guess:
        the fit mirrors and every posterior p becomes 1 - p. (From the
        same asymmetric default guess EM may settle elsewhere.)"""
        start = EMLearner().initial_parameters
        mirrored_start = ModelParameters(
            start.agreement, start.rate_negative, start.rate_positive
        )
        original = EMLearner().fit(
            [EvidenceCounts(p, n) for p, n in counts]
        )
        swapped = EMLearner(initial_parameters=mirrored_start).fit(
            [EvidenceCounts(n, p) for p, n in counts]
        )
        assume(not original.trace.degraded)
        assert swapped.parameters.agreement == original.parameters.agreement
        assert swapped.parameters.rate_positive == pytest.approx(
            original.parameters.rate_negative, rel=1e-9, abs=1e-12
        )
        np.testing.assert_allclose(
            swapped.responsibilities,
            1.0 - original.responsibilities,
            atol=1e-9,
        )
        model, mirror = original.model(), swapped.model()
        for p, n in counts:
            assert mirror.posterior_positive(
                EvidenceCounts(n, p)
            ) == pytest.approx(
                1.0 - model.posterior_positive(EvidenceCounts(p, n)),
                abs=1e-9,
            )

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        agreement=st.sampled_from(DEFAULT_AGREEMENT_GRID),
        rate=st.floats(1e-3, 1e3),
        tied=st.integers(0, 1000),
    )
    def test_exact_half_posterior_emits_no_opinion(
        self, agreement, rate, tied
    ):
        """Equal rates make every <c, c> tuple exactly undecided."""
        parameters = ModelParameters(agreement, rate, rate)
        undecided = EvidenceCounts(tied, tied)
        assert UserBehaviorModel(parameters).posterior_positive(
            undecided
        ) == 0.5
        emitted = self.mine(parameters, undecided, emit_undecided=False)
        assert ("/x/tied", KEY) not in emitted
        assert ("/x/leaning", KEY) in emitted
        kept = self.mine(parameters, undecided, emit_undecided=True)
        assert kept.get("/x/tied", KEY).probability == 0.5
        assert kept.get("/x/tied", KEY).polarity is Polarity.NEUTRAL

    def test_large_tied_counts_are_exactly_undecided(self):
        # Regression: the log-sum-exp posterior read 0.4999999999999138
        # here, so the pair was emitted as a negative opinion.
        model = UserBehaviorModel(ModelParameters(0.99, 1000.0, 1000.0))
        assert model.posterior_positive(EvidenceCounts(1000, 1000)) == 0.5

    @staticmethod
    def mine(parameters, undecided, emit_undecided):
        fit = FittedCombination(
            key=KEY,
            parameters=parameters,
            trace=EMTrace(
                iterations=1,
                converged=True,
                log_likelihoods=(0.0,),
                parameters_path=(),
            ),
            n_entities=2,
            n_statements=undecided.total + 1,
        )
        surveyor = Surveyor(
            catalog=_NoCatalog(),
            occurrence_threshold=0,
            emit_undecided=emit_undecided,
        )
        evidence = {
            KEY: {
                "/x/tied": undecided,
                "/x/leaning": EvidenceCounts(undecided.positive + 1,
                                             undecided.negative),
            }
        }
        return surveyor.run(evidence, fit=lambda key, per_entity: fit).opinions


KEY = PropertyTypeKey(
    property=SubjectiveProperty.parse("cute"), entity_type="x"
)


class _NoCatalog:
    def entity_ids_of_type(self, entity_type):
        return ()

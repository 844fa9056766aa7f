"""Expectation-maximization learning of the model parameters (Section 6).

Algorithm 2 of the paper: alternate between computing posterior opinion
probabilities ``r+_i = Pr(D_i = + | theta, E_i)`` (E-step) and choosing
the parameter vector that maximizes the expected complete-data
log-likelihood ``Q_k`` (M-step). The paper derives a closed-form M-step:
for a fixed agreement value ``pA`` drawn from a small grid, the optimal
statement rates are

    n*p+S = (g++ + g+-) / (g- + pA*g+ - pA*g-)
    n*p-S = (g-+ + g--) / (g+ + pA*g- - pA*g+)

where the ``g`` statistics are responsibility-weighted count sums. Each
iteration is O(m) in the number of entities, which is what let the
authors process 380,000 property-type pairs in ten minutes.

The implementation is vectorized with numpy: the per-entity state is
three aligned arrays (positive counts, negative counts,
responsibilities), and the M-step scores the whole ``pA`` grid in one
array pass, bit-identical to scanning it point by point.

By default the E/M iterations of a combination with many entities run
over *unique* ``<C+, C->`` rows with multiplicity weights rather than
one row per entity — most entities of a combination have the all-zero
tuple, so this collapses the per-iteration cost from O(entities) to
O(distinct tuples). A small combination iterates one row per entity,
where numpy's per-call overhead, not the row count, is the cost. The
result is
bit-identical to the dense path: the E-step is elementwise (equal rows
get equal posteriors), and every M-step statistic is an exactly-rounded
sum (``math.fsum``) — on the weighted path each ``weight x term``
product enters the sum as an exact two-float expansion (Dekker's
two-product), so both paths round the same exact rational value once.

Each iteration is a fixed handful of numpy calls, whatever the row
count: the E-step takes all four Poisson log-pmfs from one stacked
pass with ``gammaln(c + 1)`` computed once per fit, and the M-step
expands the six weighted statistics in one ``(6, n)`` pass and scores
the whole ``pA`` grid in another.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from ..obs.trace import NULL_SPAN
from .errors import ModelFitError
from .model import UserBehaviorModel
from .params import (
    DEFAULT_AGREEMENT_GRID,
    DEFAULT_INITIAL_PARAMETERS,
    ModelParameters,
)
from .types import EvidenceBlock, EvidenceCounts

_RATE_FLOOR = 1e-9

#: Veltkamp splitting constant for binary64: 2**27 + 1.
_SPLIT = 134217729.0

#: Fits of fewer entities iterate one row per entity: below this size
#: collapsing to unique rows costs more numpy calls (np.unique, the
#: Dekker expansion) than the shorter rows save. The two paths are
#: bit-identical; on web-shaped evidence the crossover is at ~150-250
#: entities.
_COLLAPSE_MIN_ENTITIES = 192


@dataclass(frozen=True, slots=True)
class EMTrace:
    """Diagnostics for one EM run.

    ``degraded`` flags a run whose fit was numerically degenerate
    (NaN/inf parameters, posteriors, or likelihood); the learner then
    fell back to the majority-vote baseline for the combination.
    """

    iterations: int
    converged: bool
    log_likelihoods: tuple[float, ...]
    parameters_path: tuple[ModelParameters, ...]
    degraded: bool = False

    @property
    def final_log_likelihood(self) -> float:
        return self.log_likelihoods[-1]

    @property
    def verdict(self) -> str:
        """Telemetry verdict: how this fit ended.

        ``converged`` | ``max-iterations`` | ``degraded-fallback`` —
        the vocabulary used by convergence records and ``repro stats``.
        """
        if self.degraded:
            return "degraded-fallback"
        if self.converged:
            return "converged"
        return "max-iterations"


@dataclass(frozen=True, slots=True)
class EMResult:
    """Learned parameters plus per-entity posteriors and diagnostics."""

    parameters: ModelParameters
    responsibilities: np.ndarray
    trace: EMTrace

    def model(self) -> UserBehaviorModel:
        return UserBehaviorModel(self.parameters)


@dataclass
class EMLearner:
    """Fits :class:`ModelParameters` to one property-type's evidence.

    Parameters
    ----------
    agreement_grid:
        Fixed set of ``pA`` values tried in each M-step (paper
        Section 6). Values must lie in ``(0, 1)``; values at or below
        0.5 make the dominant-opinion labels unidentifiable and values
        of exactly 1 degenerate the negative-rate denominator, so both
        are rejected.
    max_iterations:
        Upper bound ``X`` on EM iterations.
    tolerance:
        Convergence threshold on the change in expected log-likelihood.
    initial_parameters:
        Algorithm 2's initial guess ``theta_0``.
    record_path:
        Keep the per-iteration parameter vectors on the trace —
        required for the ``pA``/``np+S``/``np−S`` trajectories in
        convergence telemetry.
    unique_counts:
        Iterate over unique ``<C+, C->`` tuples with multiplicity
        weights instead of one row per entity (default on; applied
        from :data:`_COLLAPSE_MIN_ENTITIES` entities up). Posteriors
        and the full convergence path are bit-identical either way;
        see the module docstring for why.
    tracer:
        Optional span tracer (anything with a ``span(name, **attrs)``
        context manager). When set, each EM iteration opens an
        ``em_iteration`` span carrying the iteration's expected
        log-likelihood and chosen agreement value.
    """

    agreement_grid: Sequence[float] = DEFAULT_AGREEMENT_GRID
    max_iterations: int = 50
    tolerance: float = 1e-7
    initial_parameters: ModelParameters = DEFAULT_INITIAL_PARAMETERS
    record_path: bool = False
    unique_counts: bool = True
    tracer: object | None = field(default=None, repr=False)
    _grid: np.ndarray = field(init=False, repr=False)
    # (pos, neg, stacked counts, their gammaln(c + 1)) of the fit in
    # progress; see _e_step.
    _stacked: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        grid = np.asarray(sorted(set(self.agreement_grid)), dtype=float)
        if grid.size == 0:
            raise ValueError("agreement grid must be non-empty")
        if np.any(grid <= 0.5) or np.any(grid >= 1.0):
            raise ValueError("agreement grid values must lie in (0.5, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self._grid = grid

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def fit(
        self, evidence: Iterable[EvidenceCounts] | EvidenceBlock
    ) -> EMResult:
        """Run EM over the evidence of all entities of one type.

        The evidence (tuples, or a block's columns) must cover every
        entity *including* entities with zero counts — the paper
        stresses that absence of mentions is itself evidence.
        """
        pos, neg = _counts_to_arrays(evidence)
        if pos.size == 0:
            raise ModelFitError(
                "evidence must contain at least one entity"
            )

        # Collapse duplicate <C+, C-> tuples into weighted unique rows;
        # ``inverse`` expands per-row posteriors back to per-entity
        # order on return.
        weights: np.ndarray | None = None
        inverse: np.ndarray | None = None
        if self.unique_counts and pos.size >= _COLLAPSE_MIN_ENTITIES:
            # One complex key per row: numpy sorts complex numbers by
            # real part, then imaginary part, so the unique keys are
            # the unique (C+, C-) rows in np.unique(axis=0)'s order.
            keys = np.empty(pos.shape, dtype=complex)
            keys.real = pos
            keys.imag = neg
            unique, inverse, multiplicity = np.unique(
                keys, return_inverse=True, return_counts=True
            )
            if unique.shape[0] < pos.shape[0]:
                pos = np.ascontiguousarray(unique.real)
                neg = np.ascontiguousarray(unique.imag)
                weights = multiplicity.astype(float)
            else:
                inverse = None

        theta = self.initial_parameters
        log_likelihoods: list[float] = []
        path: list[ModelParameters] = [theta] if self.record_path else []
        responsibilities = np.full(pos.shape, 0.5)
        converged = False
        iterations = 0
        degraded = False

        try:
            for iterations in range(1, self.max_iterations + 1):
                with self._iteration_span(iterations) as span:
                    responsibilities = self._e_step(pos, neg, theta)
                    theta, expected_ll = self._m_step(
                        pos, neg, responsibilities, weights
                    )
                    span.set("log_likelihood", expected_ll)
                    span.set("agreement", theta.agreement)
                log_likelihoods.append(expected_ll)
                if self.record_path:
                    path.append(theta)
                if (
                    len(log_likelihoods) >= 2
                    and abs(log_likelihoods[-1] - log_likelihoods[-2])
                    <= self.tolerance
                ):
                    converged = True
                    break

            # Final E-step so the posteriors reflect the returned
            # parameters.
            responsibilities = self._e_step(pos, neg, theta)
        except (FloatingPointError, ValueError, ZeroDivisionError):
            # A parameter went NaN/inf mid-iteration (ModelParameters
            # validation rejects such vectors); treat as degenerate.
            degraded = True
        if not degraded and _fit_is_degenerate(
            theta, responsibilities, log_likelihoods
        ):
            degraded = True
        if degraded:
            theta, responsibilities = self._majority_fallback(pos, neg)
            converged = False
        self._stacked = None
        if inverse is not None:
            responsibilities = responsibilities[inverse]
        trace = EMTrace(
            iterations=iterations,
            converged=converged,
            log_likelihoods=tuple(log_likelihoods),
            parameters_path=tuple(path),
            degraded=degraded,
        )
        return EMResult(
            parameters=theta, responsibilities=responsibilities, trace=trace
        )

    def _iteration_span(self, iteration: int):
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(
            "em_iteration", kind="em_iteration", iteration=iteration
        )

    def _majority_fallback(
        self, pos: np.ndarray, neg: np.ndarray
    ) -> tuple[ModelParameters, np.ndarray]:
        """Degenerate-fit fallback: majority vote per entity.

        Posteriors become hard votes (1 when positive counts dominate,
        0 when negative, 0.5 on ties) and the parameters revert to the
        initial guess — a usable, clearly-flagged answer instead of a
        NaN-poisoned one.
        """
        responsibilities = np.where(
            pos > neg, 1.0, np.where(neg > pos, 0.0, 0.5)
        )
        return self.initial_parameters, responsibilities

    # ------------------------------------------------------------------
    # E-step
    # ------------------------------------------------------------------
    def _e_step(
        self, pos: np.ndarray, neg: np.ndarray, theta: ModelParameters
    ) -> np.ndarray:
        """Vectorized ``r+_i = Pr(D_i = + | theta, E_i)`` with uniform
        prior.

        The stacked counts and their ``gammaln(c + 1)`` are the same in
        every E-step of a fit, so they are kept against the count
        arrays they came from and built once per fit.
        """
        stacked = self._stacked
        if stacked is None or stacked[0] is not pos or stacked[1] is not neg:
            counts = np.array((pos, neg, pos, neg))
            stacked = (pos, neg, counts, gammaln(counts + 1.0))
            self._stacked = stacked
        return _posteriors(stacked[2], stacked[3], theta)

    # ------------------------------------------------------------------
    # M-step
    # ------------------------------------------------------------------
    def _m_step(
        self,
        pos: np.ndarray,
        neg: np.ndarray,
        resp: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> tuple[ModelParameters, float]:
        """Closed-form maximization of Q' over the agreement grid.

        Returns the best parameter vector together with its Q' value
        (used as the convergence signal; Q' differs from the true
        expected log-likelihood only by theta-independent constants).

        Every g statistic is the exactly-rounded sum of its per-row
        terms, so collapsing equal rows into one weighted row (the
        ``weights`` path) yields bit-identical values: the exact sum
        of ``w`` equal terms equals the exact ``w x term`` product.
        """
        anti = 1.0 - resp
        return _grid_maximum(
            self._grid,
            *_weighted_totals(
                np.array((
                    pos * resp, neg * resp, pos * anti, neg * anti,
                    resp, anti,
                )),
                weights,
            ),
        )


def _posteriors(
    counts: np.ndarray, log_factorials: np.ndarray, theta: ModelParameters
) -> np.ndarray:
    """The E-step over ``counts`` = rows (C+, C-, C+, C-), each against
    its Poisson rate of ``theta`` (the two under D=+, then the two under
    D=-), given ``log_factorials = gammaln(counts + 1)``.

    All four log-pmfs come from one pass over the stacked rows; each
    element takes the operations of the one-rate form,
    ``c * log(rate) - rate - gammaln(c + 1)``.
    """
    rates = theta.poisson_rates()
    column = (
        rates.pos_given_pos, rates.neg_given_pos,
        rates.pos_given_neg, rates.neg_given_neg,
    )
    if not min(column) > 0.0:  # a zero, negative or NaN rate
        terms = np.array([
            _poisson_log_pmf_vec(row, rate, log_factorial)
            for row, rate, log_factorial in zip(
                counts, column, log_factorials
            )
        ])
    else:
        column = np.array(column)[:, np.newaxis]
        terms = counts * np.log(column) - column - log_factorials
    log_likelihood = terms[0::2] + terms[1::2]  # (under D=+, under D=-)
    # Stable sigmoid of the log-odds, clipped to [-700, 700].
    delta = log_likelihood[1] - log_likelihood[0]
    np.maximum(delta, -700.0, out=delta)
    np.minimum(delta, 700.0, out=delta)
    return 1.0 / (1.0 + np.exp(delta))


def _grid_maximum(
    grid: np.ndarray,
    g_pp: float,
    g_np: float,
    g_pn: float,
    g_nn: float,
    g_pos: float,
    g_neg: float,
) -> tuple[ModelParameters, float]:
    """The M-step's choice from the g statistics: the closed-form rates
    and Q' at every ``pA`` of the grid, then the first maximum.

    One vector pass, the two rates and the four Poisson rates of Q'
    stacked as rows; each element goes through the same IEEE
    operations in the same order as a scalar scan of the grid would,
    so the choice and its Q' are bit-identical to that scan's.

    Q' = sum_i [ r_i (c+_i log l++ - l++ + c-_i log l-+ - l-+)
               + (1-r_i)(c+_i log l+- - l+- + c-_i log l-- - l--) ]
    collapses onto the g statistics. The Poisson rates are
    :meth:`ModelParameters.poisson_rates`'s, floored.
    """
    column = np.array([
        g_neg, g_pos,  # the denominators' constant terms
        g_pos - g_neg, g_neg - g_pos,  # ... and their pA factors
        g_pp + g_pn, g_np + g_nn,  # the numerators
        g_pp, g_np, g_pn, g_nn,  # the weights of log l++ .. log l--
        g_pos, g_pos, g_neg, g_neg,  # the weights of l++ .. l--
    ])[:, np.newaxis]
    # Rows: n*p+S, then n*p-S.
    denominators = column[0:2] + grid * column[2:4]
    rates = np.zeros(denominators.shape)
    np.divide(
        column[4:6], denominators, out=rates, where=denominators > 0
    )
    np.maximum(rates, _RATE_FLOOR, out=rates)
    disagreement = 1.0 - grid
    # Rows: l++ = pA n*p+S, l-+ = (1-pA) n*p-S, l+- = (1-pA) n*p+S,
    # l-- = pA n*p-S.
    poisson = np.array((grid, disagreement, disagreement, grid))
    poisson *= rates[[0, 1, 0, 1]]
    np.maximum(poisson, _RATE_FLOOR, out=poisson)
    weighted_logs = column[6:10] * np.log(poisson)
    weighted_rates = column[10:14] * poisson
    scores = weighted_logs[0] - weighted_rates[0]
    for row in range(1, 4):
        scores += weighted_logs[row]
        scores -= weighted_rates[row]
    best = _first_maximum(scores)
    theta = ModelParameters(
        agreement=float(grid[best]),
        rate_positive=float(rates[0, best]),
        rate_negative=float(rates[1, best]),
    )
    return theta, float(scores[best])


def _first_maximum(scores: np.ndarray) -> int:
    """The index a scalar scan keeping the first strictly greater
    score picks: NaN never wins, except at index 0, which nothing
    beats."""
    values = scores.tolist()
    best, top = 0, values[0]
    for index, value in enumerate(values):
        if value > top:
            best, top = index, value
    return best


def _fit_is_degenerate(
    theta: ModelParameters,
    responsibilities: np.ndarray,
    log_likelihoods: Sequence[float],
) -> bool:
    """Whether a finished fit is numerically unusable (NaN/inf)."""
    for value in (
        theta.agreement, theta.rate_positive, theta.rate_negative
    ):
        if not math.isfinite(value):
            return True
    if not bool(np.all(np.isfinite(responsibilities))):
        return True
    if log_likelihoods and not math.isfinite(log_likelihoods[-1]):
        return True
    return False


def _two_product(a: float, b: float) -> tuple[float, float]:
    """Dekker's exact product: ``a*b == p + err`` with no rounding.

    The split halves each operand at 26 bits so the partial products
    are exact; used because ``math.fma`` is not available on every
    supported interpreter.
    """
    p = a * b
    a_hi = a * _SPLIT
    a_hi = a_hi - (a_hi - a)
    a_lo = a - a_hi
    b_hi = b * _SPLIT
    b_hi = b_hi - (b_hi - b)
    b_lo = b - b_hi
    err = (
        ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    )
    return p, err


def _weighted_totals(
    rows: np.ndarray, weights: np.ndarray | None
) -> list[float]:
    """Exactly-rounded (optionally weighted) sum of each row of the
    2-D ``rows``.

    Unweighted, this is ``fsum`` — the correctly-rounded sum of the
    terms. Weighted, each ``w x t`` product joins the summation as an
    exact two-float expansion, so the result is the correctly-rounded
    value of ``sum(w_u * t_u)`` — bit-identical to ``fsum`` over the
    expanded multiset where each ``t_u`` appears ``w_u`` times.

    The expansions of every row come from one elementwise pass: the
    same IEEE operations, in the same order, as :func:`_two_product`
    on each ``(w, t)`` pair. ``fsum`` rounds the exact sum of its
    inputs whatever their order (short of an intermediate overflow),
    so summing a row's products and then its errors gives the bits of
    summing them pair by pair.
    """
    if weights is None:
        return [math.fsum(row) for row in rows.tolist()]
    with np.errstate(all="ignore"):  # Python floats never trap
        p = weights * rows
        w_hi = weights * _SPLIT
        w_hi = w_hi - (w_hi - weights)
        w_lo = weights - w_hi
        t_hi = rows * _SPLIT
        t_hi = t_hi - (t_hi - rows)
        t_lo = rows - t_hi
        err = (
            ((w_hi * t_hi - p) + w_hi * t_lo + w_lo * t_hi)
            + w_lo * t_lo
        )
    return [
        math.fsum(row)
        for row in np.concatenate((p, err), axis=1).tolist()
    ]


def _counts_to_arrays(
    evidence: Iterable[EvidenceCounts] | EvidenceBlock,
) -> tuple[np.ndarray, np.ndarray]:
    """Evidence to aligned (positive, negative) float arrays: a
    block's columns, or the tuples' counts in order."""
    if isinstance(evidence, EvidenceBlock):
        pos, neg = evidence.positive, evidence.negative
    else:
        pos, neg = [], []
        for counts in evidence:
            pos.append(counts.positive)
            neg.append(counts.negative)
    return np.array(pos, dtype=float), np.array(neg, dtype=float)


def _poisson_log_pmf_vec(
    counts: np.ndarray, rate: float, log_factorial: np.ndarray
) -> np.ndarray:
    """Vectorized Poisson log-pmf given ``gammaln(counts + 1)``;
    mirrors :func:`repro.core.poisson`."""
    if rate <= 0.0:
        return np.where(counts == 0, 0.0, -np.inf)
    return counts * np.log(rate) - rate - log_factorial

"""Figure 6 — the two count distributions implied by Example 3.

Paper: with pA=0.9, np+S=100, np-S=5 the joint distribution over
(C+, C-) given D=+ peaks near (90, 0.5) and given D=- near (10, 4.5);
the evidence tuple <60, 3> is far more likely under D=+.

The benchmark evaluates the model's joint log-probability over the
grid the paper plots (C+ in 0..100, C- in 0..10) and checks the modes
and the <60, 3> classification.
"""

from __future__ import annotations

import numpy as np
from _report import emit

from repro.core import EvidenceCounts, ModelParameters, UserBehaviorModel

PARAMS = ModelParameters(agreement=0.9, rate_positive=100.0, rate_negative=5.0)


def grid_log_probabilities(positive_dominant: bool) -> np.ndarray:
    model = UserBehaviorModel(PARAMS)
    grid = np.empty((101, 11))
    for positive in range(101):
        for negative in range(11):
            grid[positive, negative] = model.log_likelihood(
                EvidenceCounts(positive, negative), positive_dominant
            )
    return grid


def bench_fig6_grids(benchmark):
    def compute():
        return grid_log_probabilities(True), grid_log_probabilities(False)

    grid_pos, grid_neg = benchmark(compute)

    mode_pos = np.unravel_index(np.argmax(grid_pos), grid_pos.shape)
    mode_neg = np.unravel_index(np.argmax(grid_neg), grid_neg.shape)
    model = UserBehaviorModel(PARAMS)
    example = EvidenceCounts(60, 3)
    posterior = model.posterior_positive(example)

    lines = [
        "Figure 6 — joint count distributions (Example 3 parameters)",
        f"lambda++ = 90, lambda-+ = 0.5, lambda+- = 10, lambda-- = 4.5",
        f"mode of Pr(C+, C- | D=+): {mode_pos}",
        f"mode of Pr(C+, C- | D=-): {mode_neg}",
        f"Pr(D=+ | C=<60,3>) = {posterior:.6f}",
    ]
    emit("fig6_distributions", lines)

    # D=+ mode near (90, 0); D=- mode near (10, 4).
    assert abs(mode_pos[0] - 90) <= 2
    assert mode_pos[1] <= 1
    assert abs(mode_neg[0] - 10) <= 2
    assert abs(mode_neg[1] - 4) <= 1
    # The paper's example point is decidedly positive.
    assert posterior > 0.999

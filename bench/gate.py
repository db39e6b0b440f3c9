"""Statistical gates for simulated fields that hold for any seed.

A correct exact simulator gives standard Frechet margins and, for a site
pair at lag t, ``1/max(X_s, X_t)`` exponential with rate ``theta(t) =
2 - chi(t)``.  The gates turn each comparison into a z (or t) statistic and
judge the whole family of comparisons in a run against one Bonferroni
bound, so the chance that a correct engine fails a run is at most
``FAMILY_ALPHA`` whatever the seed, while a biased engine drifts by many
standard errors and fails.  A fixed band such as 0.02 cannot do both: at
n = 1e4 it is about one standard error per lag.

Nothing here imports ``tailcorr``: the gates take plain arrays, so the
benchmark's tests can feed them deliberately biased input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

#: Chance that a correct engine fails one gate in one run, whatever the seed.
FAMILY_ALPHA = 1e-5


@dataclass(frozen=True)
class Verdict:
    """Outcome of one family of comparisons."""

    passed: bool
    worst: float      # largest |statistic| in the family
    bound: float      # the family-wise critical value it was held to
    size: int         # number of comparisons in the family
    worst_label: str

    def describe(self) -> str:
        return (f"max |z| {self.worst:.2f} ({self.worst_label}) vs bound "
                f"{self.bound:.2f} over {self.size} comparisons")


def z_bound(size: int, alpha: float = FAMILY_ALPHA) -> float:
    """Two-sided normal critical value for ``size`` comparisons."""
    return float(stats.norm.isf(alpha / (2.0 * max(size, 1))))


def pair_chi(values: np.ndarray, i: int, j: int) -> tuple[float, float]:
    """Unclipped ``chi_hat`` and its delta-method standard error for sites
    ``i`` and ``j`` of Frechet fields stacked as ``(n, sites)``."""
    reciprocals = 1.0 / np.maximum(values[:, i], values[:, j])
    n = reciprocals.size
    theta = 1.0 / float(reciprocals.mean())
    std_err = theta * theta * float(reciprocals.std(ddof=1)) / math.sqrt(n)
    return 2.0 - theta, std_err


def judge_z(rows: list[tuple[str, float, float, float]],
            alpha: float = FAMILY_ALPHA) -> Verdict:
    """Judge ``(label, estimate, std_err, truth)`` rows as one family."""
    bound = z_bound(len(rows), alpha)
    worst, label = 0.0, ""
    for name, estimate, std_err, truth in rows:
        z = abs(estimate - truth) / std_err if std_err > 0 else (
            0.0 if estimate == truth else math.inf)
        if z >= worst:
            worst, label = z, name
    return Verdict(worst <= bound, worst, bound, len(rows), label)


def chi_rows(label: str, values: np.ndarray, pairs: list[tuple[int, int]],
             lags: list[float], truths: list[float]
             ) -> list[tuple[str, float, float, float]]:
    """Gate rows for one class: one per lag, from its site pair."""
    rows = []
    for (i, j), lag, truth in zip(pairs, lags, truths):
        chi_hat, std_err = pair_chi(values, i, j)
        rows.append((f"{label}@{lag:g}", chi_hat, std_err, truth))
    return rows


def mean_inverse_rows(label: str, values: np.ndarray
                      ) -> tuple[str, float, float, int]:
    """``(label, mean, std_err, dof)`` of per-realization means of ``1/X``.

    Sites of one realization are dependent, so the standard error comes
    from the spread of the per-realization means, which needs no model of
    that dependence.
    """
    means = (1.0 / values).mean(axis=1)
    k = means.size
    std_err = float(means.std(ddof=1)) / math.sqrt(k) if k > 1 else math.inf
    return label, float(means.mean()), std_err, k - 1


def judge_mean_inverse(rows: list[tuple[str, float, float, int]],
                       alpha: float = FAMILY_ALPHA) -> Verdict:
    """Student-t test of mean(1/X) = 1 per class, Bonferroni over classes."""
    size = len(rows)
    passed, worst, worst_bound, label = True, 0.0, 0.0, ""
    for name, mean, std_err, dof in rows:
        if dof < 1:
            continue
        t = abs(mean - 1.0) / std_err
        bound = float(stats.t.isf(alpha / (2.0 * size), dof))
        passed &= t <= bound
        if t / bound >= (worst / worst_bound if worst_bound else 0.0):
            worst, worst_bound, label = t, bound, name
    return Verdict(passed, worst, worst_bound, size, label)

"""Shared estimators: Hill tail index, moment verdicts, KS / chi-square
and exact binomial confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass
class TailIndexEstimate:
    index: float
    ci_low: float
    ci_high: float
    k: int
    n: int


class NoTailError(ValueError):
    """Raised when the upper order statistics carry no spread."""


def hill(samples, k: int | None = None) -> TailIndexEstimate:
    """Classical Hill estimator on the k largest order statistics.

    The returned index alpha estimates P[X > x] ~ x^{-alpha}; its CI uses
    the asymptotic normality index * (1 +- 1.96/sqrt(k)).  Default
    k = floor(sqrt(n)).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ParameterError("samples must be a nonempty 1-d array")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ParameterError("Hill estimation needs positive finite samples")
    n = len(x)
    if k is None:
        k = int(np.sqrt(n))
    if k < 10 or k > n // 2:
        raise ParameterError(f"k={k} outside [10, n/2] for n={n}")
    xs = np.sort(x)
    top = xs[n - k:]
    ref = xs[n - k - 1]
    h = float(np.mean(np.log(top) - np.log(ref)))
    if h <= 0.0:
        raise NoTailError("upper order statistics are constant; no tail to fit")
    idx = 1.0 / h
    half = 1.96 / np.sqrt(k)
    return TailIndexEstimate(idx, idx * (1 - half), idx * (1 + half), k, n)


def moment_verdict(samples, alpha: float,
                   k: int | None = None) -> tuple[str, TailIndexEstimate | None]:
    """Decide whether E[X^alpha] looks finite from a heavy-tail fit.

    appears-finite when the Hill CI lower bound is >= alpha + 0.25;
    appears-infinite when the CI cannot exclude a tail index <= alpha
    (note the moment already diverges AT index alpha, so estimates
    hovering around alpha are divergence evidence); the narrow band in
    between is inconclusive.  Samples whose top order statistics carry no
    spread are bounded, hence finite.
    """
    x = np.asarray(samples, dtype=float)
    if np.any(x < 0):
        raise ParameterError("samples must be nonnegative")
    x = x[x > 0]
    if len(x) < 30:
        return "inconclusive", None
    try:
        est = hill(x, k)
    except NoTailError:
        return "moment-appears-finite", None
    except ValueError:
        return "inconclusive", None
    if est.ci_low >= alpha + 0.25:
        return "moment-appears-finite", est
    if est.ci_low <= alpha:
        return "moment-appears-infinite", est
    return "inconclusive", est


def binomial_ci(k: int, n: int) -> tuple[float, float]:
    """Exact (Clopper-Pearson) 95% interval for a proportion of k in n.

    It keeps a positive width at k = 0 and k = n, where a normal-theory
    interval collapses to a point; both bounds are NaN when n == 0.
    """
    if n == 0:
        return float("nan"), float("nan")
    from scipy import special     # betaincinv is what beta.ppf evaluates
    lo = special.betaincinv(k, n - k + 1, 0.025) if k > 0 else 0.0
    hi = special.betaincinv(k + 1, n - k, 0.975) if k < n else 1.0
    return float(lo), float(hi)


def ks_two_sample(a, b, level: float = 0.01) -> tuple[float, float]:
    """Two-sample KS statistic and its critical value at the given level."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ParameterError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / n
    fb = np.searchsorted(b, grid, side="right") / m
    stat = float(np.max(np.abs(fa - fb)))
    c = np.sqrt(-np.log(level / 2.0) / 2.0)
    return stat, float(c * np.sqrt((n + m) / (n * m)))


def chi_square_geometric(counts, q: float) -> tuple[float, int, float]:
    """Chi-square GOF of positive-integer counts against Geometric(q).

    Bins 1, 2, ... are merged into a final tail bin once the expected count
    drops below 5.  Returns (statistic, dof, p-value).
    """
    c = np.asarray(counts)
    if c.size and c.min() < 1:
        raise ParameterError("geometric counts start at 1")
    if q >= 1.0:
        # degenerate law: every count must be exactly 1
        return (0.0, 0, 1.0) if np.all(c == 1) else (float("inf"), 0, 0.0)
    if q <= 0.0:
        raise ParameterError("q must be positive")
    n = len(c)
    bins = []
    j = 1
    while True:
        pj = q * (1 - q) ** (j - 1)
        tail = (1 - q) ** j
        if n * tail < 5.0 or j > 10_000:
            break
        bins.append(pj)
        j += 1
    if not bins:
        return 0.0, 0, 1.0
    k = len(bins)
    probs = np.array(bins + [(1 - q) ** k])
    obs = np.bincount(np.minimum(c, k + 1), minlength=k + 2)[1:]   # 1..k, then > k
    exp = n * probs
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(probs) - 1
    from scipy import special     # chdtrc is what chi2.sf evaluates
    return stat, dof, float(special.chdtrc(dof, stat))

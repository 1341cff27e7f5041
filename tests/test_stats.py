import numpy as np
import pytest

from rwre import stats


def _pareto(alpha, n, rs):
    return rs.uniform(size=n) ** (-1.0 / alpha)


def test_hill_recovers_pareto_indices():
    rs = np.random.RandomState(0)
    for alpha in (0.5, 1.0, 2.0):
        hits = 0
        for _ in range(100):
            est = stats.hill(_pareto(alpha, 100_000, rs), k=1000)
            if est.ci_low <= alpha <= est.ci_high:
                hits += 1
        assert hits >= 95, (alpha, hits)


def test_hill_exponential_drifts_with_k():
    # light tails have no stable index: the estimate tracks the threshold,
    # drifting across k instead of settling (reported, never asserted as a
    # tail index)
    rs = np.random.RandomState(1)
    x = rs.exponential(size=100_000)
    small_k = stats.hill(x, k=100).index
    large_k = stats.hill(x, k=5000).index
    assert small_k > 2.0 and large_k > 2.0
    assert abs(small_k - large_k) > 0.5


def test_hill_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.hill(np.array([1.0, -2.0, 3.0] * 20))
    with pytest.raises(stats.NoTailError):
        stats.hill(np.ones(1000))
    with pytest.raises(ValueError):
        stats.hill(np.arange(1, 30, dtype=float), k=5)  # k below 10


def test_hill_default_k():
    est = stats.hill(_pareto(1.0, 10_000, np.random.RandomState(2)))
    assert est.k == 100 and est.n == 10_000


def test_moment_verdict_cases():
    rs = np.random.RandomState(3)
    v, _ = stats.moment_verdict(_pareto(0.6, 50_000, rs), 1.0)
    assert v == "moment-appears-infinite"
    v, _ = stats.moment_verdict(_pareto(3.0, 50_000, rs), 1.0)
    assert v == "moment-appears-finite"
    v, est = stats.moment_verdict(np.full(1000, 7.0), 1.0)
    assert v == "moment-appears-finite" and est is None
    v, _ = stats.moment_verdict(np.ones(10), 1.0)
    assert v == "inconclusive"
    with pytest.raises(ValueError):
        stats.moment_verdict(np.array([-1.0] * 100), 1.0)


def test_moment_verdict_index_at_alpha_is_infinite():
    # the moment diverges at tail index exactly alpha
    rs = np.random.RandomState(4)
    v, _ = stats.moment_verdict(_pareto(1.0, 100_000, rs), 1.0, k=300)
    assert v == "moment-appears-infinite"


def test_ks_two_sample():
    rs = np.random.RandomState(6)
    a, b = rs.normal(size=30_000), rs.normal(size=30_000)
    stat, crit = stats.ks_two_sample(a, b)
    assert stat < crit
    c = rs.normal(0.25, 1.0, size=30_000)
    stat2, crit2 = stats.ks_two_sample(a, c)
    assert stat2 > crit2
    # critical value formula: c(0.01) = 1.6276...
    assert crit == pytest.approx(1.6276 * np.sqrt(2 / 30_000), rel=1e-3)


def test_chi_square_geometric():
    rs = np.random.RandomState(7)
    q = 0.4
    counts = rs.geometric(q, size=50_000)
    chi2, dof, p = stats.chi_square_geometric(counts, q)
    assert p > 0.001 and dof >= 3
    _, _, p_wrong = stats.chi_square_geometric(counts, 0.55)
    assert p_wrong < 1e-6
    with pytest.raises(ValueError):
        stats.chi_square_geometric(np.array([0, 1, 2]), 0.4)
    # degenerate q = 1
    assert stats.chi_square_geometric(np.ones(100, dtype=int), 1.0)[2] == 1.0
    assert stats.chi_square_geometric(np.array([1, 2]), 1.0)[2] == 0.0


def test_binomial_ci_exact_bounds():
    # Clopper-Pearson: the k = 0 and k = n ends have closed forms
    n = 400
    assert stats.binomial_ci(0, n) == (0.0, pytest.approx(1 - 0.025 ** (1 / n)))
    assert stats.binomial_ci(n, n) == (pytest.approx(0.025 ** (1 / n)), 1.0)
    lo, hi = stats.binomial_ci(5, 10)
    assert lo == pytest.approx(0.18709, abs=1e-5)
    assert hi == pytest.approx(0.81291, abs=1e-5)
    assert all(np.isnan(stats.binomial_ci(0, 0)))

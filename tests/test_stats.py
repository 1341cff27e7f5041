import numpy as np
import pytest

from rwre import stats
from rwre.errors import ParameterError


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
    v, _ = stats.moment_verdict(_pareto(1.0, 100_000, rs), 1.0)
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


def test_chi_square_p_value_is_scipys_chi2_sf():
    # chi_square_geometric evaluates chdtrc, the function behind
    # scipy.stats.chi2.sf, without the distribution's argument machinery:
    # the p-values must be the oracle's bit for bit
    from scipy import special, stats as sps
    grid = np.concatenate([[0.0], np.logspace(-4, 3, 2003)])
    for dof in range(1, 12):
        assert np.array_equal(special.chdtrc(dof, grid), sps.chi2.sf(grid, dof)), dof
    rs = np.random.RandomState(8)
    for q in (0.05, 0.3, 0.55, 0.9):
        for n in (60, 500, 100_000):     # each with a bin besides the tail
            stat, dof, p = stats.chi_square_geometric(rs.geometric(q, n), q)
            assert dof >= 1 and p == float(sps.chi2.sf(stat, dof)), (q, n)


def test_binomial_ci_and_slab_t_quantile_are_scipys_ppf():
    # binomial_ci evaluates betaincinv and the slab fit stdtrit, the
    # functions behind scipy.stats' beta.ppf and t.ppf: the bounds and the
    # quantiles must be the oracle's bit for bit
    from scipy import stats as sps
    from rwre import criteria
    k, n = np.array([(k, m) for m in np.unique(np.geomspace(1, 20_000, 60).astype(int))
                     for k in np.unique(np.linspace(0, m, 41).astype(int))]).T
    lo = sps.beta.ppf(0.025, k, n - k + 1)
    hi = sps.beta.ppf(0.975, k + 1, n - k)
    got = np.array([stats.binomial_ci(int(a), int(b)) for a, b in zip(k, n)])
    assert len(k) > 1500
    assert np.array_equal(got[:, 0], np.where(k > 0, lo, 0.0))
    assert np.array_equal(got[:, 1], np.where(k < n, hi, 1.0))
    Ls = [4.0 * (i + 1) for i in range(200)]
    est = np.exp(-np.array(Ls) / 3.0) * np.exp(np.sin(Ls))     # off the line
    for dof in range(1, 199):
        fit = criteria._fit_decay(Ls[:dof + 2], est[:dof + 2], [0.1] * (dof + 2), 1.0)
        tq = sps.t.ppf(0.975, dof)
        assert fit.slope_ci == (float(fit.slope - tq * fit.slope_se),
                                float(fit.slope + tq * fit.slope_se)), dof


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


@pytest.mark.parametrize("call, match", [
    (lambda: stats.hill(np.array([])), "nonempty 1-d"),
    (lambda: stats.hill(np.ones((20, 20))), "nonempty 1-d"),
    (lambda: stats.ks_two_sample([], [1.0, 2.0]), "both samples must be nonempty"),
    (lambda: stats.ks_two_sample([1.0], np.array([])), "both samples must be nonempty"),
    (lambda: stats.chi_square_geometric([1, 2, 3], 0.0), "q must be positive"),
    (lambda: stats.chi_square_geometric([1, 2, 3], -0.5), "q must be positive")])
def test_stats_inputs_out_of_range_raise(call, match):
    with pytest.raises(ParameterError, match=match):
        call()


def test_moment_verdict_between_the_bands_is_inconclusive():
    # Pareto(2) quantiles: the Hill CI's lower end (k = 100) lies above
    # alpha = 1.5 but below alpha + 0.25, the band where neither verdict holds
    x = ((np.arange(10_000) + 0.5) / 10_000) ** -0.5
    v, est = stats.moment_verdict(x, 1.5)
    assert v == "inconclusive"
    assert est.k == 100 and 1.5 < est.ci_low < 1.75


def test_chi_square_geometric_with_no_bin_besides_the_tail():
    # six counts at q = 0.3: the tail beyond the first bin expects
    # 6 * 0.7 = 4.2 < 5 counts, so no bin is formed and nothing is tested
    assert stats.chi_square_geometric([1, 2, 1, 3, 1, 1], 0.3) == (0.0, 0, 1.0)
    assert stats.chi_square_geometric([], 0.3) == (0.0, 0, 1.0)

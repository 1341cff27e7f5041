import numpy as np
import pytest

from rwre import rng, walk
from rwre.environment import Environment, Expl, TableMixture, UniformDrift
from rwre.hypercube import analyze
from rwre.lattice import UnitHypercube

FORWARD = TableMixture(((1.0, (1.0, 0.0, 0.0, 0.0)),))


def _at(*targets):
    """Vectorised membership test of (N, d) positions in a target set."""
    T = np.array(targets, dtype=np.int64)
    return lambda X: (X[:, None, :] == T[None, :, :]).all(axis=2).any(axis=1)


def test_deterministic_drift_hits_target():
    env = Environment(FORWARD, 0)
    res = walk.run_until_batch(env, np.array([0, 0]), walk.walk_keys(7, 1), 100,
                               hit=_at((5, 0)))
    assert res.status[0] == walk.STATUS_HIT and res.steps_taken[0] == 5
    assert res.final[0].tolist() == [5, 0]
    fixed = walk.run_fixed_batch(env, np.array([0, 0]), 5, walk.walk_keys(7, 1),
                                 record_steps=True)
    assert np.array_equal(walk.positions((0, 0), fixed.steps[0])[:, 0], np.arange(6))


def test_horizon_validation_and_budget():
    env = Environment(FORWARD, 0)
    keys = walk.walk_keys(7, 1)
    with pytest.raises(ValueError):
        walk.run_until_batch(env, np.array([0, 0]), keys, 0, hit=_at((1, 0)))
    res = walk.run_until_batch(env, np.array([0, 0]), keys, 1, hit=_at((9, 9)))
    assert res.status[0] == walk.STATUS_BUDGET and res.steps_taken[0] == 1
    assert res.censored() == 1


def test_exit_time_zero_when_starting_outside():
    env = Environment(FORWARD, 0)

    def square(X):
        return np.all((X >= 0) & (X <= 1), axis=1)

    res = walk.run_until_batch(env, np.array([5, 5]), walk.walk_keys(3, 1), 10,
                               inside=square)
    assert res.status[0] == walk.STATUS_EXITED and res.steps_taken[0] == 0
    assert res.final[0].tolist() == [5, 5]


def test_uniform_square_mean_exit_is_two():
    env = Environment(UniformDrift(2), 42)

    def inside(X):
        return np.all((X >= 0) & (X <= 1), axis=1)

    keys = walk.walk_keys(3, 20_000)
    res = walk.run_until_batch(env, np.array([0, 0]), keys, 1000, inside=inside)
    assert res.censored() == 0
    m = res.steps_taken.mean()
    # geometric(1/2): mean 2, var 2
    assert abs(m - 2.0) < 4 * np.sqrt(2.0 / len(keys))
    assert not inside(res.final).any()
    # a single walk (W=1) stops exactly where its row of the batch stopped
    one = walk.run_until_batch(env, np.array([0, 0]), keys[:1], 1000, inside=inside)
    assert one.status[0] == walk.STATUS_EXITED == res.status[0]
    assert one.steps_taken[0] == res.steps_taken[0]
    assert np.array_equal(one.final[0], res.final[0])


def test_first_of_stops_at_earliest_condition():
    env = Environment(FORWARD, 0)
    keys = walk.walk_keys(1, 1)
    res = walk.run_until_batch(env, np.array([0, 0]), keys, 50, hit=_at((2, 0)),
                               inside=lambda X: X[:, 0] < 7)
    assert res.status[0] == walk.STATUS_HIT and res.final[0].tolist() == [2, 0]
    res2 = walk.run_until_batch(env, np.array([0, 0]), keys, 50, hit=_at((99, 0)),
                                inside=lambda X: X[:, 0] < 3)
    assert res2.status[0] == walk.STATUS_EXITED and res2.final[0].tolist() == [3, 0]


def test_reproducibility_identical_trajectories():
    env = Environment(Expl(2, 0.25), 12)

    def steps(master):
        return walk.run_fixed_batch(env, np.array([0, 0]), 2000,
                                    walk.walk_keys(master, 1), record_steps=True).steps[0]

    s1, s2, s3 = steps(9), steps(9), steps(10)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)


def test_expl_projected_increments():
    # the drift projection takes a +1 step with probability 1 - eps at every site
    env = Environment(Expl(2, 0.2), 4)
    keys = walk.walk_keys(6, 50)
    res = walk.run_fixed_batch(env, np.zeros(2, dtype=np.int64), 2000, keys,
                               record_steps=True)
    ups = (res.steps < 2).mean()
    n = res.steps.size
    assert abs(ups - 0.8) < 4 * np.sqrt(0.8 * 0.2 / n)
    # no autocorrelation in the sign sequence (iid increments)
    s = (res.steps[0] < 2).astype(float)
    c = np.corrcoef(s[:-1], s[1:])[0, 1]
    assert abs(c) < 4 / np.sqrt(len(s))


def test_hit_before_return_certain_step():
    env = Environment(FORWARD, 0)
    est = walk.hit_before_return(env, (0, 0), {(1, 0)}, (0, 0), 100, 500, 5)
    assert est.p_hat == 1.0 and est.n_censored == 0
    # 500 of 500 still leaves an exact interval of positive width
    assert est.ci_high == 1.0
    assert est.ci_low == pytest.approx(0.025 ** (1 / 500), rel=1e-9)


def test_hit_before_return_matches_exact_escape():
    env = Environment(UniformDrift(2), 17)
    cube = UnitHypercube((0, 0))
    targets = set()
    for c in cube.corners:
        from rwre.lattice import boundary_towards
        targets |= boundary_towards(c, set(cube.corners))
    est = walk.hit_before_return(env, (0, 0), targets, (0, 0), 2000, 40_000, 23)
    want = 6.0 / 7.0
    se = np.sqrt(want * (1 - want) / 40_000)
    assert abs(est.p_hat - want) < 4 * se


def test_hit_before_return_unreachable_target():
    law1 = TableMixture(((1.0, (0.5, 0.5)),))     # symmetric on Z
    env = Environment(law1, 3)
    est = walk.hit_before_return(env, (0,), {(-2,)}, (-1,), 5000, 2000, 9)
    assert est.n_hit == 0 and est.p_hat == 0.0
    n = est.n_returned
    assert est.ci_low == 0.0
    assert est.ci_high == pytest.approx(1 - 0.025 ** (1 / n), rel=1e-9)


def test_hit_before_return_rejects_start_in_target():
    env = Environment(UniformDrift(2), 1)
    with pytest.raises(ValueError):
        walk.hit_before_return(env, (0, 0), {(0, 0)}, (0, 0), 10, 10, 1)


def test_mc_exit_matches_exact_mean_exit():
    env = Environment(Expl(2, 0.25), 91)
    cube = UnitHypercube((0, 0))
    ana = analyze(env, cube, 2)

    def inside(X):
        return np.all((X >= 0) & (X <= 1), axis=1)

    keys = walk.walk_keys(77, 40_000)
    res = walk.run_until_batch(env, np.array([0, 0]), keys, 5000, inside=inside)
    want = ana.mean_exit[0, 0]
    var = ana.moments[0, 2, 0] - want ** 2
    assert abs(res.steps_taken.mean() - want) < 4 * np.sqrt(var / len(keys))


def test_trajectory_csv(tmp_path):
    env = Environment(FORWARD, 0)
    res = walk.run_fixed_batch(env, np.array([0, 0]), 3, walk.walk_keys(1, 1),
                               record_steps=True)
    path = tmp_path / "traj.csv"
    walk.trajectory_to_csv(walk.positions((0, 0), res.steps[0]), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,x_1,x_2"
    assert lines[1] == "0,0,0" and lines[-1] == "3,3,0"

import numpy as np
import pytest

from rwre import hypercube as hc, rng, walk
from rwre.environment import (Dirichlet, Environment, Expl, TableMixture, TrapSym,
                              TrapTransient, UniformDrift)
from rwre.lattice import UnitHypercube

CUBE2 = UnitHypercube((0, 0))


def test_uniform_golden_values():
    ana = hc.analyze(Environment(UniformDrift(2), 1), CUBE2, 3)
    assert np.allclose(ana.mean_exit[0], 2.0, atol=1e-12)
    assert abs(ana.Qtilde[0, 0, 0] - 0.5) < 1e-12
    assert abs(ana.Qtilde[0, 0, 3] - 1 / 14) < 1e-12
    assert abs(ana.Qtilde_row[0, 0] - 6 / 7) < 1e-12
    assert abs(ana.fundamental[0, 0, 0] - 7 / 6) < 1e-12
    assert np.allclose(ana.Q[0], 0.25, atol=1e-15)
    # geometric(1/2) integer moments: E[T]=2, E[T^2]=6, E[T^3]=26
    assert np.allclose(ana.moments[0, 1], 2.0, atol=1e-12)
    assert np.allclose(ana.moments[0, 2], 6.0, atol=1e-12)
    assert np.allclose(ana.moments[0, 3], 26.0, atol=1e-11)


@pytest.mark.parametrize("law", [UniformDrift(2), Dirichlet((1.0,) * 4),
                                 Expl(2, 0.3)],
                         ids=["uniform", "dirichlet", "expl"])
def test_identities_on_random_environments(law):
    seeds = [rng.derive_key(1000, law.tag, i) for i in range(300)]
    ana = hc.analyze_batch(law, seeds, CUBE2, 2)
    viol = ana.check_identities()
    assert all(v <= 1e-10 for v in viol.values()), viol


def test_visit_identity_is_cross_solver():
    # the two sides come from different linear systems
    env = Environment(Dirichlet((2.0, 1.0, 1.0, 0.5)), 5)
    ana = hc.analyze(env, CUBE2, 1)
    lhs = ana.fundamental[0] * ana.Qtilde_row[0][None, :]
    assert np.max(np.abs(lhs - ana.hit_before_exit[0])) < 1e-12
    assert abs(ana.hit_before_exit[0, 1, 1] - 1.0) < 1e-15


def test_exit_mass_and_interior_degree():
    env = Environment(Expl(2, 0.25), 9)
    qh = hc.quenched(env, CUBE2)
    P = qh.interior_matrix()
    assert np.all((P > 0).sum(axis=1) == 2)      # d interior neighbors
    exit_mass = hc.analyze_transitions(2, qh.transitions[None], 1).exit_mass[0]
    assert np.max(np.abs(P.sum(axis=1) + exit_mass - 1.0)) < 1e-12


def test_degenerate_environment_raises():
    # hand-built corner transitions with zero exit mass everywhere
    trans = np.zeros((1, 4, 4))
    for j in range(4):
        inward = [k for k in range(4) if k not in CUBE2.exit_directions(j)]
        trans[0, j, inward] = 0.5
    with pytest.raises(hc.DegenerateEnvironmentError):
        hc.analyze_transitions(2, trans, 1)


def test_escape_site_probs_consistency():
    env = Environment(Dirichlet((1.0,) * 4), 77)
    qh = hc.quenched(env, CUBE2)
    rho = hc.escape_site_probs(qh, from_corner=0)
    ana = hc.analyze_transitions(2, qh.transitions[None], 1)
    assert np.max(np.abs(rho.sum(axis=1) - ana.Qtilde[0, 0])) < 1e-12


def cube_chain_oracle(qh, start_corner: int, keys, horizon: int):
    """Finite-state reference for a walk in one quenched cube.

    Steps the 2^d-corner chain directly, with the same walk keys, cumulative
    rows and inverse-CDF rule as the walk engine, counting visits to the
    start corner.  Returns (status, steps_taken, visits) in the layout of
    ``walk.UntilBatchResult``.
    """
    d, m = qh.d, qh.m
    cum = np.cumsum(qh.transitions, axis=1)
    nxt = np.empty((m, 2 * d), dtype=np.int64)
    for j in range(m):
        for k in range(2 * d):
            axis, up = k % d, k < d
            inward = ((j >> axis) & 1) == (0 if up else 1)
            nxt[j, k] = j ^ (1 << axis) if inward else -1
    runs = len(keys)
    state = np.full(runs, start_corner, dtype=np.int64)
    alive = np.arange(runs)
    status = np.full(runs, walk.STATUS_BUDGET, dtype=np.uint8)
    steps = np.full(runs, horizon, dtype=np.int64)
    visits = np.ones(runs, dtype=np.int64)
    for t in range(horizon):
        if not len(alive):
            break
        u = rng.stream_uniforms(keys, t)
        rows = cum[state]
        j = np.minimum((rows < u[:, None]).sum(axis=1), 2 * d - 1)
        state = nxt[state, j]
        gone = state < 0
        status[alive[gone]] = walk.STATUS_EXITED
        steps[alive[gone]] = t + 1
        alive, state, keys = alive[~gone], state[~gone], keys[~gone]
        visits[alive[state == start_corner]] += 1
    return status, steps, visits


def _cube_walks(env, cube, corner, runs, seed, horizon=200_000):
    site = cube.corners[corner]
    return walk.run_until_batch(env, site, walk.walk_keys(seed, runs, "cube_walk"),
                                horizon, inside=cube.contains_batch,
                                count_visits_to=site)


ORACLE_LAWS = [UniformDrift(1), UniformDrift(2, 0.3), UniformDrift(3),
               Expl(2, 0.3), Expl(3, 0.2),
               TrapSym(1), TrapSym(2), TrapSym(3),
               TrapTransient(1), TrapTransient(2),
               Dirichlet((1.0,) * 2), Dirichlet((2.0, 1.0, 1.0, 0.5)),
               Dirichlet((1.0,) * 6),
               TableMixture(((0.4, (0.6, 0.4)), (0.6, (0.2, 0.8)))),
               TableMixture(((0.3, (0.7, 0.1, 0.1, 0.1)),
                             (0.7, (0.1, 0.1, 0.1, 0.7)))),
               TableMixture(((1.0, (0.3, 0.1, 0.1, 0.3, 0.1, 0.1)),))]


@pytest.mark.parametrize("last_corner", [False, True], ids=["corner0", "cornerM"])
@pytest.mark.parametrize("law", ORACLE_LAWS, ids=lambda law: law.tag)
def test_walk_engine_matches_cube_chain_oracle(law, last_corner):
    # an off-origin anchor exercises the wrap of negative offsets; horizon 3
    # censors some walks of every law, horizon 10^4 lets them all exit
    D = law.dim
    cube = UnitHypercube((1, -2, 3, -1)[:D])
    env = Environment(law, 5 + D)
    corner = (1 << D) - 1 if last_corner else 0
    runs, seed = 3000, 11 * D + corner
    for horizon in (3, 10_000):
        res = _cube_walks(env, cube, corner, runs, seed, horizon)
        want = cube_chain_oracle(hc.quenched(env, cube), corner,
                                 walk.walk_keys(seed, runs, "cube_walk"), horizon)
        assert np.array_equal(res.status, want[0])
        assert np.array_equal(res.steps_taken, want[1])
        assert np.array_equal(res.visits, want[2])
        assert (res.censored() > 0) == (horizon == 3)


def test_qtilde_matches_monte_carlo():
    env = Environment(UniformDrift(2), 3)
    runs = 40_000
    res = _cube_walks(env, CUBE2, 0, runs, 17)
    assert res.censored() == 0
    # each exterior neighbour touches one corner; clipping recovers it
    exit_corners = np.clip(res.final, 0, 1) @ np.array([1, 2])
    no_return = res.visits == 1
    for y in range(4):
        want = 0.5 if y == 0 else (1 / 7 if y in (1, 2) else 1 / 14)
        got = np.mean(no_return & (exit_corners == y))
        assert abs(got - want) < 4 * np.sqrt(want * (1 - want) / runs)


def test_moments_match_monte_carlo():
    env = Environment(Expl(2, 0.3), 21)
    ana = hc.analyze(env, CUBE2, 2)
    res = _cube_walks(env, CUBE2, 0, 40_000, 5)
    assert res.censored() == 0
    times = res.steps_taken
    want, var = ana.mean_exit[0, 0], ana.moments[0, 2, 0] - ana.mean_exit[0, 0] ** 2
    assert abs(times.mean() - want) < 4 * np.sqrt(var / len(times))


def test_exit_bound_from_max_one_step_probability():
    # mean exit from the origin corner is at least 1/(d * max_y Q_y)
    for law in (UniformDrift(2), Dirichlet((1.0,) * 4), Expl(2, 0.25)):
        seeds = [rng.derive_key(31, law.tag, i) for i in range(200)]
        ana = hc.analyze_batch(law, seeds, CUBE2, 1)
        lower = 1.0 / (2 * ana.Q.max(axis=1))
        assert np.all(ana.mean_exit[:, 0] >= lower - 1e-12)
    # the uniform law attains it with equality
    u = hc.analyze(Environment(UniformDrift(2), 0), CUBE2, 1)
    assert abs(u.mean_exit[0, 0] * 2 * u.Q[0].max() - 1.0) < 1e-12


def test_fractional_moment_uniform_all_two():
    rep = hc.fractional_moment(UniformDrift(2), 1.0, 200, 3)
    assert np.allclose(rep.samples, 2.0, atol=1e-12)
    assert rep.verdict == "moment-appears-finite"


def test_fractional_moment_trap_sym_infinite():
    # the trapped-orientation event is rare (1/256), so the Hill order
    # count must stay inside the asymptotic tail
    rep = hc.fractional_moment(TrapSym(2), 1.0, 10_000, 11, hill_k=24)
    assert rep.verdict == "moment-appears-infinite"
    assert rep.hill is not None and rep.hill.index < 1.25


def test_fractional_moment_non_integer_alpha():
    rep = hc.fractional_moment(UniformDrift(2), 1.5, 40, 5)
    # E[T^1.5] for geometric(1/2) is about 3.27; MC max over corners nearby
    assert 2.5 < float(np.median(rep.samples)) < 4.5
    assert rep.alpha == 1.5


def test_fractional_moment_rejects_bad_alpha():
    with pytest.raises(ValueError):
        hc.fractional_moment(UniformDrift(2), 0.0, 10, 1)


def test_visit_law_check_uniform():
    env = Environment(UniformDrift(2), 10)
    rep = hc.visit_law_check(env, CUBE2, 0, 20_000, 9)
    assert abs(rep.qtilde - 6 / 7) < 1e-12
    assert rep.p_value > 0.001
    assert abs(rep.mean_visits - 7 / 6) < 4 * np.sqrt((7 / 6) / 20_000) + 0.01


def test_visit_law_check_one_step_exit():
    # every step leaves the cube: N(0) is identically 1
    law = TableMixture(((1.0, (0.0, 0.0, 0.5, 0.5)),))
    env = Environment(law, 2)
    rep = hc.visit_law_check(env, CUBE2, 0, 10_000, 4)
    assert rep.mean_visits == 1.0 and rep.qtilde == 1.0


def test_visit_law_check_requires_enough_runs():
    with pytest.raises(ValueError):
        hc.visit_law_check(Environment(UniformDrift(2), 1), CUBE2, 0, 100, 1)

from math import comb

import numpy as np
import pytest

from rwre import hypercube as hc, rng, stats, walk
from rwre.environment import (Dirichlet, Environment, Expl, TableMixture, TrapSym,
                              TrapTransient, UniformDrift, transitions_for_seeds)
from rwre.errors import ParameterError
from rwre.lattice import UnitHypercube, _outward

CUBE2 = UnitHypercube((0, 0))


def _corner_transitions(env, cube):
    return env.transitions_batch(np.asarray(cube.corners, dtype=np.int64))


def interior_matrix_loop(d, trans):
    """Reference for ``hc._interior_matrix``: the per-corner, per-axis loop."""
    m = 1 << d
    P = np.zeros((trans.shape[0], m, m))
    for j in range(m):
        for axis in range(d):
            bit = (j >> axis) & 1
            dir_idx = d + axis if bit else axis   # inward move flips the bit
            P[:, j, j ^ (1 << axis)] = trans[:, j, dir_idx]
    return P


def exit_probs_loop(d, trans):
    """Reference for ``hc._exit_probs``: the per-corner, per-axis loop."""
    m = 1 << d
    out = np.empty((trans.shape[0], m, d))
    for j in range(m):
        for axis in range(d):
            bit = (j >> axis) & 1
            dir_idx = axis if bit else d + axis
            out[:, j, axis] = trans[:, j, dir_idx]
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gathers_equal_the_corner_loops(d):
    trans = np.random.default_rng(d).dirichlet(np.ones(2 * d), size=(50, 1 << d))
    assert np.array_equal(hc._interior_matrix(trans), interior_matrix_loop(d, trans))
    assert np.array_equal(hc._exit_probs(trans), exit_probs_loop(d, trans))


def eager_analysis(d, trans, moment_order):
    """Reference for ``hc.analyze_transitions``: every field solved at once,
    in the order the solves ran before the fields were solved on first
    read.  Returns the fields by name."""
    m = 1 << d
    R = trans.shape[0]
    P = hc._interior_matrix(trans)
    exit_probs = hc._exit_probs(trans)
    q = exit_probs.sum(axis=2)
    A = np.broadcast_to(np.eye(m), (R, m, m)) - P
    fundamental = np.linalg.solve(A, np.broadcast_to(np.eye(m), (R, m, m)))
    moments = np.empty((R, moment_order + 1, m))
    moments[:, 0] = 1.0
    Pm = [np.einsum("rxy,ry->rx", P, moments[:, 0])]
    for k in range(1, moment_order + 1):
        rhs = q + sum(comb(k, j) * Pm[j] for j in range(k))
        moments[:, k] = np.linalg.solve(A, rhs[..., None])[..., 0]
        if k < moment_order:
            Pm.append(np.einsum("rxy,ry->rx", P, moments[:, k]))
    Qtilde = np.empty((R, m, m))
    hit = np.zeros((R, m, m))
    for x in range(m):
        idx = np.arange(m)[np.arange(m) != x]
        Ax = A[:, idx][:, :, idx]
        G = np.linalg.solve(Ax, np.broadcast_to(np.eye(m - 1), (R, m - 1, m - 1)))
        Qtilde[:, x, idx] = np.einsum("rz,rzy->ry", P[:, x, idx], G) * q[:, idx]
        Qtilde[:, x, x] = q[:, x]
        hit[:, idx, x] = np.linalg.solve(Ax, P[:, idx, x][..., None])[..., 0]
        hit[:, x, x] = 1.0
    return {"Q": exit_probs.max(axis=2), "Qtilde": Qtilde,
            "Qtilde_row": Qtilde.sum(axis=2), "mean_exit": fundamental.sum(axis=2),
            "fundamental": fundamental, "hit_before_exit": hit,
            "moments": moments, "exit_mass": q}


FIELDS = ["Q", "Qtilde", "Qtilde_row", "mean_exit", "fundamental",
          "hit_before_exit", "moments", "exit_mass"]
LAZY_LAWS = [UniformDrift(1), UniformDrift(2, 0.3), UniformDrift(3),
             Dirichlet((1.0,) * 2), Dirichlet((2.0, 1.0, 1.0, 0.5)), Dirichlet((1.0,) * 6),
             Expl(2, 0.3), Expl(3, 0.2), TrapSym(1), TrapSym(2), TrapSym(3)]


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("law", LAZY_LAWS, ids=lambda law: law.tag)
def test_fields_read_on_demand_equal_the_eager_solves(law, order):
    cube = UnitHypercube((0,) * law.dim)
    seeds = [rng.derive_key(8, law.tag, i) for i in range(60)]
    trans = transitions_for_seeds(law, seeds, np.asarray(cube.corners, dtype=np.int64))
    want = eager_analysis(law.dim, trans, order)
    for fields in (FIELDS, FIELDS[::-1]):
        ana = hc.analyze_transitions(trans, order)
        for name in fields:
            assert np.array_equal(getattr(ana, name), want[name]), name
        for name in fields:                     # a second read is the same array
            assert getattr(ana, name) is getattr(ana, name)


def _count_solves(monkeypatch):
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    return calls


@pytest.mark.parametrize("d", [1, 2, 3])
def test_each_field_pays_only_for_its_own_solves(monkeypatch, d):
    m, order = 1 << d, 2
    cube = UnitHypercube((0,) * d)
    trans = transitions_for_seeds(Dirichlet((1.0,) * (2 * d)), list(range(5)),
                                  np.asarray(cube.corners, dtype=np.int64))
    calls = _count_solves(monkeypatch)
    ana = hc.analyze_transitions(trans, order)
    assert len(calls) == 0
    ana.Q, ana.exit_mass
    assert len(calls) == 0
    ana.mean_exit
    assert len(calls) == 1
    ana.fundamental
    assert len(calls) == 1
    ana.moments
    assert len(calls) == 1 + order
    ana.Qtilde_row
    assert len(calls) == 1 + order + m
    ana.hit_before_exit                         # no second solve for G
    assert len(calls) == 1 + order + 2 * m
    for name in FIELDS:
        getattr(ana, name)
    assert len(calls) == 1 + order + 2 * m
    calls.clear()
    hc.analyze_transitions(trans, order).check_identities()
    assert len(calls) == 1 + 2 * m             # the moments are not checked


def test_fractional_moment_makes_one_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    rep = hc.fractional_moment(TrapSym(2), 1.0, 50, 3)
    assert len(calls) == 1 and len(rep.samples) == 50


def test_singular_solve_raises_on_first_read(monkeypatch):
    ana = hc.analyze(Environment(UniformDrift(2), 1), CUBE2, 1)

    def singular(*a, **k):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    for name in ("mean_exit", "fundamental", "moments", "Qtilde", "Qtilde_row",
                 "hit_before_exit"):
        with pytest.raises(hc.DegenerateEnvironmentError):
            getattr(ana, name)


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
    trans = _corner_transitions(Environment(Expl(2, 0.25), 9), CUBE2)[None]
    P = hc._interior_matrix(trans)[0]
    assert np.all((P > 0).sum(axis=1) == 2)      # d interior neighbors
    exit_mass = hc.analyze_transitions(trans, 1).exit_mass[0]
    assert np.max(np.abs(P.sum(axis=1) + exit_mass - 1.0)) < 1e-12


@pytest.mark.parametrize("solve", [lambda t: hc.analyze_transitions(t[None], 1),
                                   lambda t: hc.escape_site_probs(t, 0)],
                         ids=["analyze_transitions", "escape_site_probs"])
def test_degenerate_environment_raises(solve):
    # hand-built corner transitions with zero exit mass everywhere
    trans = np.zeros((4, 4))
    for j in range(4):
        inward = [k for k in range(4) if k not in _outward(2)[j]]
        trans[j, inward] = 0.5
    with pytest.raises(hc.DegenerateEnvironmentError):
        solve(trans)


def test_escape_site_probs_consistency():
    trans = _corner_transitions(Environment(Dirichlet((1.0,) * 4), 77), CUBE2)
    ana = hc.analyze_transitions(trans[None], 1)
    for c in range(4):
        rho, qtilde_row = hc.escape_site_probs(trans, from_corner=c)
        assert np.array_equal(qtilde_row, ana.Qtilde[0, c])
        assert np.max(np.abs(rho.sum(axis=1) - qtilde_row)) < 1e-12


def cube_chain_oracle(trans, start_corner: int, keys, horizon: int):
    """Finite-state reference for a walk in one quenched cube.

    Steps the 2^d-corner chain directly, with the same walk keys, cumulative
    rows and inverse-CDF rule as the walk engine, counting visits to the
    start corner.  ``trans`` holds the (m, 2d) corner transitions.  Returns
    (status, steps_taken, visits) in the layout of ``walk.UntilBatchResult``.
    """
    m, d = trans.shape[0], trans.shape[1] // 2
    cum = np.cumsum(trans, axis=1)
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
                                horizon, inside=cube.region,
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
        want = cube_chain_oracle(_corner_transitions(env, cube), corner,
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
    rep = hc.fractional_moment(TrapSym(2), 1.0, 10_000, 11)
    verdict, hill = stats.moment_verdict(rep.samples, 1.0, k=24)
    assert verdict == "moment-appears-infinite"
    assert hill is not None and hill.index < 1.25


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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_escape_row_gives_the_qtilde_row_entry(d):
    # visit_law_check reads Qtilde_row[corner] off its corner's chain alone
    cube = UnitHypercube((0,) * d)
    laws = (UniformDrift(d), TrapSym(d), Dirichlet((1.0,) * (2 * d)),
            Expl(d, 0.2) if d > 1 else UniformDrift(1, 0.3))
    for law in laws:
        for seed in range(25):
            trans = _corner_transitions(Environment(law, seed), cube)
            ana = hc.analyze_transitions(trans[None], 1)
            for x in range(1 << d):
                assert hc.escape_site_probs(trans, x)[1].sum() == ana.Qtilde_row[0, x]


@pytest.mark.parametrize("shape", [(2, 4), (4, 3), (8, 4), (4, 2), (1, 0), (4,),
                                   (1, 4, 4)], ids=str)
def test_a_corner_table_of_another_shape_is_a_parameter_error(shape):
    # d is read off the last axis, and the corner count must be 2^d
    table = np.full(shape, 0.25)
    with pytest.raises(ParameterError, match="corner tensor"):
        hc.analyze_transitions(table[None], 1)
    with pytest.raises(ParameterError, match="corner tensor"):
        hc.escape_site_probs(table, 0)


def test_visit_law_check_solves_one_chain(monkeypatch):
    env = Environment(UniformDrift(2), 10)
    calls = _count_solves(monkeypatch)
    rep = hc.visit_law_check(env, CUBE2, 3, 10_000, 9)
    assert len(calls) == 1 and abs(rep.qtilde - 6 / 7) < 1e-12


def test_check_absorbing_needs_reach_only_without_own_exit():
    # d = 1: corner 0 has no exit mass of its own and reaches corner 1's,
    # until corner 1 steps only inward and closes the pair
    open_pair = np.array([[1.0, 0.0], [0.5, 0.5]])
    hc.analyze_transitions(open_pair[None], 1)
    closed = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(hc.DegenerateEnvironmentError, match="no escape route"):
        hc.analyze_transitions(closed[None], 1)


def test_visit_law_check_requires_enough_runs():
    with pytest.raises(ValueError):
        hc.visit_law_check(Environment(UniformDrift(2), 1), CUBE2, 0, 100, 1)

import numpy as np
import pytest

from rwre import _kernel, rng, walk
from rwre.environment import (Dirichlet, Environment, Expl, TableMixture,
                              TrapSym, TrapTransient, UniformDrift)
from rwre.errors import ParameterError
from rwre.hypercube import analyze
from rwre.lattice import Bounds, UnitHypercube, _outward, step_vectors

FORWARD = TableMixture(((1.0, (1.0, 0.0, 0.0, 0.0)),))


def _at(*targets):
    """Vectorised membership test of (N, d) positions in a target set."""
    T = np.array(targets, dtype=np.int64)
    return lambda X: (X[:, None, :] == T[None, :, :]).all(axis=2).any(axis=1)


def _below(a, d=2):
    """The half-space x_1 < a of Z^d: a walk stops on reaching x_1 = a."""
    return Bounds(np.eye(d)[0], -np.inf, a, False, False)


def test_deterministic_drift_hits_target():
    env = Environment(FORWARD, 0)
    res = walk.run_until_batch(env, np.array([0, 0]), walk.walk_keys(7, 1), 100,
                               _below(5))
    assert res.status[0] == walk.STATUS_EXITED and res.steps_taken[0] == 5
    assert res.final[0].tolist() == [5, 0]
    fixed = walk.run_fixed_batch(env, np.array([0, 0]), 5, walk.walk_keys(7, 1),
                                 record_steps=True)
    assert np.array_equal(walk.positions((0, 0), fixed.steps[0])[:, 0], np.arange(6))


def test_positions_reject_a_fractional_start():
    # (0.5, 0) used to give the path from (0, 0); integral floats are sites
    steps = np.array([0, 1], dtype=np.uint8)
    with pytest.raises(ValueError, match=r"start must have integer coordinates"):
        walk.positions((0.5, 0), steps)
    assert walk.positions(np.array([2.0, -1.0]), steps).tolist() == [[2, -1], [3, -1],
                                                                     [3, 0]]


def test_horizon_validation_and_budget():
    env = Environment(FORWARD, 0)
    keys = walk.walk_keys(7, 1)
    with pytest.raises(ValueError):
        walk.run_until_batch(env, np.array([0, 0]), keys, 0, _below(1))
    res = walk.run_until_batch(env, np.array([0, 0]), keys, 1, _below(9))
    assert res.status[0] == walk.STATUS_BUDGET and res.steps_taken[0] == 1
    assert res.censored() == 1


_ENV = Environment(Expl(2, 0.3), 1)
_KEYS = walk.walk_keys(1, 4)


_FAR = _below(9)
_DIRICHLET = Environment(Dirichlet((1.0,) * 4), 1)     # steps with numpy


@pytest.mark.parametrize("env, starts, keys, nsteps, visit, region, match", [
    (_ENV, np.zeros((4, 2)), walk.walk_keys(1, 1), 50, None, _FAR,
     None),                                                    # 4 starts, 1 key
    (_ENV, np.zeros(2), _KEYS.reshape(2, 2), 50, None, _FAR, None),  # keys not 1-D
    (_ENV, np.zeros((4, 3)), _KEYS, 50, None, _FAR, None),     # wrong dimension
    (Environment(Expl(2, 0.3), rng.derive_keys(2, "w", n=3)),
     np.zeros(2), _KEYS, 50, None, _FAR, None),                # 3 fields, 4 walkers
    (_ENV, np.zeros(2), _KEYS, -3, None, _FAR, None),          # negative length
    (_ENV, np.zeros(2), _KEYS, 50, (0,), _FAR, None),          # 1-D visit site in d=2
    (_ENV, np.zeros(2), _KEYS, 50, [(0, 0), (1, 0)], _FAR, None),  # two visit sites
    (_DIRICHLET, np.zeros(2), _KEYS, 50, None,
     Bounds(np.ones(3), 0.0, 5.0, False, False),               # 3-D region in d=2
     "region of dimension 3 for walks of dimension 2"),
    (_ENV, np.zeros(2), _KEYS, 2.5, None, _FAR,
     "must be an integer, got 2.5"),                           # fractional length
    (_DIRICHLET, np.zeros(2), _KEYS, 2.5, None, _FAR,
     "must be an integer, got 2.5"),                           # ... on numpy's path
    (_DIRICHLET, np.zeros(2), _KEYS, 2.5, None,
     Bounds(np.array([1.0, 0.0]), -1e9, 1e9, False, False),
     "horizon must be an integer, got 2.5"),
    (_ENV, np.zeros(2), _KEYS, np.float64(50.0), None, _FAR,
     "must be an integer"),                                    # a float length
    (_ENV, [0.7, 0.2], _KEYS, 50, None, _FAR,
     r"starts must have integer coordinates, got \[0.7, 0.2\]"),
    (_ENV, np.array([0.0, np.inf]), _KEYS, 50, None, _FAR,
     "starts must have integer coordinates"),
    (_ENV, np.zeros(2), _KEYS, 50, (0.5, 0), _FAR,
     r"count_visits_to must have integer coordinates, got \(0.5, 0\)"),
    (_ENV, np.zeros(2), _KEYS, 50, None, lambda X: _FAR(X),
     "inside must be a lattice.Bounds region, got function"),  # the same region
], ids=["keys_vs_starts", "keys_2d", "dimension", "per_walker_seeds", "nsteps",
        "visit_site_dimension", "visit_site_shape", "region_dimension",
        "fractional_nsteps", "fractional_nsteps_numpy", "fractional_horizon_bounds",
        "float_nsteps", "fractional_starts", "infinite_starts",
        "fractional_visit_site", "plain_callable"])
def test_engines_reject_malformed_batches(env, starts, keys, nsteps, visit, region,
                                          match):
    if visit is None and region is _FAR:   # run_fixed_batch takes neither
        with pytest.raises(ValueError, match=match):
            walk.run_fixed_batch(env, starts, nsteps, keys)
    if nsteps >= 0:
        with pytest.raises(ValueError, match=match):
            walk.run_until_batch(env, starts, keys, nsteps, region,
                                 count_visits_to=visit)


@pytest.mark.parametrize("engine", ["kernel", "numpy"])
def test_engines_refuse_keys_that_are_not_integers(monkeypatch, engine):
    # the keys [1.5, 2.5] used to walk as [1, 2]; integral floats and
    # booleans are refused too, and integer keys of any width walk as their
    # uint64 bits
    if engine == "numpy":
        monkeypatch.setattr(_kernel, "loop", lambda *a: None)
    for keys in ([1.5, 2.5], np.array([1.0, 2.0]), np.array([True, False])):
        with pytest.raises(ParameterError, match="keys must be integer walk keys"):
            walk.run_fixed_batch(_ENV, np.zeros(2), 5, keys)
        with pytest.raises(ParameterError, match="keys must be integer walk keys"):
            walk.run_until_batch(_ENV, np.zeros(2), keys, 5, _FAR)
    unsigned = walk.run_fixed_batch(_ENV, np.zeros(2), 30,
                                    np.array([1, 2, 2 ** 64 - 1], dtype=np.uint64)).final
    for keys in ([1, 2, -1], np.array([1, 2, -1], dtype=np.int32),
                 [1, 2, 2 ** 64 - 1], [np.int8(1), 2, np.uint64(2 ** 64 - 1)]):
        # numpy makes float64 of the mixed-width lists: they walk all the same
        got = walk.run_fixed_batch(_ENV, np.zeros(2), 30, keys).final
        assert np.array_equal(got, unsigned)
    with pytest.raises(ParameterError, match="keys must be integer walk keys"):
        walk.run_fixed_batch(_ENV, np.zeros(2), 5, [1, 2.5, 2 ** 64 - 1])


@pytest.mark.parametrize("engine", ["kernel", "numpy", "handed_back"])
@pytest.mark.parametrize("per_walker", [False, True], ids=["shared", "per_walker"])
def test_engines_leave_the_callers_keys_and_starts_alone(monkeypatch, engine,
                                                         per_walker):
    # the kernel reads the caller's keys in place and moves its rows in its
    # own buffer or a copy of the starts; neither array may change, through stops at many
    # steps (compactions) and, with a wide guard, steps handed to numpy
    W = 300
    env = Environment(Expl(2, 0.3), rng.derive_keys(6, "w", n=W) if per_walker else 6)
    keys = walk.walk_keys(4, W)
    loops = []
    if engine == "numpy":
        monkeypatch.setattr(_kernel, "loop", lambda *a: None)
    else:
        inner = _kernel.loop
        monkeypatch.setattr(_kernel, "loop", lambda *a: loops.append(inner(*a)) or loops[-1])
    if engine == "handed_back":
        monkeypatch.setattr(_kernel, "GUARD_MARGIN", 0.002)
    shared = np.array([1, 0], dtype=np.int64)
    spread = (np.arange(2 * W, dtype=np.int64).reshape(W, 2) % 5) - 2
    box = Bounds(np.eye(2), [-2.0, -2.0], [3.0, 2.0], False, False)
    for starts in (shared, spread):
        given = [keys.copy(), starts.copy()]
        res = walk.run_until_batch(env, starts, keys, 400, box, count_visits_to=(1, 0))
        assert len(set(res.steps_taken.tolist())) > 5
        walk.run_fixed_batch(env, starts, 40, keys, checkpoints=[1, 7])
        assert np.array_equal(keys, given[0]) and np.array_equal(starts, given[1])
    # the kernel read the caller's keys array itself, not a copy
    assert all(loop.run.keys == keys.ctypes.data for loop in loops)
    assert len(loops) == (0 if engine == "numpy" else 4)


def _step_two_draws(env, pos, keys, t, sv, idx):
    """Oracle of walk._step_batch: the field's rows, then a separate draw t
    of each walk stream, then the inverse-CDF choice."""
    P = env.transitions_batch(pos, idx)
    u = rng.stream_uniforms(keys, t)
    cum = np.cumsum(P, axis=1)
    choice = np.minimum((cum < u[:, None]).sum(axis=1), P.shape[1] - 1)
    return choice, pos + sv[choice]


@pytest.mark.parametrize("per_walker", [False, True], ids=["shared", "per_walker"])
@pytest.mark.parametrize("law", [
    UniformDrift(2, 0.3), Expl(2, 0.25), TrapSym(2), TrapTransient(1),
    Dirichlet((1.0, 2.0, 0.5, 1.5)),
    TableMixture(((0.3, (0.7, 0.1, 0.1, 0.1)), (0.7, (0.25,) * 4)))],
    ids=lambda law: law.tag.split(":")[0])
def test_one_draw_step_matches_two_draw_oracle(law, per_walker):
    # _step_batch draws each walker's site uniforms and its walk uniform in
    # one call; the chosen directions and the new positions must equal the
    # two-draw oracle's bit for bit, at any width and draw index, and on
    # per-walker fields with the live ids of a shuffled compaction
    sv = step_vectors(law.dim)
    for W in (1, 7, 200):
        u = rng.stream_uniform_block(rng.derive_key(W, "oracle_sites"), W * law.dim)
        pos = (np.floor(u * 2000) - 1000).astype(np.int64).reshape(W, law.dim)
        keys = walk.walk_keys(W, W)
        if per_walker:
            env = Environment(law, rng.derive_keys(W, "oracle_fields", n=3 * W))
            perm = np.argsort(rng.stream_uniform_block(rng.derive_key(W, "live"), 3 * W))
            ids = [perm[:W], None]          # compacted live ids; walker i is row i
        else:
            env, ids = Environment(law, 11), [np.arange(W), None]
        for idx in ids:
            for t in (0, 1, 2 ** 40):
                want, want_pos = _step_two_draws(env, pos, keys, t, sv, idx)
                got_pos = pos.copy()
                got = walk._step_batch(env, got_pos, keys, t, sv, idx)
                assert np.array_equal(got, want)
                assert np.array_equal(got_pos, want_pos)


def test_engines_take_starts_in_any_memory_order():
    # the compiled loops need C-ordered rows; a Fortran-ordered start array
    # is the same batch
    starts = np.array([[0, 0], [1, -1], [2, 0], [0, 3]], dtype=np.int64)
    region = UnitHypercube((0, 0)).region
    for env in (_ENV, Environment(Dirichlet((1.0,) * 4), 1)):
        for run in (lambda s: walk.run_fixed_batch(env, s, 30, _KEYS).final,
                    lambda s: walk.run_until_batch(env, s, _KEYS, 30, region,
                                                   count_visits_to=(0, 0)).visits):
            assert np.array_equal(run(np.asfortranarray(starts)), run(starts))


def test_checkpoints_before_the_first_step_are_rejected():
    with pytest.raises(ValueError, match="checkpoints"):
        walk.run_fixed_batch(_ENV, np.zeros(2), 10, _KEYS, checkpoints=[0, 5])
    for env in (_ENV, _DIRICHLET):      # a step count never equal to 2.5
        with pytest.raises(ValueError, match="checkpoints must be an integer"):
            walk.run_fixed_batch(env, np.zeros(2), 10, _KEYS, checkpoints=[2.5])
    res = walk.run_fixed_batch(_ENV, np.zeros(2), 10, _KEYS, checkpoints=[5, 99])
    assert list(res.checkpoints) == [5]


def test_exit_time_zero_when_starting_outside():
    env = Environment(FORWARD, 0)
    res = walk.run_until_batch(env, np.array([5, 5]), walk.walk_keys(3, 1), 10,
                               inside=UnitHypercube((0, 0)).region)
    assert res.status[0] == walk.STATUS_EXITED and res.steps_taken[0] == 0
    assert res.final[0].tolist() == [5, 5]


def test_uniform_square_mean_exit_is_two():
    env = Environment(UniformDrift(2), 42)
    inside = UnitHypercube((0, 0)).region
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
    # a region cut by two half-planes, x_1 + x_2 < a and x_1 < b: the walk
    # stops at whichever of the two it meets first
    env = Environment(FORWARD, 0)
    keys = walk.walk_keys(1, 1)

    def region(a, b):
        return Bounds(np.array([[1.0, 1.0], [1.0, 0.0]]), [-np.inf] * 2, [a, b],
                      False, False)

    res = walk.run_until_batch(env, np.array([0, 0]), keys, 50, region(2, 7))
    assert res.status[0] == walk.STATUS_EXITED and res.final[0].tolist() == [2, 0]
    assert res.steps_taken[0] == 2
    res2 = walk.run_until_batch(env, np.array([0, 0]), keys, 50, region(99, 3))
    assert res2.status[0] == walk.STATUS_EXITED and res2.final[0].tolist() == [3, 0]
    assert res2.steps_taken[0] == 3


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


def test_hit_before_return_matches_exact_escape():
    # uniform walk on the unit square: escape from the origin before return
    # is Qtilde_row = 6/7 = 1/2 + 1/2 P_{e_1}[T_exterior < T_0]
    env = Environment(UniformDrift(2), 17)
    cube = UnitHypercube((0, 0))
    qt = analyze(env, cube, 1).Qtilde_row[0, 0]
    assert qt == pytest.approx(6.0 / 7.0, abs=1e-12)
    sv = step_vectors(2)
    exterior = [tuple(np.add(c, sv[k])) for c in cube.corners
                for k in _outward(2)[cube.corner_index(c)]]
    # the walk stops on an exterior neighbour or on its return to the
    # origin, the cube's corners off the origin being the closed region
    # 0 <= x_1, x_2 <= 1 <= x_1 + x_2 <= 2; a stop away from the origin is
    # an escape
    region = Bounds(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), [0, 0, 1],
                    [1, 1, 2], True, True)
    res = walk.run_until_batch(env, np.array([1, 0]), walk.walk_keys(23, 40_000),
                               2000, region)
    assert res.censored() == 0
    assert np.all(res.status == walk.STATUS_EXITED)
    escaped = _at(*exterior)(res.final)
    assert np.array_equal(escaped, np.any(res.final != 0, axis=1))
    est = np.mean(escaped)
    want = 2 * qt - 1
    assert abs(est - want) < 4 * np.sqrt(want * (1 - want) / 40_000)


def test_hit_before_return_unreachable_target():
    # on Z, the target -2 lies behind the forbidden site -1 of the region
    # x > -1: every resolved walk stops at -1 first and none ever stops at
    # the target
    env = Environment(TableMixture(((1.0, (0.5, 0.5)),)), 3)
    res = walk.run_until_batch(env, np.array([0]), walk.walk_keys(9, 2000), 5000,
                               Bounds(np.ones(1), -1.0, np.inf, False, False))
    assert not np.any(res.final[:, 0] == -2)
    exited = res.status == walk.STATUS_EXITED
    assert exited.sum() > 1900 and np.all(res.final[exited, 0] == -1)


def test_mc_exit_matches_exact_mean_exit():
    env = Environment(Expl(2, 0.25), 91)
    cube = UnitHypercube((0, 0))
    ana = analyze(env, cube, 2)
    keys = walk.walk_keys(77, 40_000)
    res = walk.run_until_batch(env, np.array([0, 0]), keys, 5000, inside=cube.region)
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

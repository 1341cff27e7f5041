import numpy as np
import pytest

from rwre import rng, stats, walk
from rwre.environment import (Dirichlet, Environment, Expl, TableMixture,
                              TrapSym, TrapTransient, UniformDrift,
                              ellipticity_profile, normalize_rows,
                              sample_expl_T, sample_trap_T,
                              transitions_for_seeds)
from rwre.lattice import Bounds

ALL_LAWS = [UniformDrift(2, 0.3), Expl(2, 0.25), TrapSym(2), TrapTransient(1),
            Dirichlet((1.0, 2.0, 0.5, 1.5)), TableMixture(((0.3, (0.7, 0.1, 0.1, 0.1)),
                                                           (0.7, (0.25,) * 4)))]


def _sites(n, d, seed=77):
    u = rng.stream_uniform_block(rng.derive_key(seed, "sites"), n * d)
    return (np.floor(u * 2000) - 1000).astype(np.int64).reshape(n, d)


# --- heavy-tail time samplers ----------------------------------------------

def test_sample_expl_T_values():
    assert sample_expl_T(1.0, 2) == 5.0                       # support minimum
    assert sample_expl_T(0.5, 2) == 5.0 * 2 ** 12             # 20480
    assert sample_expl_T(1.0, 3) == 7.0


def test_sample_expl_T_tail_index():
    u = rng.stream_uniform_block(rng.derive_key(1, "explT"), 1_000_000)
    T = sample_expl_T(u, 2)
    est = stats.hill(T, k=1000)
    assert abs(est.index - 1 / 12) < 0.2 * (1 / 12)


def test_sample_trap_T_values():
    assert sample_trap_T(1.0, 2) == 0.5                       # support maximum
    assert sample_trap_T(0.5, 2) == 0.5 / 16                  # 1/32
    u = rng.stream_uniform_block(rng.derive_key(2, "trapT"), 200_000)
    T = sample_trap_T(u, 2)
    p_hat = np.mean(1.0 / T >= 100.0)
    expect = (2 / 100) ** 0.25
    assert abs(p_hat - expect) < 4 * np.sqrt(expect * (1 - expect) / len(T))


# --- law parameter validation ----------------------------------------------

def test_law_parameter_errors():
    with pytest.raises(ValueError):
        Expl(2, 0.1)             # below 1/(2d+1)
    with pytest.raises(ValueError):
        Expl(2, 0.9)
    with pytest.raises(ValueError):
        UniformDrift(2, 1.0)
    with pytest.raises(ValueError):
        Dirichlet((1.0, -1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Dirichlet((1.0, 1.0, 1.0))  # odd length
    with pytest.raises(ValueError):
        TableMixture(((1.0, (0.5, 0.2, 0.2, 0.2)),))  # bad sum
    Expl(2, 0.2)  # closed left endpoint is allowed (acceptance uses it)
    # in d = 1 the rows would sum to 1 - eps + 1/T or eps + 1/T
    for eps in (1 / 3, 0.5, 2 / 3):
        with pytest.raises(ValueError, match="d must be >= 2"):
            Expl(1, eps)


def test_normalize_rows_rejects_drift_beyond_tolerance():
    with pytest.raises(ValueError):
        normalize_rows(np.array([0.5, 0.5 - 1e-6]))
    out = normalize_rows(np.array([0.5, 0.5 + 1e-12]))
    assert abs(out.sum() - 1.0) < 1e-15


# --- simplex and determinism invariants -------------------------------------

@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.tag.split(":")[0])
def test_simplex_invariant(law):
    env = Environment(law, 123)
    P = env.transitions_batch(_sites(100_000, law.dim))
    assert np.all(P >= 0)
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.tag.split(":")[0])
def test_determinism_bit_identical(law):
    env = Environment(law, 99)
    X = _sites(500, law.dim)
    P1 = env.transitions_batch(X)
    P2 = Environment(law, 99).transitions_batch(X)
    assert np.array_equal(P1, P2)
    one = env.transitions_at(tuple(X[7]))
    assert np.array_equal(one, P1[7])
    # a row does not depend on the batch it is read in: one site at a time
    # and in chunks of 1 to 8 rows give the rows of the whole batch, on one
    # field and on per-walker fields (rows read with their walker ids)
    assert np.array_equal(np.array([env.transitions_at(x) for x in X]), P1)
    fields = Environment(law, rng.derive_keys(99, "walkers", n=len(X)))
    Q = fields.transitions_batch(X)
    for i, seed in enumerate(fields.master_seed.tolist()):
        assert np.array_equal(Environment(law, seed).transitions_at(X[i]), Q[i])
    for size in range(1, 9):
        chunks = [np.arange(i, min(i + size, len(X))) for i in range(0, len(X), size)]
        assert np.array_equal(np.concatenate([env.transitions_batch(X[c])
                                              for c in chunks]), P1)
        assert np.array_equal(np.concatenate([fields.transitions_batch(X[c], c)
                                              for c in chunks]), Q)


def test_different_seeds_different_fields():
    X = _sites(100, 2)
    a = Environment(Expl(2, 0.25), 1).transitions_batch(X)
    b = Environment(Expl(2, 0.25), 2).transitions_batch(X)
    assert not np.allclose(a, b)


def test_iid_contract_neighbor_correlation():
    env = Environment(Dirichlet((1.0,) * 4), 5)
    n = 100_000
    X = np.zeros((n, 2), dtype=np.int64)
    X[:, 0] = np.arange(n)
    here = env.transitions_batch(X)[:, 0]
    right = env.transitions_batch(X + np.array([1, 0]))[:, 0]
    c = np.corrcoef(here, right)[0, 1]
    assert abs(c) < 4 / np.sqrt(n)


# --- the explicit ballistic law ---------------------------------------------

def test_expl_positive_mass_is_drift():
    env = Environment(Expl(2, 0.2), 321)
    P = env.transitions_batch(_sites(20_000, 2))
    assert np.max(np.abs(P[:, :2].sum(axis=1) - 0.8)) < 1e-12
    assert np.max(np.abs(P[:, 2:].sum(axis=1) - 0.2)) < 1e-12


def test_expl_i0_marginal_and_inverse_T():
    law = Expl(2, 0.25)
    env = Environment(law, 555)
    n = 40_000
    X = _sites(n, 2, seed=9)
    keys = rng.site_keys_from_base(rng.base_key(555, rng.string_tag(law.tag)), X)
    U0 = rng.stream_uniforms(keys, 0)
    U1 = rng.stream_uniforms(keys, 1)
    T = sample_expl_T(U0, 2)
    i0 = np.minimum((U1 * 4).astype(np.int64), 3)
    P = env.transitions_batch(X)
    assert np.max(np.abs(P[np.arange(n), i0] - 1.0 / T)) < 1e-15
    counts = np.bincount(i0, minlength=4) / n
    assert np.max(np.abs(counts - 0.25)) < 4 * np.sqrt(0.25 * 0.75 / n)


# --- trapping laws -----------------------------------------------------------

def test_trap_sym_structure():
    env = Environment(TrapSym(2), 777)
    P = env.transitions_batch(_sites(10_000, 2))
    # per axis, the two opposite entries sum to 1/d
    assert np.max(np.abs(P[:, 0] + P[:, 2] - 0.5)) < 1e-12
    assert np.max(np.abs(P[:, 1] + P[:, 3] - 0.5)) < 1e-12
    T = 2 * np.minimum(P[:, 0], P[:, 2])
    assert np.all(T <= 1.0 + 1e-12) and np.all(T > 0)


def test_trap_transient_bias_identity():
    law = TrapTransient(1)
    assert law.dim == 2
    env = Environment(law, 31)
    P = env.transitions_batch(_sites(10_000, 2))
    # q(e_{d+1}) = 2 q(e_{2(d+1)}) exactly on every sample
    assert np.max(np.abs(P[:, 1] - 2.0 * P[:, 3])) < 1e-15
    # the axis-1 pair carries total 1/C with C = d + 3T in [d, 2(d+1)]
    inv_C = P[:, 0] + P[:, 2]
    assert np.all(inv_C <= 1.0 / 1 + 1e-12)
    assert np.all(inv_C >= 1.0 / 4 - 1e-12)


def test_dirichlet_uniform_weights_moments():
    env = Environment(Dirichlet((1.0,) * 4), 12)
    P = env.transitions_batch(_sites(50_000, 2))
    assert np.all(P > 0)
    # Dirichlet(1,1,1,1) marginals are Beta(1,3): mean 1/4, var 3/80
    assert np.max(np.abs(P.mean(axis=0) - 0.25)) < 0.005
    assert abs(P[:, 0].var() - 3 / 80) < 0.002


def test_table_mixture_recovers_weights():
    v1, v2 = (0.7, 0.1, 0.1, 0.1), (0.25,) * 4
    env = Environment(TableMixture(((0.3, v1), (0.7, v2))), 8)
    P = env.transitions_batch(_sites(50_000, 2))
    frac = np.mean(np.abs(P[:, 0] - 0.7) < 1e-12)
    assert abs(frac - 0.3) < 4 * np.sqrt(0.3 * 0.7 / 50_000)


def test_transitions_for_seeds_matches_environments():
    # per-seed fields (one site, several sites, and a per-walker Environment
    # after compaction) must equal the rows of one Environment per seed
    seeds = [11, 22, 33, 2 ** 64 - 1]
    sites = np.array([[0, 0], [1, 0], [-7, 4]])
    many = rng.derive_keys(5, "multi", n=50)
    idx = np.random.RandomState(3).permutation(50)[:30]     # shuffled survivors
    X = _sites(30, 2, seed=4)
    for law in ALL_LAWS:
        batch = transitions_for_seeds(law, seeds, np.array([2, -3]))
        for s, row in zip(seeds, batch):
            assert np.array_equal(Environment(law, s).transitions_at((2, -3)), row)
        cube = transitions_for_seeds(law, np.array(seeds, dtype=np.uint64), sites)
        assert cube.shape == (len(seeds), len(sites), 4)
        for s, rows in zip(seeds, cube):
            assert np.array_equal(Environment(law, s).transitions_batch(sites), rows)
        P = Environment(law, many).transitions_batch(X, idx)
        for x, p, w in zip(X, P, idx.tolist()):
            assert np.array_equal(Environment(law, int(many[w])).transitions_at(x), p)


def test_walker_batch_steps_match_single_walks():
    # W walkers on per-walker fields step exactly like W single walks, in
    # the fixed-length engine and in the stopping engine, whose compaction
    # of stopped walkers re-indexes the surviving walkers' fields
    W, n = 12, 200
    seeds = rng.derive_keys(6, "walkers", n=W)
    keys = walk.walk_keys(7, W)
    start = np.zeros(2, dtype=np.int64)
    inside = Bounds(np.eye(2), [-3, -3], [3, 3], False, False)
    for law in ALL_LAWS:
        env = Environment(law, seeds)
        fixed = walk.run_fixed_batch(env, start, n, keys, record_steps=True)
        until = walk.run_until_batch(env, start, keys, n, inside=inside)
        assert len(set(until.steps_taken.tolist())) > 1
        for w, s in enumerate(seeds.tolist()):
            one = Environment(law, s)
            f1 = walk.run_fixed_batch(one, start, n, keys[w:w + 1], record_steps=True)
            assert np.array_equal(f1.steps[0], fixed.steps[w])
            u1 = walk.run_until_batch(one, start, keys[w:w + 1], n, inside=inside)
            assert u1.status[0] == until.status[w]
            assert u1.steps_taken[0] == until.steps_taken[w]
            assert np.array_equal(u1.final[0], until.final[w])


# --- ellipticity profile ------------------------------------------------------

def test_ellipticity_profile_uniform():
    rep = ellipticity_profile(Environment(UniformDrift(2), 4), 2000)
    assert rep.kappa0 is not None and rep.kappa0 < 0.25
    assert abs(rep.min_entry - 0.25) < 1e-12


def test_ellipticity_profile_expl_flags_thin_tail():
    rep = ellipticity_profile(Environment(Expl(2, 0.25), 4), 20_000)
    assert rep.min_entry < 0.01          # 1/T can get arbitrarily small
    assert rep.kappa0 is not None


def test_ellipticity_profile_validates():
    with pytest.raises(ValueError):
        ellipticity_profile(Environment(UniformDrift(2), 4), 0)
    per_walker = Environment(UniformDrift(2), rng.derive_keys(1, "w", n=3))
    with pytest.raises(ValueError, match="per-walker"):
        ellipticity_profile(per_walker, 10)


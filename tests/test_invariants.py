"""Cross-module statistical invariants: regeneration tail indices and the
trap-to-regeneration tail dominance."""

import numpy as np

from rwre import regeneration as rg, rng, stats, walk
from rwre.environment import Environment, Expl, TrapTransient, UniformDrift
from rwre.lattice import UnitHypercube


def _inter_times(law, master, walks, nsteps, ell):
    env = Environment(law, master)
    keys = walk.walk_keys(master + 1, walks)
    res = walk.run_fixed_batch(env, np.zeros(law.dim, dtype=np.int64), nsteps,
                               keys, record_steps=True)
    params = rg.RegenParams(tuple(float(v) for v in ell))
    out = []
    for w in range(walks):
        rec = rg.extract_from_steps(res.steps[w], (0,) * law.dim, params)
        out.extend(rec.inter_times.tolist())
    return np.asarray(out, dtype=float)


def test_intertime_tail_indices():
    # drifted uniformly elliptic law: every moment finite, index far above 2
    ue = _inter_times(UniformDrift(2, strength=0.5), 5, 30, 10_000,
                      np.array([1.0, 0.0]))
    est_ue = stats.hill(ue)
    assert est_ue.index > 2.0
    # ballistic heavy-tailed example: finite index, still above 1
    ex = _inter_times(Expl(2, 0.2), 6, 30, 10_000, np.ones(2) / np.sqrt(2))
    est_ex = stats.hill(ex)
    assert np.isfinite(est_ex.index) and est_ex.index > 1.0


def test_trap_tail_dominates_regeneration_tail():
    # {tau_1 >= n | no backtrack} is at least a constant times the worst
    # annealed cube-exit tail, uniformly over an n-grid
    law = TrapTransient(1)
    master = 97
    walks, nsteps = 400, 20_000
    env_seeds = np.array([rng.derive_key(master, "env", i)
                          for i in range(walks)], dtype=np.uint64)
    env = Environment(law, env_seeds)
    keys = walk.walk_keys(master + 1, walks)
    res = walk.run_fixed_batch(env, np.zeros(2, dtype=np.int64), nsteps, keys,
                               record_steps=True)
    ell = (0.0, 1.0)
    params = rg.RegenParams(ell)
    taus = []
    for w in range(walks):
        steps = res.steps[w]
        levels = np.concatenate([[0], np.cumsum(np.where(steps == 1, 1,
                                 np.where(steps == 3, -1, 0)))])
        if levels.min() >= 0:                        # rejection: 0-regen walks
            rec = rg.extract_from_steps(steps, (0, 0), params)
            if rec.n_certified() >= 1:
                taus.append(int(rec.certified_times[0]))
    taus = np.asarray(taus)
    assert len(taus) > 40

    # annealed cube-exit survival from the worst corner; the tail constant
    # is small (trap needs aligned signs and two small crossing weights),
    # so the grid stays where 3e4 walks still resolve it
    budget = 20_000
    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    surv_exit = {}
    for ci, corner in enumerate(corners):
        seeds2 = np.array([rng.derive_key(master, "exit", ci, i)
                           for i in range(30_000)], dtype=np.uint64)
        env2 = Environment(law, seeds2)
        k2 = walk.walk_keys(master + 2 + ci, 30_000)
        r2 = walk.run_until_batch(env2, np.asarray(corner, dtype=np.int64),
                                  k2, budget, inside=UnitHypercube((0, 0)).region)
        surv_exit[corner] = r2.steps_taken
    grid = [4, 16, 64]
    ratios = []
    for n in grid:
        s1 = np.mean(taus >= n)
        s2 = max(np.mean(t >= n) for t in surv_exit.values())
        assert s2 > 0
        ratios.append(s1 / s2)
    assert min(ratios) > 0

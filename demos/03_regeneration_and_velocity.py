"""Regeneration structure and the renewal velocity identity.

A regeneration time splits the walk into blocks that are independent and
(after the first) identically distributed, so the velocity equals
(mean block displacement) / (mean block duration).  The explicit ballistic
law drifts along the diagonal with speed 1 - 2 eps = 0.6 in lattice units.
"""

import numpy as np

from rwre import regeneration as rg, walk
from rwre.environment import Environment, Expl

eps = 0.2
env = Environment(Expl(2, eps), master_seed=42)
n, walks = 30_000, 40
keys = walk.walk_keys(7, walks)
res = walk.run_fixed_batch(env, np.zeros(2, dtype=np.int64), n, keys,
                           record_steps=True)

ell = np.ones(2) / np.sqrt(2)
params = rg.RegenParams(tuple(ell))
records = [rg.extract_from_steps(res.steps[w], (0, 0), params)
           for w in range(walks)]

total = sum(r.n_certified() for r in records)
cens = sum(int(r.censored.sum()) for r in records)
print(f"{walks} walks x {n} steps: {total} certified regenerations "
      f"({cens} censored near the horizon)")

rec = records[0]
print("first walk, first five regeneration times:", rec.times[:5])
print("inter-times are the renewal blocks:", rec.inter_times[:8], "...")

ren = rg.renewal_velocity(records)
direct = rg.direct_velocity(res.final, n)
ell0 = np.ones(2)
print(f"\nrenewal velocity  . (e1+e2) = {float(ren.v @ ell0):.4f}")
print(f"direct  X_n/n     . (e1+e2) = {float(direct.v @ ell0):.4f}")
print(f"target 1 - 2 eps            = {1 - 2 * eps:.4f}")

radii = rg.regeneration_radii(records[0], walk.positions((0, 0), res.steps[0]))
print(f"\nregeneration radii (L1 span per block): "
      f"mean {radii.mean():.2f}, max {radii.max()}")

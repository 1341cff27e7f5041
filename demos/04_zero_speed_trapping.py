"""The transient zero-speed example: trapping beats the drift.

On Z^(d+1) the extra axis is 2:1 biased, so the walk is transient, but
unit squares of the first axes form traps whose annealed exit time has a
divergent mean, and the velocity decays to zero with the observation
scale.  (Reduced scale here; the acceptance suite runs n up to 10^6.)
"""

import numpy as np

from rwre import rng, walk
from rwre.environment import Environment, TrapTransient
from rwre.hypercube import fractional_moment

law = TrapTransient(d=1)
W = 200
scales = [2_000, 20_000, 200_000]
env = Environment(law, rng.derive_keys(42, "env", n=W))  # one field per walker
keys = walk.walk_keys(43, W)
res = walk.run_fixed_batch(env, np.zeros(2, dtype=np.int64), scales[-1],
                           keys, checkpoints=scales[:-1])

print("velocity along the transient axis, by observation scale:")
for n in scales:
    finals = res.checkpoints.get(n, res.final)
    print(f"  n = {n:>7}: X_n . e2 / n = {finals[:, 1].mean() / n:.4f}")
print("the estimate keeps falling: trapping wins in the limit.")

rep = fractional_moment(law, alpha=1.0, replicates=4000, master_seed=99)
print(f"\nannealed cube exit-time mean: verdict {rep.verdict}")
if rep.hill:
    print(f"  tail index of the quenched means: {rep.hill.index:.2f} "
          f"[{rep.hill.ci_low:.2f}, {rep.hill.ci_high:.2f}] "
          f"(index <= 1 means a divergent mean)")
print(f"  heaviest quenched mean among {len(rep.samples)} environments: "
      f"{rep.samples.max():.3g} steps")

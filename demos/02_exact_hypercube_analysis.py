"""Exact quenched analysis of the unit hypercube.

The cube's 2^d corners form a small absorbing chain, so visit counts,
escape probabilities and exit-time moments are dense linear solves, not
simulations.  Monte Carlo is used only to confirm them.
"""

import numpy as np

from rwre.environment import Environment, UniformDrift
from rwre.hypercube import analyze, visit_law_check
from rwre.lattice import UnitHypercube
from rwre.walk import run_until_batch, walk_keys

env = Environment(UniformDrift(2), 1)
cube = UnitHypercube((0, 0))
ana = analyze(env, cube, moment_order=3)

print("uniform law on the unit square (all transition probabilities 1/4):")
print("  mean exit time per corner      :", ana.mean_exit[0])
print("  one-step exit maxima Q         :", ana.Q[0])
print("  escape-before-return Qtilde row:", np.round(ana.Qtilde[0, 0], 6))
print("  row sum (= 6/7)                :", ana.Qtilde_row[0, 0])
print("  expected visits to the start   :", ana.fundamental[0, 0, 0], "(= 7/6)")
print("  exit-time moments E[T^k], k=1..3:", ana.moments[0, 1:, 0],
      "(geometric(1/2): 2, 6, 26)")

print("\nthe identities tying these together (max violation over corners):")
for name, v in ana.check_identities().items():
    print(f"  {name:<14} {v:.2e}")

print("\nMonte Carlo confirmation on the same quenched cube:")
# the walk engine with the cube as its region, counting visits to the start
start = cube.corners[0]
res = run_until_batch(env, start, walk_keys(3, 50_000, "cube_walk"), 100_000,
                      inside=cube.region, count_visits_to=start)
print(f"  MC mean exit {res.steps_taken.mean():.4f} vs exact 2")
print(f"  MC mean visits to the start {res.visits.mean():.4f} vs exact 7/6 = {7/6:.4f}")

rep = visit_law_check(env, cube, 0, 50_000, 9)
print(f"  chi-square of N(0) against Geometric({rep.qtilde:.4f}): "
      f"p-value {rep.p_value:.3f}")

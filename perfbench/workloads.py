"""The four benchmark workloads, each shaped like a group of acceptance criteria.

A workload is four functions:

* ``inputs(seed, size)`` derives everything random from the benchmark seed
  (seed lists, walk keys, CLI seed) with the same salts as the acceptance
  criteria it mirrors; the program receives only these inputs.
* ``run(inp, workdir)`` is one pass: the program calls being timed.
* ``collect(inp, raw)`` turns the pass result into plain outputs (floats,
  lists, strings) plus the deterministic bytes hashed for bit-identity.
  It runs outside the timed region.
* ``checks(out)`` returns named correctness checks over the outputs.

``size`` is ``"bench"`` for measurement or ``"smoke"`` for the fresh-process
set-up probes and the self-test.  Every module of rwre is looked up through
its module object at call time, so the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from rwre import cli, criteria, environment, hypercube, rng, stats, walk
from rwre.lattice import UnitHypercube

ACCEPTANCE_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mirrors: str
    inputs: object
    run: object
    collect: object
    checks: object


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _check(name: str, ok, detail: str) -> Check:
    return Check(name, bool(ok), detail)


def _f(x) -> str:
    """Shortest round-trip text of a float, for digests and details."""
    return repr(float(x))


# ---------------------------------------------------------------- ballistic_cli
# c1's band [0.59, 0.61] needs c1's 10^7 walker-steps.  One pass here is
# 2 x 10^4 steps, where the seed-to-seed standard deviation of both
# estimators is 0.0057 (60 seeds); the band below is 7 of those wide on
# each side, so a seed fails it only through a real error.
BALLISTIC_BAND = (0.56, 0.64)


def ballistic_inputs(seed: int, size: str) -> dict:
    walks, steps = {"bench": (2, 10_000), "smoke": (2, 1_500)}[size]
    return {"seed": seed, "walks": walks, "steps": steps}


def ballistic_run(inp: dict, workdir: str):
    out = os.path.join(workdir, "regen.csv")
    argv = ["regen", "--law", "expl", "--d", "2", "--eps", "0.2",
            "--steps", str(inp["steps"]), "--walks", str(inp["walks"]),
            "--seed", str(inp["seed"]), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, out


def ballistic_collect(inp: dict, raw) -> tuple[dict, list[bytes]]:
    code, csv_path = raw
    parts = [str(code).encode()]
    out = {"seed": inp["seed"], "exit_code": code,
           "renewal_v": float("nan"), "direct_v": float("nan")}
    json_path = csv_path + ".velocity.json"
    for path in (csv_path, json_path):
        if os.path.exists(path):
            with open(path, "rb") as f:
                parts.append(f.read())
    if os.path.exists(json_path):
        report = json.loads(parts[-1])
        out["renewal_v"] = float(sum(report["renewal_velocity"]))
        out["direct_v"] = float(sum(report["direct_velocity"]))
    return out, parts


def ballistic_checks(out: dict) -> list[Check]:
    lo, hi = BALLISTIC_BAND
    return [
        _check("exit_code_0", out["exit_code"] == cli.EXIT_OK,
               f"exit code {out['exit_code']}"),
        _check("renewal_in_band", lo <= out["renewal_v"] <= hi,
               f"renewal v.(1,1) = {out['renewal_v']:.5f} in [{lo}, {hi}]"),
        _check("direct_in_band", lo <= out["direct_v"] <= hi,
               f"direct v.(1,1) = {out['direct_v']:.5f} in [{lo}, {hi}]"),
    ]


# ---------------------------------------------------------------- annealed_trap
TRAP_WALKS = 200
# c2's verdict needs the Hill CI of the 4000 quenched moments to reach 1; at
# other seeds than the acceptance seed it missed on 5 of 300 (one even read
# 'finite').  Other seeds are held to a band on the Hill index itself: over
# those 300 seeds its log had mean 0.04 and standard deviation 0.13, and the
# band is more than 5 of those wide on each side.
TRAP_TAIL_BAND = (0.5, 2.5)


def trap_inputs(seed: int, size: str) -> dict:
    scales = {"bench": (1_000, 4_000, 16_000), "smoke": (250, 1_000, 4_000)}[size]
    env_seeds = np.array([rng.derive_key(seed, "c2_env", i)
                          for i in range(TRAP_WALKS)], dtype=np.uint64)
    return {"seed": seed, "law": environment.TrapTransient(1), "scales": scales,
            "env_seeds": env_seeds,
            "keys": walk.walk_keys(rng.derive_key(seed, "c2_walks"), TRAP_WALKS),
            "frac_seed": rng.derive_key(seed, "c2_frac"), "frac_replicates": 4000}


def trap_run(inp: dict, workdir: str):
    law, scales = inp["law"], inp["scales"]
    env = criteria.MultiSeedEnvironment(law, inp["env_seeds"])
    res = walk.run_fixed_batch(env, np.zeros(law.dim, dtype=np.int64), scales[-1],
                               inp["keys"], checkpoints=scales[:-1])
    frac = hypercube.fractional_moment(law, 1.0, inp["frac_replicates"],
                                       inp["frac_seed"])
    return res, frac


def trap_collect(inp: dict, raw) -> tuple[dict, list[bytes]]:
    res, frac = raw
    scales = inp["scales"]
    finals = [res.checkpoints[n] for n in scales[:-1]] + [res.final]
    vels = [float(f[:, -1].mean()) / n for f, n in zip(finals, scales)]
    out = {"seed": inp["seed"], "velocities": vels, "verdict": frac.verdict,
           "tail_index": frac.hill.index if frac.hill else float("nan")}
    parts = [f.tobytes() for f in finals]
    parts += [frac.samples.tobytes(), frac.verdict.encode()]
    return out, parts


def trap_checks(out: dict) -> list[Check]:
    v = out["velocities"]
    shown = ", ".join(f"{x:.5f}" for x in v)
    lo, hi = TRAP_TAIL_BAND
    checks = [
        _check("velocity_decreasing", all(a > b for a, b in zip(v, v[1:])),
               f"X_n.e2/n = {shown}"),
        _check("last_velocity_below_0.05", v[-1] < 0.05, f"last = {v[-1]:.5f}"),
        _check("tail_index_band", lo <= out["tail_index"] <= hi,
               f"Hill index {out['tail_index']:.4f} in [{lo}, {hi}]"),
    ]
    if out["seed"] == ACCEPTANCE_SEED:
        checks.append(_check("moment_appears_infinite",
                             out["verdict"] == "moment-appears-infinite", out["verdict"]))
    return checks


# ------------------------------------------------------------- splitting_narrow
PATH_LAWS = (("uniform", environment.UniformDrift(2)),
             ("expl", environment.Expl(2, 0.2)))


def splitting_inputs(seed: int, size: str) -> dict:
    L_grid, n_paths = {"bench": ([8, 16, 24, 32], 100),
                       "smoke": ([4, 8, 12, 16], 10)}[size]
    return {"seed": seed, "law": environment.Expl(2, 0.2),
            "ell": np.ones(2) / np.sqrt(2.0), "L_grid": L_grid,
            "slab_seed": rng.derive_key(seed, "c11"),
            "path_seeds": {name: [rng.derive_key(seed, "c10", name, r)
                                  for r in range(n_paths)]
                           for name, _ in PATH_LAWS}}


def splitting_run(inp: dict, workdir: str):
    rep = criteria.slab_exit(inp["law"], inp["ell"], 1.0, inp["L_grid"], 60_000,
                             1, inp["slab_seed"],
                             estimator="splitting", n_per_level=192, repeats=1,
                             level_width=0.7, gammas=(1.0,))
    policy = criteria.EprimePolicy()
    bundles, failures = [], 0
    for name, law in PATH_LAWS:
        for s in inp["path_seeds"][name]:
            env = environment.Environment(law, s)
            mmh = criteria.discover(env, policy)
            try:
                bundles.append(criteria.paths(env, mmh, 5))
            except AssertionError:
                failures += 1
    return rep, bundles, failures


def splitting_collect(inp: dict, raw) -> tuple[dict, list[bytes]]:
    rep, bundles, failures = raw
    fit = rep.fits[1.0]
    out = {"seed": inp["seed"], "L_grid": list(rep.L_grid),
           "estimates": list(rep.estimates),
           "slope_ci": None if fit is None else list(fit.slope_ci),
           "bundles": len(bundles), "bundle_failures": failures,
           "expected_bundles": sum(len(v) for v in inp["path_seeds"].values())}
    parts = [json.dumps(rep.to_dict(), sort_keys=True).encode(), str(failures).encode()]
    for b in bundles:
        for r in b.records:
            parts.append(f"{r.offset_bits},{_f(r.pi)},{_f(r.qtilde)},{_f(r.prod_q)}"
                         .encode() + r.sites.tobytes())
    return out, parts


def splitting_checks(out: dict) -> list[Check]:
    est = out["estimates"]
    shown = ", ".join(f"{e:.3g}" for e in est)
    ci = out["slope_ci"]
    return [
        _check("estimates_positive", all(e > 0 for e in est), shown),
        _check("estimates_decrease_in_L", all(a > b for a, b in zip(est, est[1:])),
               f"L = {out['L_grid']}"),
        _check("slope_ci_below_0", ci is not None and ci[1] < 0,
               f"slope CI = {ci}"),
        _check("path_bundles_hold",
               out["bundle_failures"] == 0
               and out["bundles"] == out["expected_bundles"],
               f"{out['bundles']} bundles, {out['bundle_failures']} failed"),
    ]


# ------------------------------------------------------------------ cube_exact
IDENTITY_LAWS = (("uniform", environment.UniformDrift(2)),
                 ("dirichlet_1111", environment.Dirichlet((1.0,) * 4)),
                 ("expl", environment.Expl(2, 0.3)))
IDENTITY_TOL = 1e-10
GOLDEN_TOL = 1e-12
GOLDEN = {"mean_exit": 2.0, "Qtilde_row_0": 6.0 / 7.0, "Qtilde_00": 0.5,
          "Qtilde_0_diag": 1.0 / 14.0, "N_00": 7.0 / 6.0}
HILL_K = 24
C9_BAND = (0.8, 1.2)
VISIT_RUNS = 10_000
# c9 pinned k = 24 inside the Hill-plot stability window of the acceptance
# seed; over 150 other seeds the k = 24 index ranged from 0.64 to 2.87 (log
# mean 0.08, standard deviation 0.26), so c9's band [0.8, 1.2] is checked on
# the acceptance seed only and other seeds are held to a band 5 of those
# standard deviations wide on each side.
HILL_BAND = (0.3, 4.0)
# c5 asks that 95 of 100 p-values exceed 0.01.  At this workload's 20
# repetitions that rule fails 1.7 % of seeds by chance, so the p-values are
# combined by Fisher's method instead and the c5 pass rate is reported.
VISIT_MIN_COMBINED_P = 1e-6


def cube_inputs(seed: int, size: str) -> dict:
    n_identity, n_trap, n_visit = {"bench": (1000, 10_000, 20),
                                   "smoke": (200, 10_000, 3)}[size]
    return {"seed": seed, "cube": UnitHypercube((0, 0)),
            "c3_seeds": {name: [rng.derive_key(seed, "c3", name, i)
                                for i in range(n_identity)]
                         for name, _ in IDENTITY_LAWS},
            "c4_seed": rng.derive_key(seed, "c4"),
            "c9_seeds": [rng.derive_key(seed, "c9", i) for i in range(n_trap)],
            "c5_env_seed": rng.derive_key(seed, "c5_env"),
            "c5_seeds": [rng.derive_key(seed, "c5", r) for r in range(n_visit)]}


def cube_run(inp: dict, workdir: str):
    cube = inp["cube"]
    identities = {name: hypercube.analyze_batch(law, inp["c3_seeds"][name], cube,
                                                2).check_identities(IDENTITY_TOL)
                  for name, law in IDENTITY_LAWS}
    env4 = environment.Environment(environment.UniformDrift(2), inp["c4_seed"])
    ana4 = hypercube.analyze(env4, cube, 2)
    ana9 = hypercube.analyze_batch(environment.TrapSym(2), inp["c9_seeds"], cube, 1)
    hill = stats.hill(ana9.mean_exit[:, 0], k=HILL_K)
    env5 = environment.Environment(environment.UniformDrift(2), inp["c5_env_seed"])
    visits = [hypercube.visit_law_check(env5, cube, 0, VISIT_RUNS, s)
              for s in inp["c5_seeds"]]
    return identities, ana4, ana9, hill, visits


def cube_collect(inp: dict, raw) -> tuple[dict, list[bytes]]:
    identities, ana4, ana9, hill, visits = raw
    golden = {"mean_exit": float(ana4.mean_exit[0, 0]),
              "Qtilde_row_0": float(ana4.Qtilde_row[0, 0]),
              "Qtilde_00": float(ana4.Qtilde[0, 0, 0]),
              "Qtilde_0_diag": float(ana4.Qtilde[0, 0, 3]),
              "N_00": float(ana4.fundamental[0, 0, 0])}
    pvals = [r.p_value for r in visits]
    out = {"seed": inp["seed"],
           "max_identity_violation": max(max(v.values()) for v in identities.values()),
           "golden": golden, "hill_index": hill.index, "hill_k": hill.k,
           "visit_p_values": pvals}
    parts = [json.dumps(identities, sort_keys=True).encode(),
             json.dumps(golden, sort_keys=True).encode(),
             ana9.mean_exit.tobytes(), _f(hill.index).encode()]
    parts += [",".join(_f(x) for x in (r.chi2, r.p_value, r.mean_visits)).encode()
              + f",{r.dof},{r.censored}".encode() for r in visits]
    return out, parts


def visit_law_summary(pvals) -> tuple[float, float]:
    """(Fisher's combined p-value, c5 pass rate of p > 0.01)."""
    p = np.asarray(pvals, dtype=float)
    if len(p) == 0 or not np.all(np.isfinite(p)):
        return float("nan"), float("nan")
    combined = float(sps.chi2.sf(-2.0 * np.log(np.maximum(p, 1e-300)).sum(),
                                 2 * len(p)))
    return combined, float(np.mean(p > 0.01))


def cube_checks(out: dict) -> list[Check]:
    viol = out["max_identity_violation"]
    worst_golden = max(abs(out["golden"][k] - GOLDEN[k]) for k in GOLDEN)
    idx, k = out["hill_index"], out["hill_k"]
    combined, rate = visit_law_summary(out["visit_p_values"])
    checks = [
        _check("identities_1e-10", viol <= IDENTITY_TOL, f"max violation {viol:.3g}"),
        _check("golden_values_1e-12", worst_golden <= GOLDEN_TOL,
               f"max error {worst_golden:.3g}"),
        _check("hill_index_band", HILL_BAND[0] <= idx <= HILL_BAND[1],
               f"index {idx:.4f} (k={k}) in [{HILL_BAND[0]}, {HILL_BAND[1]}]"),
        _check("visit_law_combined_p", combined > VISIT_MIN_COMBINED_P,
               f"Fisher p = {combined:.3g}, c5 pass rate {rate:.2f} "
               f"over {len(out['visit_p_values'])} repetitions"),
    ]
    if out["seed"] == ACCEPTANCE_SEED:
        lo, hi = C9_BAND
        checks.append(_check("hill_index_c9_band", lo <= idx <= hi,
                             f"index {idx:.4f} in [{lo}, {hi}]"))
    return checks


WORKLOADS = {w.name: w for w in (
    Workload("ballistic_cli",
             "rwre regen through cli.main: W=1 walks, regeneration extraction "
             "and the CSV/JSON writers (c1, c6)", "c1, c6",
             ballistic_inputs, ballistic_run, ballistic_collect, ballistic_checks),
    Workload("annealed_trap",
             "W=200 lockstep walks on per-walker TrapTransient fields with "
             "checkpoints, plus the exact fractional moment (c2)", "c2",
             trap_inputs, trap_run, trap_collect, trap_checks),
    Workload("splitting_narrow",
             "level-splitting slab exits: many short run_until_batch calls on "
             "shrinking live sets, plus discover/paths site reads (c10, c11)",
             "c10, c11",
             splitting_inputs, splitting_run, splitting_collect, splitting_checks),
    Workload("cube_exact",
             "exact unit-hypercube solves and the visit-law cube Monte Carlo; "
             "bypasses site hashing and the walk engines (c3, c4, c5, c9)",
             "c3, c4, c5, c9",
             cube_inputs, cube_run, cube_collect, cube_checks),
)}

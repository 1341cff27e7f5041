"""Experiment runner: config-driven subcommands and the acceptance driver.

Subcommands: walk, regen, hypercube, criteria, paths, acceptance.
Configuration is a JSON tree (see ``--config``); every flag overrides the
corresponding config entry.  The master seed is mandatory (never the
clock), outputs are CSV (tabular) and JSON (reports), and every output
file embeds the config hash and tool version, so identical configs yield
byte-identical artifacts.

Exit codes: 0 completed, 2 parameter/usage error, 3 insufficient data,
4 degenerate environment (a corner set with no escape route).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__, criteria, hypercube, regeneration, rng, walk
from .environment import (Dirichlet, Environment, Expl, TableMixture,
                          TrapSym, TrapTransient, UniformDrift)
from .lattice import UnitHypercube

EXIT_OK, EXIT_PARAM, EXIT_NODATA, EXIT_DEGENERATE = 0, 2, 3, 4


class ParameterError(ValueError):
    pass


def law_from_spec(spec: dict):
    """Build a site law from its tagged config record."""
    kind = spec.get("kind")
    try:
        if kind == "uniform":
            return UniformDrift(int(spec["d"]), float(spec.get("strength", 0.0)),
                                int(spec.get("axis", 1)))
        if kind == "expl":
            return Expl(int(spec["d"]), float(spec["eps"]))
        if kind == "trap_sym":
            te = spec.get("tail_exponent")
            return TrapSym(int(spec["d"]), None if te is None else float(te))
        if kind == "trap_transient":
            return TrapTransient(int(spec["d"]))
        if kind == "dirichlet":
            return Dirichlet(tuple(spec["weights"]))
        if kind == "table_mixture":
            return TableMixture(tuple((w, tuple(p)) for w, p in spec["entries"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ParameterError(f"bad law spec {spec!r}: {exc}") from exc
    raise ParameterError(f"unknown law kind {kind!r}")


def default_ell(law) -> np.ndarray:
    """The natural transience direction of a law, as a unit vector."""
    D = law.dim
    if isinstance(law, TrapTransient):
        e = np.zeros(D)
        e[D - 1] = 1.0
        return e
    if isinstance(law, (Expl, TrapSym)):
        return np.ones(D) / np.sqrt(D)
    e = np.zeros(D)
    ax = getattr(law, "axis", 1)
    e[ax - 1] = 1.0
    return e


def config_hash(config: dict) -> str:
    """Hash of the experiment config; output locations do not belong to
    the experiment identity and are excluded."""
    scrubbed = {k: v for k, v in config.items()
                if k not in ("out", "out_dir", "config")}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path, header: list[str], rows, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# rwre {__version__} config_hash={config_hash(config)}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


def write_json(path, payload: dict, config: dict) -> None:
    doc = {"version": __version__, "config_hash": config_hash(config)}
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, sort_keys=True, default=_json_default))
        f.write("\n")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (bool, np.bool_)):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def load_config(args, defaults: dict) -> dict:
    config = dict(defaults)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                tree = json.load(f)
        except OSError as exc:
            raise ParameterError(f"cannot read config: {exc}") from exc
        if not isinstance(tree, dict):
            raise ParameterError("config must be a JSON object, "
                                 f"not {type(tree).__name__}")
        config.update(tree)
    for key, val in vars(args).items():
        if key in ("config", "func", "command") or val is None:
            continue
        config[key] = val
    if config.get("seed") is None:
        raise ParameterError("a master seed is required (no wall-clock seeding)")
    return config


def _resolve_law(config: dict):
    law_spec = config.get("law")
    if isinstance(law_spec, str):
        law_spec = {"kind": law_spec}
    law_spec = dict(law_spec or {})
    if "d" in config and "d" not in law_spec:
        law_spec["d"] = config["d"]
    if "eps" in config and "eps" not in law_spec:
        law_spec["eps"] = config["eps"]
    config["law"] = law_spec
    return law_from_spec(law_spec)


def cmd_walk(args) -> int:
    config = load_config(args, {"steps": 1000, "walks": 10})
    law = _resolve_law(config)
    env = Environment(law, int(config["seed"]))
    keys = walk.walk_keys(rng.derive_key(int(config["seed"]), "cli_walk"),
                          int(config["walks"]))
    res = walk.run_fixed_batch(env, np.zeros(law.dim, dtype=np.int64),
                               int(config["steps"]), keys,
                               record_steps=bool(config.get("dump_trajectory")))
    out = config.get("out", "walk_finals.csv")
    write_csv(out, ["walk"] + [f"x_{i + 1}" for i in range(law.dim)],
              [[w] + [int(c) for c in res.final[w]] for w in range(len(keys))],
              config)
    if config.get("dump_trajectory"):
        walk.trajectory_to_csv(walk.positions((0,) * law.dim, res.steps[0]),
                               str(out) + ".traj.csv")
    print(f"walk: {config['walks']} walks x {config['steps']} steps -> {out}")
    return EXIT_OK


def _regen_ell(spec, law) -> np.ndarray:
    """Unit direction from "auto" or a list of law.dim numbers (a JSON
    string when it comes from the command line)."""
    if spec == "auto":
        ell = default_ell(law)
    else:
        try:
            ell = np.asarray(json.loads(spec) if isinstance(spec, str) else spec,
                             dtype=float)
        except (ValueError, TypeError):
            ell = None
    if ell is None or ell.shape != (law.dim,):
        raise ParameterError(f"ell must be \"auto\" or a list of {law.dim} "
                             f"numbers, got {spec!r}")
    with np.errstate(all="ignore"):
        unit = ell / np.linalg.norm(ell)
    # a zero, infinite or NaN entry leaves a non-finite or zero unit vector
    if not (np.all(np.isfinite(unit)) and unit.any()):
        raise ParameterError(f"ell must be finite and nonzero, got {spec!r}")
    return unit


def cmd_regen(args) -> int:
    config = load_config(args, {"steps": 100_000, "walks": 100})
    law = _resolve_law(config)
    seed = int(config["seed"])
    env = Environment(law, rng.derive_key(seed, "regen_env"))
    nsteps, walks = int(config["steps"]), int(config["walks"])
    ell = _regen_ell(config.get("ell", "auto"), law)
    config["ell"] = [float(v) for v in ell]
    keys = walk.walk_keys(rng.derive_key(seed, "regen_walks"), walks)
    res = walk.run_fixed_batch(env, np.zeros(law.dim, dtype=np.int64), nsteps,
                               keys, record_steps=True)
    params = regeneration.RegenParams(tuple(ell), a=config.get("a"))
    records = [regeneration.extract_from_steps(row, (0,) * law.dim, params, nsteps)
               for row in res.steps]
    out = config.get("out", "regenerations.csv")
    regeneration.records_to_csv(records, out)
    ren = regeneration.renewal_velocity(records)
    if not ren.ok:
        print(f"regen: insufficient data ({ren.reason})", file=sys.stderr)
        return EXIT_NODATA
    direct = regeneration.direct_velocity(res.final, nsteps)
    report = {"renewal_velocity": ren.v, "renewal_ci": [ren.ci_low, ren.ci_high],
              "direct_velocity": direct.v,
              "direct_ci": [direct.ci_low, direct.ci_high],
              "walks": walks, "steps": nsteps,
              "n_certified": int(sum(r.n_certified() for r in records))}
    write_json(str(out) + ".velocity.json", report, config)
    proj = float(ren.v @ np.ones(law.dim))
    print(f"regen: renewal velocity . ones = {proj:.4f} -> {out}")
    return EXIT_OK


def cmd_hypercube(args) -> int:
    config = load_config(args, {"replicates": 100, "moments": 2})
    law = _resolve_law(config)
    seed = int(config["seed"])
    cube = UnitHypercube((0,) * law.dim)
    seeds = rng.derive_keys(seed, "hc", n=int(config["replicates"])).tolist()
    ana = hypercube.analyze_batch(law, seeds, cube, int(config["moments"]))
    out = config.get("out", "hypercube.csv")
    m = 1 << law.dim
    header = (["replicate", "seed"] + [f"Q_{j}" for j in range(m)]
              + [f"Qtilde_row_{j}" for j in range(m)]
              + [f"mean_exit_{j}" for j in range(m)]
              + [f"moment{k}_corner0" for k in range(1, int(config["moments"]) + 1)])
    rows = []
    for r in range(len(seeds)):
        rows.append([r, seeds[r]] + list(ana.Q[r]) + list(ana.Qtilde_row[r])
                    + list(ana.mean_exit[r])
                    + [ana.moments[r, k, 0] for k in range(1, int(config["moments"]) + 1)])
    write_csv(out, header, rows, config)
    print(f"hypercube: mean exit from corner 0 = {fmt(ana.mean_exit[:, 0].mean())} "
          f"over {len(seeds)} replicates -> {out}")
    return EXIT_OK


def cmd_criteria(args) -> int:
    config = load_config(args, {"replicates": 1000})
    law = _resolve_law(config)
    seed, reps = int(config["seed"]), int(config["replicates"])
    name = config.get("criterion")
    out = config.get("out", f"criterion_{name}.json")
    if name in ("e0", "eprime1", "eprime1_probe", "ktilde1"):
        if name == "e0":
            rep = criteria.check_e0(law, config.get("etas", 0.1), reps, seed)
        elif name == "eprime1":
            if "phi" not in config:
                raise ParameterError("criterion eprime1 needs phi (2d positive "
                                     "weights) in the config")
            rep = criteria.check_eprime(law, config["phi"], reps, seed)
        elif name == "eprime1_probe":
            exponent = config.get("exponent")   # not cast: 1 keeps "^1" names
            if isinstance(exponent, (bool, str, list, dict)):   # JSON non-numbers
                raise ParameterError(f"exponent must be a number, got {exponent!r}")
            rep = criteria.eprime_probe(law, exponent, reps, seed)
        else:
            rep = criteria.check_ktilde(law, float(config.get("exponent", 2.0)),
                                        reps, seed)
        write_json(out, rep.to_dict(), config)
        print(f"criteria {name}: {rep.verdict} -> {out}")
        return EXIT_OK
    if name == "slab":
        ell = default_ell(law)
        rep = criteria.slab_exit(law, ell, float(config.get("b", 1.0)),
                                 config.get("L_grid", [8, 16, 32]),
                                 int(config.get("walk_budget", 30000)),
                                 int(config.get("slab_replicates", 2)), seed,
                                 estimator=config.get("estimator", "splitting"))
        write_json(out, rep.to_dict(), config)
        print(f"criteria slab: estimates {['%.3g' % e for e in rep.estimates]} -> {out}")
        return EXIT_OK
    if name == "pm":
        ell = default_ell(law)
        rep = criteria.polynomial_condition(law, ell, float(config.get("M", 1)),
                                            config.get("L_grid", [8, 16]),
                                            int(config.get("walk_budget", 20000)),
                                            reps, seed)
        write_json(out, rep.to_dict(), config)
        print(f"criteria pm: {rep.verdict} -> {out}")
        return EXIT_OK
    raise ParameterError(f"unknown criterion {name!r}")


def cmd_paths(args) -> int:
    config = load_config(args, {"replicates": 100, "n": 5})
    law = _resolve_law(config)
    seed, reps, n = int(config["seed"]), int(config["replicates"]), int(config["n"])
    policy = criteria.EprimePolicy()
    rows = []
    for r in range(reps):
        env = Environment(law, rng.derive_key(seed, "paths", r))
        mmh = criteria.discover(env, policy)
        bundle = criteria.paths(env, mmh, n)
        for rec in bundle.records:
            rows.append([r, rec.offset_bits, rec.pi, rec.qtilde, rec.prod_q])
    out = config.get("out", "paths.csv")
    write_csv(out, ["replicate", "corner", "pi", "qtilde", "prod_q"], rows, config)
    print(f"paths: {reps} replicates, bundle size {n} -> {out}")
    return EXIT_OK


def cmd_acceptance(args) -> int:
    from . import acceptance
    config = load_config(args, {"out_dir": "acceptance_out", "seed": 42})
    results, summary_path = acceptance.run_all(int(config["seed"]),
                                               str(config["out_dir"]))
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.number:2d} {r.name} ({r.seconds:.1f}s)")
    n_fail = sum(not r.passed for r in results)
    print(f"acceptance: {len(results) - n_fail}/{len(results)} criteria passed "
          f"-> {summary_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rwre",
                                description="random walks in random environments")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="master seed (mandatory)")
        sp.add_argument("--law", help="law kind (uniform, expl, trap_sym, ...)")
        sp.add_argument("--d", type=int, help="lattice dimension parameter")
        sp.add_argument("--eps", type=float, help="drift parameter for expl")
        sp.add_argument("--out", help="output path")

    sp = sub.add_parser("walk", help="batch walks, final positions CSV")
    common(sp)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--walks", type=int)
    sp.add_argument("--dump-trajectory", dest="dump_trajectory",
                    action="store_true", default=None)
    sp.set_defaults(func=cmd_walk)

    sp = sub.add_parser("regen", help="regeneration extraction and velocity")
    common(sp)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--walks", type=int)
    sp.add_argument("--ell", help='"auto" or JSON list')
    sp.add_argument("--a", type=float, help="ladder step")
    sp.set_defaults(func=cmd_regen)

    sp = sub.add_parser("hypercube", help="exact quenched cube analysis CSV")
    common(sp)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--moments", type=int)
    sp.set_defaults(func=cmd_hypercube)

    sp = sub.add_parser("criteria", help="criterion reports (JSON)")
    common(sp)
    sp.add_argument("--criterion", required=True,
                    help="e0 | eprime1 | eprime1_probe | ktilde1 | slab | pm")
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--exponent", type=float)
    sp.set_defaults(func=cmd_criteria)

    sp = sub.add_parser("paths", help="escape path bundles CSV")
    common(sp)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--n", type=int)
    sp.set_defaults(func=cmd_paths)

    sp = sub.add_parser("acceptance", help="run the full acceptance suite")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--seed", type=int, help="master seed (default 42)")
    sp.add_argument("--out-dir", dest="out_dir")
    sp.set_defaults(func=cmd_acceptance)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARAM if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except hypercube.DegenerateEnvironmentError as exc:
        print(f"degenerate environment: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ParameterError, ValueError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())

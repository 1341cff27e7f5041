"""Experiment runner: config-driven subcommands.

Subcommands: walk, regen, hypercube, criteria, paths, acceptance.
Configuration is a JSON tree (see ``--config``); every flag overrides the
corresponding config entry.  The master seed is mandatory (never the
clock), outputs are CSV (tabular) and JSON (reports), and every output
file embeds the config hash and tool version, so identical configs yield
byte-identical artifacts.  Three files have no such header: ``regen``'s
regeneration CSV and the acceptance suite's ``c01_regenerations_sample.csv``
(both from ``regeneration.records_to_csv``) and ``walk``'s ``.traj.csv``
(``walk.trajectory_to_csv``).

Exit codes: 0 completed, 1 internal failure (with its traceback),
2 parameter/usage error, 3 insufficient data, 4 degenerate environment
(a corner set with no escape route).
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
from .errors import ParameterError
from .lattice import UnitHypercube

EXIT_OK, EXIT_PARAM, EXIT_NODATA, EXIT_DEGENERATE = 0, 2, 3, 4

_REQUIRED = object()


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _param(config: dict, key: str, kind, default=_REQUIRED, at_least=None):
    """The config value under ``key``, checked against the JSON type its
    use needs; ``default`` when the key is absent or null, if one is given.

    ``kind`` is ``int`` (an integral number, returned as an int), ``float``
    (a number, returned as a float), ``"number"`` (a number as written,
    since 1 and 1.0 name estimates differently) or ``"list"`` (a list of
    numbers as written).  A number below ``at_least``, when that is given,
    and any other value is a :class:`ParameterError`.
    """
    val = config.get(key)
    if val is None and default is not _REQUIRED:
        return default
    if kind == "list":
        if isinstance(val, list) and all(_is_number(v) for v in val):
            return val
        raise ParameterError(f"{key} must be a list of numbers, got {val!r}")
    if kind is int:
        if not (_is_number(val) and float(val).is_integer()):
            raise ParameterError(f"{key} must be an integer, got {val!r}")
        val = int(val)
    elif not _is_number(val):
        raise ParameterError(f"{key} must be a number, got {val!r}")
    elif kind is float:
        val = float(val)
    if at_least is not None and val < at_least:
        raise ParameterError(f"{key} must be >= {at_least}, got {val!r}")
    return val


def law_from_spec(spec: dict):
    """Build a site law from its tagged config record."""
    kind = spec.get("kind")
    try:
        if kind == "uniform":
            return UniformDrift(_param(spec, "d", int),
                                _param(spec, "strength", float, 0.0),
                                _param(spec, "axis", int, 1))
        if kind == "expl":
            return Expl(_param(spec, "d", int), _param(spec, "eps", float))
        if kind == "trap_sym":
            return TrapSym(_param(spec, "d", int),
                           _param(spec, "tail_exponent", float, None))
        if kind == "trap_transient":
            return TrapTransient(_param(spec, "d", int))
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
    seed = _param(config, "seed", int)
    env = Environment(law, seed)
    keys = walk.walk_keys(rng.derive_key(seed, "cli_walk"),
                          _param(config, "walks", int, at_least=1))
    res = walk.run_fixed_batch(env, np.zeros(law.dim, dtype=np.int64),
                               _param(config, "steps", int), keys,
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
    seed = _param(config, "seed", int)
    env = Environment(law, rng.derive_key(seed, "regen_env"))
    # the direct velocity's interval needs two walks
    nsteps, walks = (_param(config, "steps", int),
                     _param(config, "walks", int, at_least=2))
    ell = _regen_ell(config.get("ell", "auto"), law)
    config["ell"] = [float(v) for v in ell]
    params = regeneration.RegenParams(tuple(ell), a=_param(config, "a", float, None))
    keys = walk.walk_keys(rng.derive_key(seed, "regen_walks"), walks)
    records, ren, direct = regeneration.run_regenerations(env, keys, nsteps, params)
    out = config.get("out", "regenerations.csv")
    regeneration.records_to_csv(records, out)
    if not ren.ok:
        print(f"regen: insufficient data ({ren.reason})", file=sys.stderr)
        return EXIT_NODATA
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
    seed = _param(config, "seed", int)
    moments = _param(config, "moments", int)
    cube = UnitHypercube((0,) * law.dim)
    seeds = rng.derive_keys(seed, "hc", n=_param(config, "replicates", int,
                                                 at_least=1)).tolist()
    ana = hypercube.analyze_batch(law, seeds, cube, moments)
    out = config.get("out", "hypercube.csv")
    m = 1 << law.dim
    header = (["replicate", "seed"] + [f"Q_{j}" for j in range(m)]
              + [f"Qtilde_row_{j}" for j in range(m)]
              + [f"mean_exit_{j}" for j in range(m)]
              + [f"moment{k}_corner0" for k in range(1, moments + 1)])
    rows = []
    for r in range(len(seeds)):
        rows.append([r, seeds[r]] + list(ana.Q[r]) + list(ana.Qtilde_row[r])
                    + list(ana.mean_exit[r])
                    + [ana.moments[r, k, 0] for k in range(1, moments + 1)])
    write_csv(out, header, rows, config)
    print(f"hypercube: mean exit from corner 0 = {fmt(ana.mean_exit[:, 0].mean())} "
          f"over {len(seeds)} replicates -> {out}")
    return EXIT_OK


# Per command-line flag, the criteria that do not read it, each with the
# config key that sets what it reads instead (None: it reads nothing alike).
# Config keys are not checked: one config may describe several criteria.
_UNREAD_FLAGS = {"replicates": {"slab": "slab_replicates"},
                 "exponent": {"e0": "etas", "eprime1": "phi", "pm": "M", "slab": None}}


def cmd_criteria(args) -> int:
    config = load_config(args, {"replicates": 1000})
    law = _resolve_law(config)
    seed = _param(config, "seed", int)
    reps = _param(config, "replicates", int, at_least=1)
    name = config.get("criterion")
    for flag, unread in _UNREAD_FLAGS.items():
        if getattr(args, flag) is not None and name in unread:
            key = unread[name]
            raise ParameterError(f"criterion {name} does not read --{flag}"
                                 + (f"; set {key} in the config" if key else ""))
    out = config.get("out", f"criterion_{name}.json")
    if name == "e0":
        # one eta for every direction, or a list of 2d
        etas = _param(config, "etas",
                     "list" if isinstance(config.get("etas"), list) else "number",
                     0.1)
        rep = criteria.check_e0(law, etas, reps, seed)
    elif name == "eprime1":
        phi = _param(config, "phi", "list", None)
        if phi is None:
            raise ParameterError("criterion eprime1 needs phi (2d positive "
                                 "weights) in the config")
        rep = criteria.check_eprime(law, phi, reps, seed)
    elif name == "eprime1_probe":
        rep = criteria.eprime_probe(law, _param(config, "exponent", "number", None),
                                    reps, seed)
    elif name == "ktilde1":
        rep = criteria.check_ktilde(law, _param(config, "exponent", float, 2.0),
                                    reps, seed)
    elif name == "slab":
        rep = criteria.slab_exit(law, default_ell(law), _param(config, "b", float, 1.0),
                                 _param(config, "L_grid", "list", [8, 16, 32]),
                                 _param(config, "walk_budget", int, 30000),
                                 _param(config, "slab_replicates", int, 2), seed,
                                 estimator=config.get("estimator", "splitting"))
    elif name == "pm":
        rep = criteria.polynomial_condition(law, default_ell(law),
                                            _param(config, "M", float, 1.0),
                                            _param(config, "L_grid", "list", [8, 16]),
                                            _param(config, "walk_budget", int, 20000),
                                            reps, seed)
    else:
        raise ParameterError(f"unknown criterion {name!r}")
    write_json(out, rep.to_dict(), config)
    summary = (f"estimates {['%.3g' % e for e in rep.estimates]}" if name == "slab"
               else rep.verdict)
    print(f"criteria {name}: {summary} -> {out}")
    return EXIT_OK


def cmd_paths(args) -> int:
    config = load_config(args, {"replicates": 100, "n": 5})
    law = _resolve_law(config)
    seed, reps, n = (_param(config, "seed", int),
                     _param(config, "replicates", int, at_least=1),
                     _param(config, "n", int, at_least=1))
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
    results, summary_path = acceptance.run_all(_param(config, "seed", int),
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
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from rwre import cli, criteria, hypercube, rng, walk
from rwre.environment import Dirichlet, Environment, TrapTransient, UniformDrift

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return cli.main(argv)


def test_missing_seed_is_parameter_error(tmp_path, capsys):
    code = run(["walk", "--law", "uniform", "--d", "2",
                "--out", str(tmp_path / "w.csv")])
    assert code == cli.EXIT_PARAM
    assert "seed" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # scipy is imported by the few functions that call it, so a CLI run
    # that never reaches one does not pay for the import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys, rwre, rwre.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_intervals_load_no_scipy_stats():
    # the binomial interval and the slab fit's t quantile evaluate
    # scipy.special alone; scipy.stats would add about 0.5 s to first use
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys; from rwre import criteria, stats; "
            "assert 0 < stats.binomial_ci(3, 10)[0]; "
            "fit = criteria._fit_decay([4, 8, 12], [1e-2, 1e-4, 3e-6], [0.1] * 3, 1.0); "
            "assert fit.slope_ci[0] < fit.slope; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_unknown_flag_is_usage_error():
    assert run(["walk", "--nonsense"]) == cli.EXIT_PARAM
    assert run(["frobnicate"]) == cli.EXIT_PARAM


def test_bad_law_parameter_error(tmp_path):
    code = run(["walk", "--law", "expl", "--d", "2", "--eps", "0.05",
                "--seed", "1", "--out", str(tmp_path / "w.csv")])
    assert code == cli.EXIT_PARAM


def test_walk_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["walk", "--law", "expl", "--d", "2", "--eps", "0.25",
            "--steps", "500", "--walks", "8", "--seed", "7"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes().replace(b"a.csv", b"") == \
        out2.read_bytes().replace(b"b.csv", b"")
    head = out1.read_text().splitlines()[0]
    assert head.startswith("# rwre ") and "config_hash=" in head


def test_walk_trajectory_dump(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["walk", "--law", "uniform", "--d", "2", "--steps", "50",
                "--walks", "2", "--seed", "3", "--out", str(out),
                "--dump-trajectory"]) == 0
    lines = (tmp_path / "w.csv.traj.csv").read_text().splitlines()
    assert lines[0] == "step,x_1,x_2" and len(lines) == 52


def test_regen_subcommand_velocity(tmp_path):
    out = tmp_path / "regen.csv"
    code = run(["regen", "--law", "expl", "--d", "2", "--eps", "0.2",
                "--steps", "20000", "--walks", "10", "--seed", "42",
                "--out", str(out)])
    assert code == 0
    rep = json.loads((tmp_path / "regen.csv.velocity.json").read_text())
    v = rep["renewal_velocity"]
    assert abs(v[0] + v[1] - 0.6) < 0.03
    assert rep["config_hash"]
    first = out.read_text().splitlines()[1]
    assert first.split(",")[0] == "0"


def test_regen_insufficient_data(tmp_path):
    # symmetric law: no certified regenerations worth estimating
    code = run(["regen", "--law", "uniform", "--d", "2", "--steps", "200",
                "--walks", "3", "--seed", "5",
                "--out", str(tmp_path / "r.csv")])
    assert code == cli.EXIT_NODATA


REGEN_SHORT = ["regen", "--law", "expl", "--d", "2", "--eps", "0.2",
               "--steps", "2000", "--walks", "5", "--seed", "1"]


def test_regen_ell_flag_takes_a_json_list(tmp_path):
    # the flag and the config entry name the same direction, so the same bytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"ell": [2, 0]}')
    flag, conf, auto = (tmp_path / f"{n}.csv" for n in ("flag", "conf", "auto"))
    assert run(REGEN_SHORT + ["--ell", "[2, 0]", "--out", str(flag)]) == cli.EXIT_OK
    assert run(REGEN_SHORT + ["--config", str(cfg), "--out", str(conf)]) == cli.EXIT_OK
    assert run(REGEN_SHORT + ["--ell", "auto", "--out", str(auto)]) == cli.EXIT_OK
    for name in ("{}.csv", "{}.csv.velocity.json"):
        assert (tmp_path / name.format("flag")).read_bytes() == \
            (tmp_path / name.format("conf")).read_bytes()
    assert flag.read_bytes() != auto.read_bytes()   # e_1, not the diagonal


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("ell", ["[0, 0]", "[1]", "[1, 1, 1]", "[1, NaN]",
                                 "[1, Infinity]", "[[1, 1]]", '"north"'])
def test_regen_rejects_bad_ell(tmp_path, capsys, via, ell):
    # a bad direction is a parameter error before any walk or file
    outdir = tmp_path / "out"
    outdir.mkdir()
    if via == "flag":
        extra = ["--ell", ell]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ell": %s}' % ell)
        extra = ["--config", str(cfg)]
    assert run(REGEN_SHORT + extra + ["--out", str(outdir / "r.csv")]) == cli.EXIT_PARAM
    assert "ell must be" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


def test_hypercube_subcommand(tmp_path):
    out = tmp_path / "hc.csv"
    assert run(["hypercube", "--law", "uniform", "--d", "2",
                "--replicates", "3", "--moments", "2", "--seed", "1",
                "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1].startswith("replicate,seed,")
    cells = rows[2].split(",")
    assert float(cells[10]) == 2.0   # mean exit of the uniform law


def test_degenerate_environment_exit_code(tmp_path, capsys):
    # two deterministic corners pointing at each other: no escape route
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"law": {"kind": "table_mixture",
                                       "entries": [[1, [1, 0]], [1, [0, 1]]]},
                               "replicates": 20, "seed": 1,
                               "out": str(tmp_path / "hc.csv")}))
    assert run(["hypercube", "--config", str(cfg)]) == cli.EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert err.startswith("degenerate environment:") and "parameter error" not in err


def test_criteria_subcommand(tmp_path):
    out = tmp_path / "kt.json"
    assert run(["criteria", "--criterion", "ktilde1", "--law", "expl",
                "--d", "2", "--eps", "0.2", "--replicates", "2000",
                "--seed", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "satisfied-empirically"
    assert doc["version"] and doc["config_hash"]


def test_paths_subcommand(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["paths", "--law", "uniform", "--d", "2", "--replicates", "5",
                "--n", "3", "--seed", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "replicate,corner,pi,qtilde,prod_q"
    assert len(lines) == 2 + 5 * 4


def test_config_file_round_trip(tmp_path):
    cfg = {"law": {"kind": "expl", "d": 2, "eps": 0.25},
           "steps": 300, "walks": 4, "seed": 11}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert json.loads(path.read_text()) == cfg   # lossless round trip
    out = tmp_path / "o.csv"
    assert run(["walk", "--config", str(path), "--out", str(out)]) == 0
    assert out.exists()


def test_flag_overrides_config(tmp_path):
    cfg = {"law": {"kind": "uniform", "d": 2}, "steps": 10, "walks": 2,
           "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    assert run(["walk", "--config", str(path), "--steps", "25",
                "--out", str(out)]) == 0
    # 2 walks recorded regardless; the override shows in the hash line only
    assert len(out.read_text().splitlines()) == 2 + 2


def test_acceptance_subcommand_wiring(tmp_path, monkeypatch, capsys):
    # the full driver is exercised by test_acceptance; here only the CLI glue
    from rwre import acceptance as acc

    def stub(seed, outdir):
        assert seed == 9
        path = str(tmp_path / "summary.json")
        open(path, "w").write("{}")
        return [acc.CriterionResult(1, "stub", True, 0.0, {})], path

    monkeypatch.setattr(acc, "run_all", stub)
    assert run(["acceptance", "--seed", "9",
                "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS  1 stub" in out


def test_acceptance_seed_precedence(tmp_path, monkeypatch):
    # flag > config > default 42
    from rwre import acceptance as acc
    seen = []

    def stub(seed, outdir):
        seen.append(seed)
        return [], str(tmp_path / "summary.json")

    monkeypatch.setattr(acc, "run_all", stub)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7}))
    base = ["acceptance", "--out-dir", str(tmp_path)]
    assert run(base + ["--config", str(path)]) == 0
    assert run(base + ["--config", str(path), "--seed", "9"]) == 0
    assert run(base) == 0
    assert seen == [7, 9, 42]


@pytest.mark.parametrize("content", [None, "[1, 2]", "7"],
                         ids=["missing", "list", "number"])
def test_unusable_config_is_parameter_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "w.csv"
    code = run(["walk", "--config", str(path), "--law", "uniform", "--d", "2",
                "--seed", "1", "--out", str(out)])
    assert code == cli.EXIT_PARAM
    assert capsys.readouterr().err.startswith("parameter error:")
    assert list(tmp_path.iterdir()) == ([] if content is None else [path])


@pytest.mark.parametrize("exponent", ["0.3", True, [0.3]], ids=repr)
def test_eprime_probe_rejects_non_number_exponent(tmp_path, capsys, exponent):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exponent": exponent}))
    out = tmp_path / "probe.json"
    code = run(["criteria", "--config", str(cfg), "--criterion", "eprime1_probe",
                "--law", "expl", "--d", "2", "--eps", "0.2", "--replicates", "50",
                "--seed", "1", "--out", str(out)])
    assert code == cli.EXIT_PARAM
    assert "exponent must be a number" in capsys.readouterr().err
    assert not out.exists()


def test_eprime_probe_keeps_an_integer_exponent(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exponent": 1}))
    out = tmp_path / "probe.json"
    assert run(["criteria", "--config", str(cfg), "--criterion", "eprime1_probe",
                "--law", "expl", "--d", "2", "--eps", "0.2", "--replicates", "50",
                "--seed", "1", "--out", str(out)]) == 0
    names = [e["name"] for e in json.loads(out.read_text())["estimates"]]
    assert names[0] == "inv_moment_p(e_1)^1"


@pytest.fixture
def no_walks(monkeypatch):
    """Fail the test if a walk or a hypercube discovery starts."""

    def fail(*args, **kwargs):
        raise AssertionError("work began before the parameters were checked")

    monkeypatch.setattr(walk, "run_fixed_batch", fail)
    monkeypatch.setattr(criteria, "discover", fail)


# A config value of the wrong JSON type is a parameter error for every
# subcommand that reads it, found before any walk, and nothing is written.
WRONG_TYPES = [
    (["walk", "--law", "uniform", "--d", "2"], {"steps": [10]},
     "steps must be an integer"),
    (["walk", "--law", "uniform", "--d", "2"], {"walks": "10"},
     "walks must be an integer"),
    (["walk"], {"law": {"kind": "uniform", "d": 2.5}}, "d must be an integer"),
    (["regen", "--law", "expl", "--d", "2", "--eps", "0.2"], {"steps": 1.5},
     "steps must be an integer"),
    (["regen", "--law", "expl", "--d", "2", "--eps", "0.2"], {"a": [5]},
     "a must be a number"),
    (["hypercube", "--law", "uniform", "--d", "2"], {"moments": True},
     "moments must be an integer"),
    (["criteria", "--criterion", "ktilde1", "--law", "expl", "--d", "2", "--eps", "0.2"],
     {"exponent": [2]}, "exponent must be a number"),
    (["criteria", "--criterion", "e0", "--law", "expl", "--d", "2", "--eps", "0.2"],
     {"etas": {"e1": 0.1}}, "etas must be a number"),
    (["criteria", "--criterion", "eprime1", "--law", "expl", "--d", "2", "--eps", "0.2"],
     {"phi": [0.1, "0.1", 0.1, 0.1]}, "phi must be a list of numbers"),
    (["criteria", "--criterion", "slab", "--law", "uniform", "--d", "2"],
     {"L_grid": 8}, "L_grid must be a list of numbers"),
    (["criteria", "--criterion", "pm", "--law", "uniform", "--d", "2"],
     {"walk_budget": "20000"}, "walk_budget must be an integer"),
    (["criteria", "--criterion", "pm", "--law", "uniform", "--d", "2"],
     {"replicates": None}, "replicates must be an integer"),
    (["paths", "--law", "uniform", "--d", "2"], {"n": [5]}, "n must be an integer"),
    (["acceptance"], {"seed": "42"}, "seed must be an integer"),
]


@pytest.mark.parametrize("argv, config, message", WRONG_TYPES,
                         ids=[f"{a[0]}-{next(iter(c))}" for a, c, _ in WRONG_TYPES])
def test_wrong_json_type_is_parameter_error(tmp_path, capsys, no_walks,
                                            argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    seed = [] if "seed" in config else ["--seed", "1"]
    target = ["--out-dir", str(out)] if argv[0] == "acceptance" else ["--out", str(out)]
    code = run(argv + ["--config", str(cfg)] + seed + target)
    assert code == cli.EXIT_PARAM
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv, message", [
    (["regen", "--law", "expl", "--d", "2", "--eps", "0.2", "--a", "100"],
     "outside the mandated interval"),
    (["paths", "--law", "uniform", "--d", "2", "--n", "0"], "n must be >= 1"),
], ids=["regen-a", "paths-n"])
def test_out_of_range_parameter_is_found_before_any_walk(tmp_path, capsys, no_walks,
                                                         argv, message):
    assert run(argv + ["--seed", "1", "--out", str(tmp_path / "out")]) == cli.EXIT_PARAM
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# A run of no walks or replicates has nothing to estimate, and regen's
# direct velocity interval needs two walks: each size is a parameter error,
# found before any work (a hypercube solve, too, would write NaN).
EMPTY_RUNS = [
    (["walk", "--law", "uniform", "--d", "2", "--walks", "0", "--dump-trajectory"],
     "walks must be >= 1"),
    (["regen", "--law", "expl", "--d", "2", "--eps", "0.2", "--walks", "1"],
     "walks must be >= 2"),
    (["hypercube", "--law", "trap_sym", "--d", "2", "--replicates", "0"],
     "replicates must be >= 1"),
    (["criteria", "--criterion", "e0", "--law", "expl", "--d", "2", "--eps", "0.2",
      "--replicates", "0"], "replicates must be >= 1"),
    (["paths", "--law", "expl", "--d", "2", "--eps", "0.2", "--replicates", "-1"],
     "replicates must be >= 1"),
]


@pytest.mark.parametrize("argv, message", EMPTY_RUNS, ids=[
    "walk-walks", "regen-walks", "hypercube-replicates", "criteria-replicates",
    "paths-replicates"])
def test_empty_runs_are_parameter_errors(tmp_path, capsys, monkeypatch, no_walks,
                                         argv, message):
    def fail(*args, **kwargs):
        raise AssertionError("work began before the parameters were checked")

    monkeypatch.setattr(hypercube, "analyze_batch", fail)
    monkeypatch.setattr(criteria, "check_e0", fail)
    assert run(argv + ["--seed", "1", "--out", str(tmp_path / "out")]) == cli.EXIT_PARAM
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["pm", "slab"])
def test_an_empty_L_grid_is_a_parameter_error(tmp_path, capsys, no_walks, name):
    # no length to estimate is a user error, found before anything is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L_grid": []}))
    code = run(["criteria", "--criterion", name, "--law", "uniform", "--d", "2",
                "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_PARAM
    assert "L_grid nonempty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_internal_value_error_is_not_a_parameter_error(tmp_path, capsys, monkeypatch):
    # a ValueError from inside the program is a bug, not a user error: it
    # leaves cli.main with its traceback instead of exit code 2
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(criteria, "check_ktilde", boom)
    with pytest.raises(ValueError, match="boom"):
        run(["criteria", "--criterion", "ktilde1", "--law", "expl", "--d", "2",
             "--eps", "0.2", "--replicates", "50", "--seed", "1",
             "--out", str(tmp_path / "k.json")])
    assert "parameter error" not in capsys.readouterr().err


def test_internal_failure_exits_1_with_its_traceback(tmp_path):
    code = ("import sys\n"
            "from rwre import cli, criteria\n"
            "def boom(*args, **kwargs):\n"
            "    raise ValueError('boom')\n"
            "criteria.check_ktilde = boom\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, "criteria", "--criterion", "ktilde1",
                           "--law", "expl", "--d", "2", "--eps", "0.2", "--seed", "1",
                           "--out", str(tmp_path / "k.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "ValueError: boom" in proc.stderr
    assert "parameter error" not in proc.stderr


# A command-line flag that the chosen criterion does not read is a parameter
# error that names the config key to use, found before any work.
UNREAD_FLAGS = [
    ("slab", ["--replicates", "7"],
     "criterion slab does not read --replicates; set slab_replicates in the config"),
    ("e0", ["--exponent", "0.3"], "does not read --exponent; set etas"),
    ("eprime1", ["--exponent", "0.3"], "does not read --exponent; set phi"),
    ("pm", ["--exponent", "2"], "does not read --exponent; set M"),
    ("slab", ["--exponent", "2"], "criterion slab does not read --exponent"),
]


@pytest.mark.parametrize("name, flag, message", UNREAD_FLAGS,
                         ids=[f"{n}{f[0][1:]}" for n, f, _ in UNREAD_FLAGS])
def test_criteria_rejects_a_flag_it_does_not_read(tmp_path, capsys, monkeypatch,
                                                  name, flag, message):
    def fail(*args, **kwargs):
        raise AssertionError("work began before the flags were checked")

    for estimator in ("check_e0", "check_eprime", "slab_exit", "polynomial_condition"):
        monkeypatch.setattr(criteria, estimator, fail)
    code = run(["criteria", "--criterion", name, "--law", "expl", "--d", "2",
                "--eps", "0.2", "--seed", "1", "--out", str(tmp_path / "c.json")] + flag)
    assert code == cli.EXIT_PARAM
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_criteria_config_keys_are_not_checked_per_criterion(tmp_path, monkeypatch):
    # one config may describe several criteria, so slab leaves a config's
    # replicates and exponent unread and runs its slab_replicates
    seen = []

    def slab_exit(law, ell, b, L_grid, walk_budget, replicates, *args, **kwargs):
        seen.append(replicates)
        return criteria.SlabExitReport([], [], [], [], {}, "splitting")

    monkeypatch.setattr(criteria, "slab_exit", slab_exit)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replicates": 7, "exponent": 2.0}))
    assert run(["criteria", "--criterion", "slab", "--config", str(cfg), "--law", "expl",
                "--d", "2", "--eps", "0.2", "--seed", "1",
                "--out", str(tmp_path / "c.json")]) == cli.EXIT_OK
    assert seen == [2]


@pytest.mark.parametrize("spec, law", [
    ({"kind": "trap_transient", "d": 2}, TrapTransient(2)),
    ({"kind": "dirichlet", "weights": [1, 2.5, 1, 0.5]}, Dirichlet((1.0, 2.5, 1.0, 0.5)))],
    ids=["trap_transient", "dirichlet"])
def test_config_laws_walk(tmp_path, spec, law):
    # a law given only in a config file: the walk's bytes are those of the
    # law built directly, under the same seed
    assert cli.law_from_spec(spec) == law
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"law": spec, "steps": 40, "walks": 3, "seed": 5}))
    out = tmp_path / "w.csv"
    assert run(["walk", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    env = Environment(law, 5)
    keys = walk.walk_keys(rng.derive_key(5, "cli_walk"), 3)
    final = walk.run_fixed_batch(env, np.zeros(law.dim, dtype=np.int64), 40, keys).final
    rows = out.read_text().splitlines()[2:]
    assert [r.split(",")[1:] for r in rows] == [[str(v) for v in f] for f in final.tolist()]


def test_unknown_law_kind_in_a_config_is_a_parameter_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"law": {"kind": "levy", "d": 2}, "seed": 1}))
    out = tmp_path / "w.csv"
    assert run(["walk", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_PARAM
    assert "unknown law kind 'levy'" in capsys.readouterr().err
    assert not out.exists()


def test_default_ell_of_the_transient_trap_law_is_its_extra_axis():
    assert cli.default_ell(TrapTransient(2)).tolist() == [0.0, 0.0, 1.0]
    assert cli.default_ell(TrapTransient(1)).tolist() == [0.0, 1.0]


def test_json_writer_encodes_numpy_scalars_and_refuses_other_objects(tmp_path):
    path = tmp_path / "j.json"
    cli.write_json(path, {"i": np.int64(3), "f": np.float32(0.5), "b": np.bool_(True),
                          "a": np.arange(2), "t": True}, {})
    doc = json.loads(path.read_text())
    assert [doc[k] for k in "ifbat"] == [3, 0.5, True, [0, 1], True]
    assert type(doc["b"]) is bool and type(doc["i"]) is int
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli.write_json(path, {"x": object()}, {})


@pytest.mark.parametrize("name, config, estimator", [
    ("e0", {"etas": [0.2, 0.3, 0.2, 0.3]},
     lambda law: criteria.check_e0(law, [0.2, 0.3, 0.2, 0.3], 200, 6)),
    ("eprime1", {"phi": [0.1, 0.2, 0.1, 0.2]},
     lambda law: criteria.check_eprime(law, [0.1, 0.2, 0.1, 0.2], 200, 6))])
def test_criteria_e0_and_eprime_report_their_estimator(tmp_path, name, config, estimator):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "c.json"
    assert run(["criteria", "--criterion", name, "--config", str(cfg), "--law", "uniform",
                "--d", "2", "--replicates", "200", "--seed", "6",
                "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    want = json.loads(json.dumps(estimator(UniformDrift(2)).to_dict(),
                                 default=cli._json_default))
    assert {k: doc[k] for k in want} == want

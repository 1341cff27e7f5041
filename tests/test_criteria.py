import json
import re
import warnings
from dataclasses import replace
from math import comb

import numpy as np
import pytest

from rwre import cli, criteria as cr, hypercube as hc, rng
from rwre.environment import (Dirichlet, Environment, Expl, TableMixture,
                              TrapSym, TrapTransient, UniformDrift)
from rwre.errors import ParameterError
from rwre.hypercube import escape_site_probs
from rwre.lattice import (UnitHypercube, _dot, _outward, corner_offsets,
                          rotation_onto_e1, step_vectors)

FORWARD = TableMixture(((1.0, (1.0, 0.0, 0.0, 0.0)),))


class FixedPolicy:
    """Deterministic hypercube and constant marks (reads nothing)."""

    def __init__(self, anchor, marks):
        self.anchor = tuple(int(c) for c in anchor)
        if any(c not in (0, -1) for c in self.anchor):
            raise ValueError("anchor must have coordinates in {0, -1} to contain 0")
        self._marks = np.asarray(marks, dtype=float)

    def choose_next(self, view, prefix):
        cube = UnitHypercube(self.anchor)
        start_bits = cube.corner_index((0,) * len(self.anchor))
        return cube.corners[cr._fill_order(cube.d, start_bits)[len(prefix)]]

    def marks(self, view, cube):
        return self._marks.copy()


# --- discovery and measurability ---------------------------------------------

def test_eprime_policy_positive_event():
    # a law whose origin always has p(0, e_1) large fires A_1
    env = Environment(UniformDrift(2, strength=0.5, axis=1), 3)
    mmh = cr.discover(env, cr.EprimePolicy(delta=0.2))
    assert mmh.x0 == (0, 0)
    assert mmh.meta["event_index"] == 1
    assert cr.audit_measurability(mmh)


def test_eprime_policy_negative_event():
    # all mass on -e_1: the first direction above delta is e_3 = -e_1
    law = TableMixture(((1.0, (0.05, 0.05, 0.85, 0.05)),))
    env = Environment(law, 1)
    mmh = cr.discover(env, cr.EprimePolicy(delta=0.5))
    assert mmh.meta["event_index"] == 3
    assert mmh.x0 == (-1, -1)
    assert (0, 0) in mmh.cube.corners


def test_eprime_policy_partition_covers():
    # some direction always carries at least 1/(2d), so the default delta fires
    env = Environment(Dirichlet((1.0,) * 4), 5)
    for r in range(50):
        mmh = cr.discover(Environment(Dirichlet((1.0,) * 4),
                                      rng.derive_key(7, r)), cr.EprimePolicy())
        assert 1 <= mmh.meta["event_index"] <= 4


def test_fixed_policy_and_marks():
    marks = np.zeros(4)
    marks[2] = 1.5
    env = Environment(UniformDrift(2), 9)
    mmh = cr.discover(env, FixedPolicy((0, -1), marks))
    assert mmh.x0 == (0, -1)
    assert np.array_equal(mmh.marks, marks)
    assert cr.audit_measurability(mmh)
    with pytest.raises(ValueError):
        FixedPolicy((0, 2), marks)


class _CheatingPolicy:
    """Reads a site outside the revealed prefix on the first choice."""

    def choose_next(self, view, prefix):
        view.transitions((5, 5))
        return (1, 0)

    def marks(self, view, cube):
        return np.zeros(1 << cube.d)


def test_measurability_violation_raises():
    env = Environment(UniformDrift(2), 1)
    with pytest.raises(cr.MeasurabilityViolation):
        cr.discover(env, _CheatingPolicy())


class _NonAdjacentPolicy:
    def choose_next(self, view, prefix):
        return (2, 2)

    def marks(self, view, cube):
        return np.zeros(1 << cube.d)


def test_audit_rejects_non_adjacent_choice():
    env = Environment(UniformDrift(2), 1)
    with pytest.raises(cr.MeasurabilityViolation):
        cr.discover(env, _NonAdjacentPolicy())


def test_audit_rejects_tampered_log():
    env = Environment(UniformDrift(2), 4)
    mmh = cr.discover(env, cr.EprimePolicy())
    bad = cr.MarkedMarkovianHypercube(mmh.cube, mmh.x0, mmh.marks,
                                      [(s, ((9, 9),)) for s, _ in mmh.discovery_log],
                                      mmh.mark_reads)
    with pytest.raises(cr.MeasurabilityViolation):
        cr.audit_measurability(bad)


def _log_with_third(mmh, entry):
    log = list(mmh.discovery_log)
    log[2] = entry
    return replace(mmh, discovery_log=log)


# Each case doctors one field of a valid discovery.
DOCTORED_DISCOVERIES = [
    ("short-log", lambda m: replace(m, discovery_log=m.discovery_log[:-1]),
     "does not cover 2^d sites"),
    ("late-origin", lambda m: replace(m, discovery_log=m.discovery_log[1:]
                                      + m.discovery_log[:1]),
     "must start at the origin"),
    ("twice", lambda m: _log_with_third(m, m.discovery_log[1]), "discovered twice"),
    # the step opposite the first one: adjacent to the origin, but the
    # prefix then spans two lattice units along that axis
    ("wide-prefix", lambda m: _log_with_third(
        m, (tuple(-c for c in m.discovery_log[1][0]), ())),
     "no longer fits inside a unit hypercube"),
    ("other-cube", lambda m: replace(m, cube=UnitHypercube((5, 5))),
     "not the stated hypercube"),
    ("anchor", lambda m: replace(m, x0=(9, 9)), "anchor x0 does not match"),
    ("mark-reads", lambda m: replace(m, mark_reads=((7, 7),)),
     "marks used reads outside the hypercube"),
    ("negative-marks", lambda m: replace(m, marks=-np.ones(4)),
     "marks must be nonnegative"),
]


@pytest.mark.parametrize("doctor, message",
                         [c[1:] for c in DOCTORED_DISCOVERIES],
                         ids=[c[0] for c in DOCTORED_DISCOVERIES])
def test_audit_rejects_each_doctored_discovery(doctor, message):
    mmh = cr.discover(Environment(UniformDrift(2), 4), cr.EprimePolicy())
    assert cr.audit_measurability(mmh)
    with pytest.raises(cr.MeasurabilityViolation, match=re.escape(message)):
        cr.audit_measurability(doctor(mmh))


# --- gamma exponents and mark sums --------------------------------------------

def test_gamma_exponents_res1():
    phi = np.array([0.1, 0.2, 0.3, 0.4])
    g = cr.gamma_exponents(phi, 2)
    # corner 0 exits along -e_1, -e_2; corner (1,1) along +e_1, +e_2
    assert g[0] == pytest.approx(0.7)
    assert g[3] == pytest.approx(0.3)
    assert g[1] == pytest.approx(0.1 + 0.4)   # corner e_1 exits +e_1, -e_2
    assert g[2] == pytest.approx(0.2 + 0.3)


def test_mark_sum_formula_on_every_event():
    # the mark construction gives 2 sum(phi) - (phi(e_k) + phi(-e_k)) on A_k
    phi = np.array([0.15, 0.35, 0.25, 0.45])
    gam = cr.gamma_exponents(phi, 2)
    policy = cr.EprimePolicy(delta=1 / 8, phi=phi)
    seen = set()
    for r in range(400):
        env = Environment(Dirichlet((0.6,) * 4), rng.derive_key(11, r))
        mmh = cr.discover(env, policy)
        k = mmh.meta["event_index"]
        seen.add(k)
        opp = (k + 2 - 1) % 4 + 1 if False else (k + 2) if k <= 2 else (k - 2)
        want = 2 * phi.sum() - (phi[k - 1] + phi[opp - 1])
        assert cr.mark_sum(mmh, gam) == pytest.approx(want, abs=1e-12)
    assert len(seen) >= 3   # the partition actually varies


def test_mark_sum_trivial_cases():
    env = Environment(UniformDrift(2), 2)
    mmh = cr.discover(env, cr.EprimePolicy())   # no phi: zero marks
    assert cr.mark_sum(mmh, np.ones(4)) == 0.0
    # argmax-corner construction: marks gamma = (1+eps) at one corner
    eps = 0.5
    marks = np.zeros(4)
    marks[0] = 1 + eps
    mmh2 = cr.discover(env, FixedPolicy((0, 0), marks))
    gammas = np.zeros(4)
    gammas[0] = 1 + eps
    assert cr.mark_sum(mmh2, gammas) == pytest.approx(1 + eps)
    with pytest.raises(ValueError):
        cr.mark_sum(mmh2, np.ones(3))


# --- path bundles ---------------------------------------------------------------

def paths_reference(env, mmh, n):
    """The escape path bundle with each corner's path walked alone, one
    single-site field read per step: the oracle of the lockstep paths."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = env.dim
    corners = np.asarray(mmh.cube.corners, dtype=np.int64)
    rho, qtilde_row = escape_site_probs(env.transitions_batch(corners),
                                        mmh.origin_corner())
    sv = step_vectors(d)
    outward = np.sort(_outward(d), axis=1)     # smallest index first
    records = []
    for j, (corner, exit_dirs) in enumerate(zip(corners, outward)):
        probs = rho[j, exit_dirs % d]
        best = int(np.argmax(probs))                 # first max: smallest index
        y1 = corner + sv[exit_dirs[best]]
        sites = np.empty((n, d), dtype=np.int64)
        sites[0] = y1
        cur = y1.copy()
        prod_q = 1.0
        for i in range(1, n):
            p = env.transitions_at(tuple(int(c) for c in cur))
            vals = p[exit_dirs]
            bi = int(np.argmax(vals))
            prod_q *= float(vals[bi])
            cur = cur + sv[exit_dirs[bi]]
            sites[i] = cur
        pi = float(probs[best]) * prod_q
        records.append(cr.PathRecord(j, tuple(int(c) for c in y1), sites, pi,
                                     float(probs[best]), float(qtilde_row[j]),
                                     prod_q))
    _assert_invariants(records, n)
    return cr.PathBundle(mmh, n, records)


def _assert_invariants(records, n):
    """The bundle check on the arrays of a list of path records."""
    cr._assert_bundle_invariants(np.stack([r.sites for r in records]),
                                 [r.pi for r in records],
                                 [r.qtilde for r in records],
                                 [r.prod_q for r in records], n)


LOCKSTEP_LAWS = [UniformDrift(1), UniformDrift(2), UniformDrift(3), Expl(2, 0.2),
                 Expl(3, 0.2), TrapSym(2), TrapTransient(3), Dirichlet((1.0,) * 6),
                 UniformDrift(4, strength=0.3), Expl(4, 0.2), TrapSym(4)]


def _window_ns(d):
    """Bundle lengths on both sides of the first two window boundaries."""
    step = cr._window_depth(d) + 1
    return sorted({1, 2, 5, 7, 12, 30, step, step + 1, 2 * step, 2 * step + 1})


@pytest.mark.parametrize("law", LOCKSTEP_LAWS, ids=lambda law: law.tag)
def test_paths_equal_the_per_corner_reference(law):
    # same sites, argmax ties and float products, bit for bit
    for seed in (1, 2, 3, 2**40 + 17):
        env = Environment(law, seed)
        mmh = cr.discover(env, cr.EprimePolicy())
        for n in _window_ns(law.dim):
            got, want = cr.paths(env, mmh, n), paths_reference(env, mmh, n)
            assert got.n == want.n and len(got.records) == len(want.records)
            for g, w in zip(got.records, want.records):
                assert (g.offset_bits, g.y1) == (w.offset_bits, w.y1)
                assert g.sites.dtype == w.sites.dtype
                assert g.sites.shape == w.sites.shape == (n, law.dim)
                assert g.sites.tobytes() == w.sites.tobytes()
                assert (g.pi, g.rho_y1, g.qtilde, g.prod_q) == \
                    (w.pi, w.rho_y1, w.qtilde, w.prod_q)


def test_paths_read_the_field_once_per_window(monkeypatch):
    rows = []
    batch = Environment.transitions_batch

    def counting(self, X, idx=None):
        rows.append(len(X))
        return batch(self, X, idx)

    def refuse(self, x):
        raise AssertionError("paths read a single site")

    bundles = [(law, cr.discover(Environment(law, 5), cr.EprimePolicy()))
               for law in (UniformDrift(1, strength=0.3), Expl(2, 0.2),
                           Expl(3, 0.2), Expl(4, 0.2))]
    monkeypatch.setattr(Environment, "transitions_batch", counting)
    monkeypatch.setattr(Environment, "transitions_at", refuse)
    for law, mmh in bundles:
        d, env = law.dim, Environment(law, 5)
        depth = cr._window_depth(d)
        for n in _window_ns(d):
            rows.clear()
            cr.paths(env, mmh, n)
            # one read per window: 2^d paths, each with its current site and
            # every site within k more steps, k = depth but for the last
            assert rows == [(1 << d) * comb(min(depth, n - 1 - s) + d, d)
                            for s in range(0, n, depth + 1)]
            assert max(rows) <= cr._WINDOW_ROWS
    # the default bundle is one read: the corners and depth 4
    rows.clear()
    cr.paths(Environment(Expl(2, 0.2), 5), bundles[1][1], 5)
    assert rows == [60]
    rows.clear()
    cr.paths(Environment(Expl(4, 0.2), 5), bundles[3][1], 200)
    assert len(rows) == -(-200 // (cr._window_depth(4) + 1))
    assert max(rows) <= cr._WINDOW_ROWS


def test_bundle_geometry_is_built_once_and_read_only():
    a = UnitHypercube((0, 0, 0))
    tables = [(_outward(3), _outward(3)), (step_vectors(3), step_vectors(3)),
              (cr._window(3, 2)[0], cr._window(3, 2)[0]),
              (cr._window(3, 2)[1], cr._window(3, 2)[1])]
    for x, y in tables:
        assert x is y
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 7
    assert corner_offsets(3) is corner_offsets(3)
    assert a.corners is UnitHypercube((0, 0, 0)).corners
    assert cr._fill_order(3, 5) is cr._fill_order(3, 5)
    for t in (corner_offsets(3), a.corners, cr._fill_order(3, 5)):
        assert isinstance(t, tuple)
        with pytest.raises(TypeError):
            t[0] = t[1]


def test_paths_and_discover_reject_per_walker_fields():
    # a bundle lives in one quenched field; per-walker seeds would read
    # corner j from walker j's field
    env = Environment(Expl(2, 0.2), np.arange(1, 9, dtype=np.uint64))
    with pytest.raises(ValueError, match="per-walker"):
        cr.discover(env, cr.EprimePolicy())
    mmh = cr.discover(Environment(Expl(2, 0.2), 1), cr.EprimePolicy())
    with pytest.raises(ValueError, match="per-walker"):
        cr.paths(env, mmh, 3)


def test_paths_deterministic_drift():
    env = Environment(FORWARD, 1)
    mmh = cr.discover(env, cr.EprimePolicy(delta=0.5))
    bundle = cr.paths(env, mmh, 4)
    # the corner aligned with +e_1 rides probability-one steps
    best = max(bundle.records, key=lambda r: r.prod_q)
    assert best.prod_q == pytest.approx(1.0)
    for rec in bundle.records:
        assert np.abs(rec.sites[-1]).sum() >= 4


def test_paths_uniform_law_bound_and_disjointness():
    env = Environment(UniformDrift(2), 6)
    mmh = cr.discover(env, cr.EprimePolicy())
    bundle = cr.paths(env, mmh, 2)
    for rec in bundle.records:
        assert rec.pi >= rec.qtilde / 2 * rec.prod_q - 1e-15
        assert rec.prod_q == pytest.approx(0.25)   # Q = 1/4 everywhere
    pts = [tuple(map(tuple, r.sites)) for r in bundle.records]
    flat = [p for path in pts for p in path]
    assert len(flat) == len(set(flat))


def _doctor_endpoint(rec):
    sites = rec.sites.copy()
    sites[-1] = 0
    return replace(rec, sites=sites)


@pytest.mark.parametrize("doctor, message", [
    (lambda recs: [recs[0], replace(recs[1], sites=recs[0].sites)] + recs[2:],
     "path segments intersect"),
    (lambda recs: [_doctor_endpoint(recs[0])] + recs[1:], "closer than n"),
    (lambda recs: [replace(recs[0], pi=0.0)] + recs[1:], "fell below"),
], ids=["intersect", "endpoint", "pi-bound"])
def test_bundle_invariants_reject_doctored_records(doctor, message):
    env = Environment(Expl(2, 0.2), 3)
    bundle = cr.paths(env, cr.discover(env, cr.EprimePolicy()), 3)
    _assert_invariants(bundle.records, 3)
    with pytest.raises(AssertionError, match=message):
        _assert_invariants(doctor(bundle.records), 3)


def test_paths_rejects_bad_n():
    env = Environment(UniformDrift(2), 6)
    mmh = cr.discover(env, cr.EprimePolicy())
    for n in (0, 2.5, 3.0, "3"):
        with pytest.raises(ValueError):
            cr.paths(env, mmh, n)


def test_paths_solves_without_the_full_cube_analysis(monkeypatch):
    # each record's qtilde is the full analysis' Qtilde entry, bit for bit
    cases = []
    for law, seed in ((Expl(2, 0.2), 3), (TrapSym(2), 4), (Dirichlet((1.0,) * 6), 5)):
        env = Environment(law, seed)
        mmh = cr.discover(env, cr.EprimePolicy())
        trans = env.transitions_batch(np.asarray(mmh.cube.corners, dtype=np.int64))
        ana = hc.analyze_transitions(trans[None], 1)
        cases.append((env, mmh, ana.Qtilde[0, mmh.origin_corner()]))

    def refuse(*args, **kwargs):
        raise RuntimeError("paths ran the full cube analysis")

    monkeypatch.setattr(hc, "analyze_transitions", refuse)
    monkeypatch.setattr(cr, "analyze_transitions", refuse, raising=False)
    for env, mmh, want in cases:
        bundle = cr.paths(env, mmh, 3)
        assert [r.qtilde for r in bundle.records] == want.tolist()


# --- attainability ----------------------------------------------------------------

def test_attainability_uniform_never_below_threshold():
    # the escape-path probabilities of the uniform law beat the threshold
    # at every sampled environment once eta is small enough
    pts = cr.attainability(UniformDrift(2), [20.0, 55.0], delta=0.1, eta=0.35,
                           alpha=1.0, eps=1.0, replicates=60, master_seed=5)
    for p in pts:
        assert p.frequency == 0.0
        assert p.below_benchmark


def test_attainability_precondition():
    with pytest.raises(ValueError):
        cr.attainability(UniformDrift(2), [2.0], delta=0.5, eta=0.1,
                         alpha=1.0, eps=1.0, replicates=5, master_seed=1)


# --- moment condition probes ---------------------------------------------------
# The estimates are pinned to the digit: a change to a column's arithmetic,
# salt, cap or name shows here, not only in the verdict.

def assert_estimates(rep, names, values, n, cis=None):
    """Names, sample counts, values (rel 1e-12) and Hill CIs (None: NaN)."""
    assert [e.name for e in rep.estimates] == names
    assert all(e.n == n and e.censored == 0 for e in rep.estimates)
    assert [e.value for e in rep.estimates] == pytest.approx(values, rel=1e-12)
    for e, ci in zip(rep.estimates, cis or [None] * len(names)):
        if ci is None:
            assert np.isnan(e.ci_low) and np.isnan(e.ci_high)
        else:
            assert [e.ci_low, e.ci_high] == pytest.approx(ci, rel=1e-12)


def test_check_e0_uniformly_elliptic():
    rep = cr.check_e0(UniformDrift(2, 0.2), 0.5, 2000, 3)
    assert rep.verdict == "satisfied-empirically"
    # the same vector at every site: constant samples have no tail, so no CI
    assert_estimates(rep, [f"inv_moment_p(e_{i})^0.5" for i in range(1, 5)],
                     [1.5811388300841893, 2.23606797749979, 2.23606797749979,
                      2.23606797749979], 2000)


def test_eprime_probe_expl_infinite_everywhere():
    rep = cr.eprime_probe(Expl(2, 0.2), None, 15_000, 7)
    assert rep.verdict == "violated-empirically"
    assert all(v == "moment-appears-infinite"
               for v in rep.details["per_direction"])
    assert_estimates(rep, [f"inv_moment_p(e_{i})^0.125" for i in range(1, 5)],
                     [38.01791391710576, 136.21796197226743, 68.1021596638882,
                      528.5267873509971], 15_000,
                     [(0.5562408496174363, 0.7962383716064305),
                      (0.5135996224263446, 0.735199019093421),
                      (0.5771154787007242, 0.8261196373937183),
                      (0.6927301511506491, 0.9916177999048906)])
    with pytest.raises(ValueError):
        cr.eprime_probe(Expl(2, 0.2), 0.0, 100, 7)


def test_check_eprime_dirichlet_satisfied():
    # Dirichlet(2,...): E[prod p^-phi] finite whenever each phi < 2
    phi = np.full(4, 0.4)
    rep = cr.check_eprime(Dirichlet((2.0,) * 4), phi, 4000, 9)
    assert rep.params["margin"] == pytest.approx(2.4)
    assert rep.verdict == "satisfied-empirically"
    assert_estimates(rep, [f"exp_moment_excluding_e_{i}" for i in range(1, 5)],
                     [7.199805615265737, 7.321527637489724, 7.288375582712438,
                      7.2814970936865935], 4000,
                     [(3.395950336477013, 5.623080966658713),
                      (2.7566485496612856, 4.564512568063183),
                      (2.67063406986398, 4.422088110611594),
                      (2.664512050660692, 4.411951151513646)])


def test_check_e0_rejects_etas_of_the_wrong_length():
    # one exponent for all 2d directions, or 2d of them
    with pytest.raises(ParameterError, match="etas"):
        cr.check_e0(Expl(2, 0.2), [0.1, 0.2], 50, 1)


def test_check_eprime_rejects_bad_phi():
    with pytest.raises(ValueError):
        cr.check_eprime(UniformDrift(2), np.array([0.1, -0.1, 0.1, 0.1]), 100, 1)


def test_check_ktilde_expl():
    rep = cr.check_ktilde(Expl(2, 0.2), 2.0, 5000, 11)
    assert rep.verdict == "satisfied-empirically"
    assert rep.details["min_Q_sample"] >= 0.1 - 1e-12
    assert_estimates(rep, [f"inv_moment_Q_corner_{j}" for j in range(4)],
                     [65.40159263221017, 27.41283771983596, 26.965270472839347,
                      3.969725058548349], 5000)
    with pytest.raises(ValueError):
        cr.check_ktilde(Expl(2, 0.2), 1.0, 100, 1)


def test_ktilde_and_eprime_report_hill_intervals():
    # heavy-tailed probe columns carry their fitted Hill CI, as the origin
    # probes' do
    reps = [cr.check_ktilde(TrapSym(2), 2.0, 5000, 11),
            cr.check_eprime(TrapSym(2), [0.4] * 4, 4000, 9)]
    for rep in reps:
        assert rep.verdict == "violated-empirically"
        for e in rep.estimates:
            assert np.isfinite(e.ci_low) and np.isfinite(e.ci_high)
            assert 0 < e.ci_low < e.ci_high


def test_moment_conditions_dispatch_and_errors(tmp_path, capsys):
    # the CLI dispatches the moment conditions by criterion name
    base = ["criteria", "--law", "uniform", "--d", "2", "--seed", "1",
            "--replicates", "1000"]
    out = tmp_path / "kt.json"
    assert cli.main(base + ["--criterion", "ktilde1", "--exponent", "2",
                            "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    want = cr.check_ktilde(UniformDrift(2), 2.0, 1000, 1).to_dict()
    assert doc["criterion"] == "Ktilde1"
    assert {k: doc[k] for k in want} == json.loads(
        json.dumps(want, default=cli._json_default))
    assert cli.main(base + ["--criterion", "nonsense"]) == cli.EXIT_PARAM
    # eprime1 without phi is a user error, not a KeyError traceback
    capsys.readouterr()
    assert cli.main(base + ["--criterion", "eprime1",
                            "--out", str(tmp_path / "e.json")]) == cli.EXIT_PARAM
    assert "phi" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()
    with pytest.raises(ValueError):
        cr.check_e0(UniformDrift(2), -1.0, 100, 1)


# --- box and slab estimators ----------------------------------------------------

def test_polynomial_condition_deterministic_forward():
    rep = cr.polynomial_condition(FORWARD, np.array([1.0, 0.0]), 2.0,
                                  [8.0], 2000, 400, 21)
    assert rep.verdict == "satisfied-empirically"
    assert rep.estimates[0].value == 0.0
    # 0 bad exits in 400 bounds the probability by the exact 95% limit
    assert rep.estimates[0].n == 400
    assert rep.estimates[0].ci_high == pytest.approx(1 - 0.025 ** (1 / 400), rel=1e-9)


@pytest.mark.parametrize("L_grid", [[8, 0], [8, -4], []], ids=["0", "-4", "empty"])
def test_polynomial_condition_rejects_a_nonpositive_length(L_grid):
    # an empty grid has no length to estimate, so no verdict to give
    with pytest.raises(ParameterError, match="box length"):
        cr.polynomial_condition(UniformDrift(2), (1, 0), 1.0, L_grid, 100, 10, 1)


def test_polynomial_condition_grid_caps():
    rep = cr.polynomial_condition(FORWARD, np.array([1.0, 0.0]), 1.0,
                                  [10.0], 500, 50, 3)
    for p in rep.details["points"]:
        assert p["Lp"] <= 12.5 + 1e-9
        assert p["Ltilde"] <= 72_000.0


def test_polynomial_condition_unresolved_is_insufficient_data():
    # the forward walk needs 8 steps to leave the box: with a budget of 4
    # no run resolves, and NaN estimates must not read as a violation
    rep = cr.polynomial_condition(FORWARD, np.array([1.0, 0.0]), 2.0,
                                  [8.0], 4, 50, 21)
    assert rep.verdict == "insufficient-data"
    assert rep.estimates[0].n == 0 and np.isnan(rep.estimates[0].value)


def test_polynomial_condition_runs_in_d1():
    # the box has no transverse coordinates in d = 1
    rep = cr.polynomial_condition(UniformDrift(1, 0.5), [1.0], 1.0, [4.0],
                                  200, 50, 3)
    assert rep.verdict == "satisfied-empirically"
    assert all(p["n"] == 50 for p in rep.details["points"])


def test_polynomial_condition_event_reads_the_box_front_form(monkeypatch):
    # rotation_onto_e1(ell)[:, 0] differs from ell in the last bit for most
    # unit vectors in d = 3; at a site whose front value is exactly L the
    # walk left through the front, which x . ell can read as a value < L
    ell = None
    for v in np.random.default_rng(5).normal(size=(50, 3)):
        v = v / np.linalg.norm(v)
        if not np.array_equal(rotation_onto_e1(v)[:, 0], v):
            ell = v
            break
    front = rotation_onto_e1(ell)[:, 0]
    g = np.arange(-12, 13)
    X = np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3)
    by_front, by_ell = _dot(X, front), _dot(X, ell)
    site = X[(by_ell < by_front) & (by_front > 1.0)][0]
    L = float(_dot(site, front))
    runs = []

    def recorded(env, starts, keys, budget, region, event):
        runs.append((region, event))
        return 0, 1, 0

    monkeypatch.setattr(cr, "_exit_share", recorded)
    cr.polynomial_condition(UniformDrift(3), ell, 1.0, [L], 10, 2, 1)
    assert len(runs) == 9
    for region, event in runs:
        assert _dot(site, region.A[:, 0]) == L and not region(site[None])[0]
        assert not event(site[None])[0]
        assert _dot(site, ell) < L


def test_polynomial_condition_symmetric_violated():
    rep = cr.polynomial_condition(UniformDrift(2), np.array([1.0, 0.0]), 2.0,
                                  [16.0], 30_000, 600, 5)
    # a symmetric walk exits backwards with probability of order one
    assert rep.estimates[0].value > 0.2
    assert rep.verdict == "violated-empirically"


def test_slab_exit_deterministic_forward_zero():
    rep = cr.slab_exit(FORWARD, np.array([1.0, 0.0]), 1.0, [4.0, 8.0],
                       2000, 1, 7, estimator="splitting", n_per_level=64,
                       repeats=2)
    assert rep.estimates == [0.0, 0.0]
    assert rep.fits[1.0] is None


def test_slab_exit_symmetric_direct_matches_ruin():
    # symmetric ruin from 0 on {-L..L}: P[back before front] = 1/(1+b)
    rep = cr.slab_exit(UniformDrift(2), np.array([1.0, 0.0]), 1.0, [6.0],
                       200_000, 1, 9, estimator="direct", direct_runs=4000)
    want = 0.5
    assert abs(rep.estimates[0] - want) < 4 * np.sqrt(0.25 / 4000)


def test_slab_exit_splitting_tracks_exact_ruin():
    law = Expl(2, 0.2)
    ell = np.ones(2) / np.sqrt(2)
    rep = cr.slab_exit(law, ell, 1.0, [8.0], 40_000, 2, 31,
                       estimator="splitting", n_per_level=128, repeats=3,
                       level_width=0.7)
    # projected chain is a p=0.8 birth-death chain: exact ruin probability
    rho = 0.25
    A = 12, 12  # integer sums beyond +-8 sqrt(2)
    exact = (rho ** 12 - rho ** 24) / (1 - rho ** 24)
    assert rep.estimates[0] > 0
    assert abs(np.log(rep.estimates[0]) - np.log(exact)) < 1.5


def test_slab_exit_direct_all_censored_is_no_data():
    # budget 1 never reaches either side: every walk is censored, so the
    # replicates carry no data and the estimate is NaN, not 0.0
    rep = cr.slab_exit(UniformDrift(2), (1, 0), 1.0, [8.0], 1, 2, 3,
                       estimator="direct", direct_runs=200)
    assert rep.censored == [400]
    assert np.isnan(rep.estimates[0])
    assert rep.fits[1.0] is None


def test_slab_fit_of_two_points_has_no_interval():
    # two points fit the line exactly and leave no residual degree of
    # freedom: no slope error and no interval, not a zero-width one
    fit = cr._fit_decay([4.0, 8.0], [1e-2, 1e-4], [0.1, 0.1], 1.0)
    assert fit.n_points == 2
    assert np.isclose(fit.slope, np.log(1e-2) / 4)
    assert np.isnan(fit.slope_se)
    assert isinstance(fit.slope_ci, tuple) and np.isnan(fit.slope_ci).all()
    # a third point off the line gives an interval around the slope
    fit = cr._fit_decay([4.0, 8.0, 12.0], [1e-2, 1e-4, 3e-6], [0.1] * 3, 1.0)
    lo, hi = fit.slope_ci
    assert fit.slope_se > 0 and lo < fit.slope < hi


def test_slab_exit_splitting_pinned():
    # censored counts recorded with the two-predicate splitting levels
    # (crossing set plus front region) that the one-region levels replaced;
    # level_width 0.3 is narrower than a projected step, so some walks
    # start a level already past it.  Along an axis the walks land exactly
    # on the levels, -bL and L, so the last case also pins which bounds are
    # closed.  At these budgets some walks are censored, so each L reads
    # NaN.  At 400 steps no walk is censored, and the estimates are pinned
    # bit for bit as the splitting that counted censored walks as failures
    # gave them (four of the eight equal its pins at the budgets above).
    ell = np.ones(2) / np.sqrt(2)
    cases = [
        ((Expl(2, 0.2), ell, 1.0, [3.0, 5.0]), (20, 2, 5), dict(n_per_level=48, repeats=2),
         [21, 350], ["0x1.4d48b0fcd6e9ep-11", "0x1.6482b8b69b372p-16"]),
        ((Expl(2, 0.2), ell, 1.0, [3.0, 5.0]), (20, 2, 5),
         dict(n_per_level=48, repeats=2, level_width=0.3),
         [26, 337], ["0x1.10ded097b425fp-10", "0x1.7a8f54a1894e5p-17"]),
        ((TrapSym(2), ell, 0.5, [2.0, 4.0]), (30, 1, 8),
         dict(n_per_level=40, repeats=3, level_width=0.5),
         [6, 88], ["0x1.947ae147ae148p-3", "0x1.cff7ced916873p-2"]),
        ((UniformDrift(2, 0.3), np.array([1.0, 0.0]), 1.0, [3.0, 4.0]), (40, 2, 6),
         dict(n_per_level=40, repeats=2, level_width=1.0),
         [3, 16], ["0x1.0810624dd2f1ap-6", "0x1.4a305532617c1p-7"]),
    ]
    for slab, (budget, reps, seed), kw, censored, estimates_at_400 in cases:
        rep = cr.slab_exit(*slab, budget, reps, seed, **kw)
        assert rep.censored == censored
        assert all(np.isnan(x) for x in rep.estimates)
        rep = cr.slab_exit(*slab, 400, reps, seed, **kw)
        assert rep.censored == [0, 0]
        assert [x.hex() for x in rep.estimates] == estimates_at_400


def test_slab_exit_splitting_censored_level_reads_nan():
    # with a budget of one step only level crossings resolve, so every
    # level censors walks: the L reads as insufficient data (it read
    # 3.33e-6 when censored walks counted as failures), no fit is made, and
    # every censored walk is still counted
    rep = cr.slab_exit(UniformDrift(2), (1, 0), 1.0, [8.0], 1, 2, 3,
                       estimator="splitting", n_per_level=50, repeats=2)
    assert np.isnan(rep.estimates[0]) and np.isnan(rep.log_se[0])
    assert rep.censored == [1352]
    assert rep.fits == {1.0: None}


def test_slab_exit_validates():
    with pytest.raises(ValueError):
        cr.slab_exit(UniformDrift(2), np.array([1.0, 0.0]), -1.0, [4.0],
                     100, 1, 1)
    # an empty or one-point slab, or no length to estimate at all
    for L_grid in ([4.0, 0.0], [4.0, -4.0], []):
        with pytest.raises(ValueError, match="slab length"):
            cr.slab_exit(UniformDrift(2), np.array([1.0, 0.0]), 1.0, L_grid,
                         100, 1, 1)
    # a longer ell would run a thinner slab than the one reported
    for ell in ((1, 1), (0.5, 0.0), (0, 0), (np.nan, 1.0)):
        with pytest.raises(ParameterError, match="unit vector"):
            cr.slab_exit(UniformDrift(2), ell, 1.0, [4.0], 100, 1, 1)
    # checked before any walk, even when no replicate would run
    for replicates in (1, 0):
        with pytest.raises(ValueError, match="unknown estimator 'nonsense'"):
            cr.slab_exit(UniformDrift(2), np.array([1.0, 0.0]), 1.0, [4.0],
                         100, replicates, 1, estimator="nonsense")
    for estimator in ("splitting", "direct"):
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            cr.slab_exit(UniformDrift(2), np.array([1.0, 0.0]), 1.0, [4.0],
                         100, 0, 1, estimator=estimator)


def test_slab_fit_needs_two_values_of_L_gamma():
    # equal lengths, or gamma = 0, leave no slope: no fit, not a NaN slope
    assert cr._fit_decay([4.0, 4.0], [1e-2, 1e-4], [0.1, 0.1], 1.0) is None
    assert cr._fit_decay([4.0, 8.0], [1e-2, 1e-4], [0.1, 0.1], 0.0) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = cr.slab_exit(UniformDrift(2), (1, 0), 1.0, [4, 4], 400, 1, 3,
                           estimator="direct", direct_runs=500, gammas=(1.0, 0.0))
    assert rep.estimates[0] == rep.estimates[1] > 0
    assert rep.fits == {1.0: None, 0.0: None}


REPLICATED = {
    "check_e0": lambda n: cr.check_e0(Expl(2, 0.2), 0.1, n, 1),
    "eprime_probe": lambda n: cr.eprime_probe(Expl(2, 0.2), None, n, 1),
    "check_eprime": lambda n: cr.check_eprime(Dirichlet((2.0,) * 4), [0.3] * 4, n, 1),
    "check_ktilde": lambda n: cr.check_ktilde(Expl(2, 0.2), 2.0, n, 1),
    "fractional_moment": lambda n: hc.fractional_moment(TrapSym(2), 1.0, n, 1),
    "fractional_moment_mc": lambda n: hc.fractional_moment(TrapSym(2), 1.5, n, 1),
    # these two gave NaN frequencies with "Mean of empty slice" warnings and
    # an "insufficient-data" verdict
    "attainability": lambda n: cr.attainability(UniformDrift(2), [100.0], 0.1, 1.0,
                                                1.0, 0.1, n, 1),
    "polynomial_condition": lambda n: cr.polynomial_condition(UniformDrift(2), (1, 0),
                                                              1.0, [4.0], 100, n, 1),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("probe", REPLICATED.values(), ids=REPLICATED.keys())
def test_a_replicate_count_below_one_is_a_parameter_error(probe, n):
    # no replicate leaves no sample to judge
    with pytest.raises(ParameterError, match="replicates must be >= 1"):
        probe(n)


# --- tilted box -----------------------------------------------------------------

def test_tilted_box_exit_deterministic_forward():
    env = Environment(FORWARD, 1)
    est = cr.tilted_box_exit(env, (0, 0), 0.6, 8.0, (1.0, 0.0), 1000, 500, 3)
    assert est.p_hat == 1.0 and est.n_censored == 0
    assert est.ci_high == 1.0
    assert est.ci_low == pytest.approx(0.025 ** (1 / 500), rel=1e-9)


def test_tilted_box_exit_budget_zero_all_censored():
    env = Environment(UniformDrift(2), 1)
    est = cr.tilted_box_exit(env, (0, 0), 0.6, 8.0, (1.0, 0.0), 0, 200, 3)
    assert est.n_censored == 200 and np.isnan(est.p_hat)


def test_tilted_box_exit_matches_independent_oracle():
    env = Environment(UniformDrift(2), 44)
    beta, L, vhat = 0.6, 8.0, (1.0, 0.0)
    est = cr.tilted_box_exit(env, (0, 0), beta, L, vhat, 20_000, 4000, 5)
    # independent scalar-python oracle walking the same quenched field; with
    # vhat = e_1 the box is (-L^beta, L) x (-L^beta, L^beta) and its front
    # is x_1 >= L
    width = L ** beta
    hits = trials = 0
    for r in range(800):
        us = rng.stream_uniform_block(rng.derive_key(991, "oracle", r), 20_000)
        pos = (0, 0)
        for u in us:
            p = env.transitions_at(pos)
            c = 0.0
            for j in range(4):
                c += p[j]
                if u <= c:
                    break
            step = [(1, 0), (0, 1), (-1, 0), (0, -1)][j]
            pos = (pos[0] + step[0], pos[1] + step[1])
            if not (-width < pos[0] < L and abs(pos[1]) < width):
                trials += 1
                hits += pos[0] >= L
                break
    p1, p2 = est.p_hat, hits / trials
    se = np.sqrt(p2 * (1 - p2) / trials) + np.sqrt(p1 * (1 - p1) / 4000)
    assert abs(p1 - p2) < 4 * se
    assert est.p_hat < 1.0


def test_tilted_box_exit_counts_of_the_diagonal_demo_box():
    # demo 06's call: a diagonal box of width 12^0.6 around the Expl drift
    env = Environment(Expl(2, 0.2), 21)
    s = 1 / np.sqrt(2)
    est = cr.tilted_box_exit(env, (0, 0), 0.6, 12.0, (s, s), 20_000, 3000, 13)
    assert (est.n_front, est.n_other, est.n_censored) == (423, 2577, 0)
    assert [est.p_hat.hex(), est.ci_low.hex(), est.ci_high.hex()] == [
        "0x1.20c49ba5e353fp-3", "0x1.07a5e3ce7f2d3p-3", "0x1.3b54ba0bca0edp-3"]


def test_tilted_box_exit_pinned():
    # p_hat and its interval bit for bit, with the counts, beside demo 06's
    # box above: a TrapSym box whose budget censors one walk, and a box off
    # the origin on a per-walker field
    cases = [
        ((Environment(TrapSym(2), 8), (0, 0), 0.5, 3.0, (1.0, 0.0), 25, 600, 4),
         ["0x1.bc7960290743fp-4", "0x1.5b259c3516882p-4", "0x1.16f774ddeb548p-3"],
         (65, 534, 1)),
        ((Environment(UniformDrift(2, 0.3), rng.derive_keys(5, "tb", n=400)), (3, -2),
          0.7, 5.0, (0.6, 0.8), 2000, 400, 9),
         ["0x1.1eb851eb851ecp-5", "0x1.3ba1077d84f0bp-6", "0x1.db5bfce67a271p-5"],
         (14, 386, 0)),
    ]
    for args, floats, counts in cases:
        est = cr.tilted_box_exit(*args)
        assert [est.p_hat.hex(), est.ci_low.hex(), est.ci_high.hex()] == floats
        assert (est.n_front, est.n_other, est.n_censored) == counts


def test_tilted_box_exit_validates_L():
    env = Environment(UniformDrift(2), 1)
    with pytest.raises(ValueError):
        cr.tilted_box_exit(env, (0, 0), 0.6, 1.0, (1.0, 0.0), 100, 10, 1)


def test_tilted_box_exit_rejects_a_fractional_center(monkeypatch):
    # (0.6, 0) used to become the box at (0, 0); it is refused before any walk
    monkeypatch.setattr(cr, "run_until_batch", None)
    env = Environment(UniformDrift(2), 1)
    for budget in (100, 0):
        with pytest.raises(ValueError, match="center must have integer coordinates"):
            cr.tilted_box_exit(env, (0.6, 0), 0.6, 4.0, (1.0, 0.0), budget, 10, 3)


# --- reports ---------------------------------------------------------------------

def test_criterion_report_json_round_trip(tmp_path):
    rep = cr.check_e0(UniformDrift(2), 0.5, 500, 3)
    cli.write_json(tmp_path / "e0.json", rep.to_dict(), {"seed": 3})
    doc = json.loads((tmp_path / "e0.json").read_text())
    assert doc["criterion"] == "E0"
    assert doc["verdict"] == rep.verdict
    assert {e["name"] for e in doc["estimates"]} == {e.name for e in rep.estimates}
    assert all({"name", "value", "ci_low", "ci_high", "n",
                "censored"} <= set(e) for e in doc["estimates"])

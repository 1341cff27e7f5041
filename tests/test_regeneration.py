import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwre import regeneration as rg, walk
from rwre.environment import Environment, Expl, TableMixture, UniformDrift

FORWARD = TableMixture(((1.0, (1.0, 0.0, 0.0, 0.0)),))


def extract_reference(l, a, margin):
    """Literal step-by-step ladder recursion; quadratic, the oracle for
    :func:`rwre.regeneration.extract_from_levels`."""
    l = np.asarray(l, dtype=float)
    n = len(l) - 1
    times: list[int] = []
    flags: list[bool] = []
    base = 0
    while True:
        M = float(l[base])  # M_0 of the shifted walk
        while True:
            S = None
            for m in range(base, n + 1):
                if l[m] > M + a + rg.LEVEL_TOL:
                    S = m
                    break
            if S is None:
                return times, flags
            R = None
            for m in range(S + 1, n + 1):
                if l[m] < l[S] - rg.LEVEL_TOL:
                    R = m
                    break
            if R is None:
                break
            M = float(l[base:R + 1].max())
        times.append(S)
        flags.append(not (n - S >= margin))
        base = S


def _forward_steps(n=40):
    """The recorded step row of n steps of the deterministic forward walk."""
    env = Environment(FORWARD, 0)
    return walk.run_fixed_batch(env, np.array([0, 0]), n, walk.walk_keys(1, 1),
                                record_steps=True).steps[0]


def test_deterministic_forward_walk_spacing():
    rec = rg.extract_from_steps(_forward_steps(40), (0, 0),
                                rg.RegenParams((1.0, 0.0), a=3.0, certify_margin=4), 40)
    assert rec.times[0] == 4                       # first level above a=3
    assert np.all(np.diff(rec.times) == 4)
    assert np.all(rec.positions[:, 1] == 0)
    assert np.all(rec.positions[:, 0] == rec.times)
    # censored records are exactly the trailing ones without the margin
    assert np.array_equal(rec.censored, rec.times > 40 - 4)


def test_backtracking_walk_has_no_certified_times():
    # levels that always return to zero: +1 -1 +1 -1 ...
    l = np.array([0.0, 1, 0, 1, 0, 1, 0])
    times, flags = rg.extract_from_levels(l, a=0.5, margin=1)
    assert not [t for t, f in zip(times, flags) if not f]


def test_a_range_enforced():
    params = rg.RegenParams((1.0, 0.0), a=20.0)
    with pytest.raises(ValueError):
        params.resolved_a(2)
    with pytest.raises(ValueError):
        rg.RegenParams((1.0, 0.0), a=2.0).resolved_a(2)     # below 2 sqrt(2)
    assert rg.RegenParams((1.0, 0.0)).resolved_a(2) == pytest.approx(3 * np.sqrt(2))


def test_fast_matches_reference_on_random_walks():
    rs = np.random.RandomState(123)
    for _ in range(400):
        n = rs.randint(4, 300)
        p = rs.uniform(0.4, 0.9)
        steps = rs.choice([1.0, -1.0], size=n, p=[p, 1 - p])
        scale = rs.choice([1.0, 1 / np.sqrt(2)])
        l = np.concatenate([[0.0], np.cumsum(steps * scale)])
        a = rs.uniform(1.1, 4.5)
        W = rs.randint(0, n)
        assert rg.extract_from_levels(l, a, W) == extract_reference(l, a, W)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(steps=st.lists(st.sampled_from([1, 1, 0, -1]), min_size=40, max_size=300),
       scale=st.sampled_from([1.0, 1 / np.sqrt(2)]),
       ticks=st.integers(1, 6), tie=st.booleans(),
       a_off=st.floats(0.05, 0.95), margin=st.integers(0, 220))
def test_fast_matches_reference_on_lattice_levels(steps, scale, ticks, tie,
                                                  a_off, margin):
    # levels of a lattice walk projected on e1 (scale 1) or on a diagonal
    # (scale 1/sqrt 2); with tie, a is a whole number of level spacings so
    # ladder thresholds land on reachable levels up to rounding
    l = np.concatenate([[0.0], np.cumsum(np.asarray(steps) * scale)])
    a = ticks * scale if tie else (ticks + a_off) * scale
    assert rg.extract_from_levels(l, a, margin) == extract_reference(l, a, margin)


def test_extraction_handles_projected_lattice_levels():
    # diagonal ell puts levels on k/sqrt(2); the ladder must stay stationary
    env = Environment(Expl(2, 0.2), 3)
    keys = walk.walk_keys(5, 4)
    res = walk.run_fixed_batch(env, np.zeros(2, dtype=np.int64), 20_000, keys,
                               record_steps=True)
    ell = np.ones(2) / np.sqrt(2)
    params = rg.RegenParams((float(ell[0]), float(ell[1])))
    gaps = []
    for w in range(4):
        rec = rg.extract_from_steps(res.steps[w], (0, 0), params, 20_000)
        assert np.all(np.diff(rec.times) > 0)
        lvl = rec.positions @ ell
        assert np.all(np.diff(lvl) > 0)
        gaps.extend(rec.inter_times.tolist())
    # spacing concentrates near a / drift; nothing degenerate
    assert 5 < np.mean(gaps) < 30


def test_renewal_identity_on_expl():
    # displacement-to-time ratio approximates the drift 1 - 2 eps
    env = Environment(Expl(2, 0.2), 11)
    keys = walk.walk_keys(21, 20)
    n = 20_000
    res = walk.run_fixed_batch(env, np.zeros(2, dtype=np.int64), n, keys,
                               record_steps=True)
    ell = np.ones(2) / np.sqrt(2)
    params = rg.RegenParams((float(ell[0]), float(ell[1])))
    records = [rg.extract_from_steps(res.steps[w], (0, 0), params, n)
               for w in range(20)]
    est = rg.renewal_velocity(records)
    assert est.ok
    assert abs(float(est.v @ np.ones(2)) - 0.6) < 0.02
    direct = rg.direct_velocity(res.final, n)
    assert abs(float(direct.v @ np.ones(2)) - 0.6) < 0.02


def test_velocity_insufficient_data():
    est = rg.renewal_velocity([])
    assert not est.ok and "no walk" in est.reason
    rec = rg.RegenerationRecord(np.array([5]), np.array([[5, 0]]),
                                np.array([False]))
    est2 = rg.renewal_velocity([rec])
    assert not est2.ok


def test_regeneration_radii_forward_walk():
    steps = _forward_steps(40)
    rec = rg.extract_from_steps(steps, (0, 0),
                                rg.RegenParams((1.0, 0.0), a=3.0, certify_margin=4), 40)
    radii = rg.regeneration_radii(rec, walk.positions((0, 0), steps))
    assert np.all(radii == 4)
    assert np.all(radii >= 1)


def test_regeneration_radii_requires_certified():
    rec = rg.RegenerationRecord(np.empty(0, dtype=np.int64),
                                np.empty((0, 2), dtype=np.int64),
                                np.empty(0, dtype=bool))
    with pytest.raises(ValueError):
        rg.regeneration_radii(rec, np.zeros((5, 2), dtype=np.int64))


def test_radius_tail_decays_exponentially():
    # drifted uniformly elliptic law: log-survival of the first radius is
    # linear with negative slope
    env = Environment(UniformDrift(2, strength=0.5), 8)
    keys = walk.walk_keys(13, 400)
    n = 2000
    res = walk.run_fixed_batch(env, np.zeros(2, dtype=np.int64), n, keys,
                               record_steps=True)
    params = rg.RegenParams((1.0, 0.0))
    radii = []
    for w in range(400):
        rec = rg.extract_from_steps(res.steps[w], (0, 0), params, n)
        if rec.n_certified() >= 1:
            radii.append(rg.regeneration_radii(
                rec, walk.positions((0, 0), res.steps[w]))[0])
    radii = np.asarray(radii, dtype=float)
    ts = np.arange(int(np.quantile(radii, 0.5)), int(np.quantile(radii, 0.98)))
    surv = np.array([np.mean(radii > t) for t in ts])
    keep = surv > 0
    slope, _ = np.polyfit(ts[keep], np.log(surv[keep]), 1)
    n_eff = len(radii)
    assert slope < 0
    # crude CI: slope standard error from residuals
    resid = np.log(surv[keep]) - np.polyval(np.polyfit(ts[keep],
                                            np.log(surv[keep]), 1), ts[keep])
    se = resid.std(ddof=2) / (ts[keep].std() * np.sqrt(keep.sum()))
    assert slope + 2 * se < 0


def test_records_to_csv(tmp_path):
    rec = rg.extract_from_steps(_forward_steps(20), (0, 0),
                                rg.RegenParams((1.0, 0.0), a=3.0, certify_margin=2), 20)
    path = tmp_path / "regen.csv"
    rg.records_to_csv([rec, rec], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "walk,k,tau,x_1,x_2,censored"
    assert lines[1].startswith("0,1,4,4,0,")
    assert any(line.startswith("1,") for line in lines[1:])

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwre import regeneration as rg, walk
from rwre.errors import ParameterError
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
    # 16 steps: the certification margin is 16 // 4 = 4 steps
    rec = rg.extract_from_steps(_forward_steps(16), (0, 0),
                                rg.RegenParams((1.0, 0.0), a=3.0))
    assert rec.times.tolist() == [4, 8, 12, 16]    # first level above a=3
    assert np.all(rec.positions[:, 1] == 0)
    assert np.all(rec.positions[:, 0] == rec.times)
    # censored records are exactly the trailing ones without the margin
    assert np.array_equal(rec.censored, rec.times > 16 - 4)


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


@pytest.mark.parametrize("ell", [(1.0, 0.0, 0.0), (1.0, 1.0), (0.0, 0.0)],
                         ids=["three_entries", "norm_sqrt2", "zero"])
def test_ell_is_checked_before_the_first_step(monkeypatch, ell):
    # a wrong length used to fail in the level product after the whole
    # walk, a norm of sqrt(2) stretched every level against a, and a zero
    # direction found no regenerations
    steps = []
    step = walk._step_batch
    monkeypatch.setattr(walk, "_step_batch", lambda *a: steps.append(1) or step(*a))
    with pytest.raises(ParameterError, match="ell must have|unit vector"):
        rg.run_regenerations(Environment(Expl(2, 0.2), 3), walk.walk_keys(5, 2), 200,
                             rg.RegenParams(ell))
    assert not steps
    with pytest.raises(ParameterError):
        rg.extract_from_steps(_forward_steps(8), (0, 0), rg.RegenParams(ell, a=3.0))


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
        rec = rg.extract_from_steps(res.steps[w], (0, 0), params)
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
    records = [rg.extract_from_steps(res.steps[w], (0, 0), params)
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


@pytest.mark.parametrize("blocks", [2, 31])
def test_renewal_velocity_needs_32_blocks(blocks):
    # blocks + 1 certified times, forward steps of 4: blocks inter-times
    times = 4 * np.arange(1, blocks + 2)
    rec = rg.RegenerationRecord(times, np.stack([times, 0 * times], axis=1),
                                np.zeros(blocks + 1, dtype=bool))
    est = rg.renewal_velocity([rec])
    assert not est.ok and est.v is None
    assert est.reason == f"only {blocks} blocks, need >= 32"
    rec = rg.RegenerationRecord(4 * np.arange(1, 34), np.zeros((33, 2), dtype=np.int64),
                                np.zeros(33, dtype=bool))
    assert rg.renewal_velocity([rec]).ok


@pytest.mark.filterwarnings("error")
def test_direct_velocity_needs_two_walks():
    # one walk has no sample spread: no NaN interval and no numpy warning
    for finals in (np.zeros((0, 2)), np.array([[120, 80]])):
        est = rg.direct_velocity(finals, 200)
        assert not est.ok and est.v is None and "need >= 2" in est.reason
    _, ren, direct = rg.run_regenerations(Environment(Expl(2, 0.2), 3),
                                          walk.walk_keys(5, 1), 20_000,
                                          rg.RegenParams((2 ** -0.5, 2 ** -0.5)))
    assert ren.ok and not direct.ok
    est = rg.direct_velocity(np.array([[120, 80], [100, 100]]), 200)
    assert est.ok and np.all(est.ci_low < est.v) and np.all(est.v < est.ci_high)


def test_regeneration_radii_forward_walk():
    steps = _forward_steps(16)      # margin 16 // 4 = 4: 4, 8, 12 certified
    rec = rg.extract_from_steps(steps, (0, 0), rg.RegenParams((1.0, 0.0), a=3.0))
    assert rec.n_certified() == 3
    radii = rg.regeneration_radii(rec, walk.positions((0, 0), steps))
    assert np.all(radii == 4)
    assert np.all(radii >= 1)


def test_regeneration_radii_pinned():
    # demo 03's radii on a recorded walk of the explicit law along the
    # diagonal: its certified times and the L1 span of each block
    n = 400
    res = walk.run_fixed_batch(Environment(Expl(2, 0.2), 11), np.zeros(2, dtype=np.int64), n,
                               walk.walk_keys(12, 1), record_steps=True)
    rec = rg.extract_from_steps(res.steps[0], (0, 0), rg.RegenParams((2 ** -0.5, 2 ** -0.5)))
    assert rec.certified_times.tolist() == [11, 29, 42, 53, 62, 71, 84, 95, 102, 156, 180, 189,
                                            209, 222, 246, 253, 281, 290]
    radii = rg.regeneration_radii(rec, walk.positions((0, 0), res.steps[0]))
    assert radii.tolist() == [7, 14, 7, 7, 8, 7, 7, 7, 7, 28, 16, 7, 14, 7, 14, 7, 14, 7]


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
        rec = rg.extract_from_steps(res.steps[w], (0, 0), params)
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
    # 8 steps: margin 8 // 4 = 2, so tau = 4 is certified and tau = 8 is not
    rec = rg.extract_from_steps(_forward_steps(8), (0, 0),
                                rg.RegenParams((1.0, 0.0), a=3.0))
    path = tmp_path / "regen.csv"
    rg.records_to_csv([rec, rec], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "walk,k,tau,x_1,x_2,censored"
    assert lines[1:] == ["0,1,4,4,0,0", "0,2,8,8,0,1", "1,1,4,4,0,0", "1,2,8,8,0,1"]


def test_records_to_csv_header_when_walk_0_has_no_regeneration(tmp_path):
    # a walk of 2 steps stays below the first ladder level: an empty record
    params = rg.RegenParams((1.0, 0.0), a=3.0)
    empty = rg.extract_from_steps(_forward_steps(2), (0, 0), params)
    forward = rg.extract_from_steps(_forward_steps(8), (0, 0), params)
    assert len(empty.times) == 0
    path = tmp_path / "regen.csv"
    rg.records_to_csv([empty, forward], path)
    assert path.read_text().splitlines() == [
        "walk,k,tau,x_1,x_2,censored", "1,1,4,4,0,0", "1,2,8,8,0,1"]

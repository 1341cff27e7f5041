"""The compiled step kernel against the numpy stepping rule it replaces.

Every comparison is exact: the kernel hands a step back to numpy wherever
a last-ulp difference in a transition vector could change a choice, so
positions, stopping times and visit counts must be equal bit for bit.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import rwre
from rwre import _kernel, criteria, hypercube, lattice, rng, walk
from rwre.environment import (Environment, Expl, TrapSym, TrapTransient,
                              UniformDrift)

needs_gcc = pytest.mark.skipif(_kernel._compiler() is None, reason="no gcc")

LAWS = [UniformDrift(1), UniformDrift(2, 0.3), UniformDrift(3, 0.1, 2),
        TrapSym(1), TrapSym(2), TrapSym(3), TrapSym(2, 0.5), TrapSym(2, 1.0),
        TrapSym(2, 0.3), TrapTransient(1), TrapTransient(2), TrapTransient(3)]
for _d in (2, 3):   # Expl rejects d = 1; see below
    LAWS += [Expl(_d, 1 / (2 * _d + 1)), Expl(_d, 0.5), Expl(_d, 2 * _d / (2 * _d + 1))]


def _inside(X):
    return np.abs(X).max(axis=1) < 3


def _runs(env, W, n=150):
    """Both engines: every step checkpointed, one long segment, a stopping
    run with compaction and visit counts on a plain predicate, and compiled
    stopping runs on a float and an integer region."""
    keys = walk.walk_keys(9, W)
    start = np.zeros(env.dim, dtype=np.int64)
    target = np.eye(1, env.dim, dtype=np.int64)

    def region(X):      # the box minus one target site next to the start
        return _inside(X) & ~np.all(X == target, axis=1)

    return (walk.run_fixed_batch(env, start, n, keys, checkpoints=range(1, n + 1)),
            walk.run_fixed_batch(env, start, n, keys),
            walk.run_until_batch(env, start, keys, n, region,
                                 count_visits_to=tuple(start.tolist())),
            *(_until(env, bounds, at, keys, n) for name, bounds, at in _regions(env.dim)
              if name in ("slab", "cube")))


def _numpy_runs(monkeypatch, env, W, n=150):
    with monkeypatch.context() as m:
        m.setattr(_kernel, "plan", lambda env: None)
        return _runs(env, W, n)


def _assert_same(a, b):
    every_a, long_a, *until_a = a
    every_b, long_b, *until_b = b
    assert every_a.checkpoints.keys() == every_b.checkpoints.keys()
    for t, snap in every_a.checkpoints.items():
        assert np.array_equal(snap, every_b.checkpoints[t]), f"step {t}"
    assert np.array_equal(every_a.final, every_b.final)
    assert np.array_equal(long_a.final, long_b.final)
    for i, (x, y) in enumerate(zip(until_a, until_b, strict=True)):
        _assert_same_until(x, y, f"stopping run {i}")


def _table(monkeypatch, entries):
    """Give every site-row table ``entries`` entries per slot."""
    monkeypatch.setattr(_kernel, "TABLE_PER_WALKER", entries)
    monkeypatch.setattr(_kernel, "TABLE_SHARED", entries)


def _plans(monkeypatch):
    """The plans the engines build from now on, in order."""
    plans = []
    inner = _kernel.plan
    monkeypatch.setattr(_kernel, "plan",
                        lambda env: plans.append(inner(env)) or plans[-1])
    return plans


@needs_gcc
@pytest.mark.parametrize("per_walker", [False, True], ids=["shared", "per_walker"])
@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_kernel_steps_equal_numpy_steps(monkeypatch, law, per_walker):
    # with the default site-row tables, and with one entry per slot (every
    # new site evicts the last) and two (a walk between two sites can hit);
    # the walkers of a shared field share one slot
    for W in (1, 7, 200):
        env = Environment(law, rng.derive_keys(3, "walkers", n=W) if per_walker else 5)
        reference = _numpy_runs(monkeypatch, env, W)
        for entries in (None, 1, 2):
            with monkeypatch.context() as m:
                if entries:
                    _table(m, entries)
                plans = _plans(m)
                ours = _runs(env, W)
            assert len(set(ours[2].steps_taken.tolist())) > 1 or W == 1
            _assert_same(ours, reference)
            assert len(plans) == 4      # the plain predicate steps with numpy
            slots = W if per_walker else 1
            per_slot = entries or (_kernel.TABLE_PER_WALKER if per_walker
                                   else _kernel.TABLE_SHARED)
            for plan in plans:
                if isinstance(law, UniformDrift):
                    assert plan.table is None
                else:
                    assert plan.table.shape == (slots * per_slot, 1 + 3 * env.dim)
                    assert plan.table[:, 0].any()


@needs_gcc
def test_invalid_rows_raise_like_numpy(monkeypatch):
    # in d = 1 the Expl row sums to 1 - eps + 1/T or eps + 1/T, never 1:
    # the kernel hands the step back and numpy raises its own error.  Expl
    # rejects d = 1, so the law is built past its check.
    law = object.__new__(Expl)
    object.__setattr__(law, "d", 1)
    object.__setattr__(law, "eps", 0.5)
    env = Environment(law, 5)
    keys = walk.walk_keys(9, 7)
    for fixed in (True, False):
        def go():
            if fixed:
                return walk.run_fixed_batch(env, np.zeros(1), 10, keys)
            return walk.run_until_batch(env, np.zeros(1), keys, 10, _inside)
        with pytest.raises(ValueError, match="invalid transition vector"):
            go()
        with monkeypatch.context() as m:
            m.setattr(_kernel, "plan", lambda env: None)
            with pytest.raises(ValueError, match="invalid transition vector"):
                go()


@needs_gcc
@pytest.mark.parametrize("margin", [2.0, 0.01], ids=["every_step", "some_steps"])
def test_handed_back_steps_resume_identically(monkeypatch, margin):
    # a row found in the site-row table still goes through the walk
    # uniform's guard: with every step handed back the kernel moves no
    # walker, on a colliding table or the default one
    laws = [UniformDrift(2, 0.2), Expl(2, 0.3), TrapSym(2), TrapTransient(1)]
    W, n = 7, 120
    for law in laws:
        for seeds in (5, rng.derive_keys(4, "walkers", n=W)):
            env = Environment(law, seeds)
            reference = _numpy_runs(monkeypatch, env, W, n)
            loop_steps = 2 * n + sum(int(r.steps_taken.max()) for r in reference[2:])
            for entries in (None, 1):
                with monkeypatch.context() as m:
                    if entries:
                        _table(m, entries)
                    m.setattr(_kernel, "GUARD_MARGIN", margin)
                    calls = _counting(m, walk, "_step_batch")
                    plans = _plans(m)
                    handed_back = _runs(env, W, n)
                _assert_same(handed_back, reference)
                if margin == 2.0:
                    assert len(calls) == loop_steps
                else:
                    assert 0 < len(calls) < loop_steps
                # a margin of 2 fails every Expl row's own check (entries
                # within margin of 0): those rows go to numpy and are not kept
                kept = not (isinstance(law, Expl) and margin == 2.0)
                assert all(plan.table[:, 0].any() == kept for plan in plans
                           if plan.table is not None)


@needs_gcc
def test_long_trapped_walks_step_like_numpy(monkeypatch):
    # TrapSym(2) walks stay a long time among a few sites of small
    # conductance, so most of their steps find their row in the table
    W, n = 3, 30_000
    env = Environment(TrapSym(2), 17)
    keys = walk.walk_keys(5, W)
    marks = range(1000, n, 1000)
    with monkeypatch.context() as m:
        plans = _plans(m)
        ours = walk.run_fixed_batch(env, np.zeros(2), n, keys, checkpoints=marks)
    with monkeypatch.context() as m:
        m.setattr(_kernel, "plan", lambda env: None)
        theirs = walk.run_fixed_batch(env, np.zeros(2), n, keys, checkpoints=marks,
                                      record_steps=True)
    assert np.array_equal(ours.final, theirs.final)
    for t in marks:
        assert np.array_equal(ours.checkpoints[t], theirs.checkpoints[t]), t
    for row in theirs.steps:    # each site is visited about ten times
        assert len({tuple(x) for x in walk.positions((0, 0), row).tolist()}) < n // 5
    (plan,) = plans
    assert plan.table.shape[0] == _kernel.TABLE_SHARED


@needs_gcc
def test_tables_stay_within_the_cap(monkeypatch):
    # 3000 seeds at 64 entries would exceed the cap: 32 entries per seed;
    # with the cap below one entry per seed, the run has no table
    W, seeds = 3000, rng.derive_keys(6, "walkers", n=3000)
    keys = walk.walk_keys(8, W)
    for law in (TrapSym(2), TrapTransient(1)):
        env = Environment(law, seeds)
        reference = _numpy_runs(monkeypatch, env, W, 60)
        for cap, per_seed in ((_kernel.TABLE_CAP, 32), (2 ** 11, 0)):
            with monkeypatch.context() as m:
                m.setattr(_kernel, "TABLE_CAP", cap)
                plans = _plans(m)
                ours = _runs(env, W, 60)
            _assert_same(ours, reference)
            for plan in plans:
                if per_seed:
                    assert plan.table.shape[0] == W * per_seed <= cap
                    assert plan.table[:, 0].any()
                else:
                    assert plan.table is None


def _regions(dim):
    """(name, region, start) for the region kinds of the estimators, sized
    so that walks stop at many different steps: a slab, a splitting level
    and a box on the float form ell, a slab whose bound 0.6 x + 0.8 y hits
    up to rounding, and a cube off the origin, entered at a corner."""
    ell = np.ones(dim) / np.sqrt(dim)
    tilted = np.array([0.6, 0.8] + [0.0] * (dim - 2)) if dim >= 2 else np.ones(1)
    origin = np.zeros(dim, dtype=np.int64)
    anchor = (2, -1, 0, 1)[:dim]
    return [
        ("slab", criteria._slab_region(ell, 1.0, 4.0), origin),
        ("level", lattice.Bounds(ell, -2.5, 4.0, False, True), origin),
        ("box", criteria._box_region(lattice.rotation_onto_e1(ell), 4.0, 4.5, 3.0),
         origin),
        ("slab_on_sites", criteria._slab_region(tilted, 1.0, 7.0), origin),
        ("cube", lattice.UnitHypercube(anchor).region,
         np.add(anchor, np.eye(1, dim, dtype=np.int64)[0])),
    ]


def _until(env, region, start, keys, n=150):
    return walk.run_until_batch(env, start, keys, n, region,
                                count_visits_to=tuple(start.tolist()))


def _assert_same_until(a, b, what):
    for field in ("status", "final", "steps_taken", "visits"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), (what, field)


@needs_gcc
@pytest.mark.parametrize("per_walker", [False, True], ids=["shared", "per_walker"])
@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_compiled_regions_equal_the_numpy_path(monkeypatch, law, per_walker):
    # the same region as a Bounds runs in one kernel call unless numpy must
    # take a step or a region evaluation, and as a plain callable steps with
    # numpy alone, without a kernel call; a fixed run takes one call per stop
    for W in (1, 7, 200):
        env = Environment(law, rng.derive_keys(3, "walkers", n=W) if per_walker else 5)
        keys = walk.walk_keys(9, W)
        for name, region, start in _regions(env.dim):
            with monkeypatch.context() as m:
                calls = _counting(m, _kernel.Until, "__call__")
                steps = _counting(m, walk, "_step_batch")
                regions = _counting(m, lattice.Bounds, "__call__")
                ours = _until(env, region, start, keys)
            if steps or regions:
                assert len(calls) <= 1 + len(steps) + len(regions), name
            else:
                assert len(calls) == 1, name
            with monkeypatch.context() as m:
                calls = _counting(m, _kernel.Until, "__call__")
                theirs = _until(env, lambda X: region(X), start, keys)
            assert not calls, name
            _assert_same_until(ours, theirs, (name, W))
            assert W < 200 or len(set(ours.steps_taken.tolist())) > 1, name
        with monkeypatch.context() as m:
            calls = _counting(m, _kernel.Until, "__call__")
            steps = _counting(m, walk, "_step_batch")
            walk.run_fixed_batch(env, np.zeros(env.dim), 150, keys,
                                 checkpoints=[1, 40, 41, 150])
        assert len(calls) <= 4 + len(steps) if steps else len(calls) == 4


def _counting(monkeypatch, obj, name):
    calls = []
    inner = getattr(obj, name)
    monkeypatch.setattr(obj, name, lambda *a: calls.append(a) or inner(*a))
    return calls


@needs_gcc
@pytest.mark.parametrize("guard, region_margin, handed_back", [
    (2.0, _kernel.REGION_MARGIN, "every_step"),
    (0.01, _kernel.REGION_MARGIN, "some_steps"),
    (_kernel.GUARD_MARGIN, 1e3, "every_region"),
    (_kernel.GUARD_MARGIN, 1e-3, "some_regions"),
])
def test_compiled_regions_resume_identically_after_hand_backs(
        monkeypatch, guard, region_margin, handed_back):
    W = 7
    handed = {"steps": 0, "regions": 0, "loop_steps": 0, "float_loop_steps": 0}
    for law in (UniformDrift(2, 0.2), Expl(2, 0.3), TrapSym(2), TrapTransient(1)):
        env = Environment(law, rng.derive_keys(4, "walkers", n=W))
        keys = walk.walk_keys(5, W)
        for name, region, start in _regions(env.dim):
            reference = _until(env, lambda X: region(X), start, keys)
            with monkeypatch.context() as m:
                m.setattr(_kernel, "GUARD_MARGIN", guard)
                m.setattr(_kernel, "REGION_MARGIN", region_margin)
                steps = _counting(m, walk, "_step_batch")
                regions = _counting(m, lattice.Bounds, "__call__")
                ours = _until(env, region, start, keys)
            _assert_same_until(ours, reference, (law, name))
            loop_steps = int(reference.steps_taken.max())
            if handed_back == "every_step":
                assert len(steps) == loop_steps
            if name == "cube":      # an integer region is never handed back
                assert not regions
            else:
                handed["float_loop_steps"] += loop_steps + 1
            handed["steps"] += len(steps)
            handed["regions"] += len(regions)
            handed["loop_steps"] += loop_steps
    if handed_back == "some_steps":
        assert 0 < handed["steps"] < handed["loop_steps"]
    elif handed_back == "every_region":
        assert handed["regions"] == handed["float_loop_steps"]
    elif handed_back == "some_regions":
        assert 0 < handed["regions"] < handed["float_loop_steps"]


@needs_gcc
def test_region_hand_backs_are_rare(monkeypatch):
    # the cube is an integer region: its visit-law walks never reach numpy's
    # predicate; the float slab of the slab-decay criterion very rarely does
    regions = _counting(monkeypatch, lattice.Bounds, "__call__")
    for law in (UniformDrift(2), Expl(2, 0.3), TrapSym(2)):
        rep = hypercube.visit_law_check(Environment(law, 7),
                                        lattice.UnitHypercube((0, 0)), 0, 10_000, 8)
        assert rep.n == 10_000
    assert not regions
    walker_steps = []
    run = criteria.run_until_batch

    def counted(*args, **kwargs):
        res = run(*args, **kwargs)
        walker_steps.append(int(res.steps_taken.sum()))
        return res

    monkeypatch.setattr(criteria, "run_until_batch", counted)
    criteria.slab_exit(Expl(2, 0.2), np.ones(2) / np.sqrt(2.0), 1.0, [8, 16], 60_000,
                       2, 11, estimator="splitting", n_per_level=192, repeats=1,
                       level_width=0.7)
    assert sum(walker_steps) > 10 ** 5
    assert len(regions) < 1e-3 * sum(walker_steps)


def test_missing_compiler_falls_back_to_numpy_once(monkeypatch, tmp_path):
    env = Environment(TrapTransient(1), rng.derive_keys(4, "walkers", n=7))
    expected = _runs(env, 7, 60)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "_compiler", lambda: None)
    monkeypatch.setattr(_kernel, "_LIB", None)
    with pytest.warns(RuntimeWarning, match="step kernel unavailable") as caught:
        got = _runs(env, 7, 60)
        again = _runs(env, 7, 60)
    assert len([w for w in caught if "step kernel" in str(w.message)]) == 1
    assert _kernel.plan(env) is None
    _assert_same(got, expected)
    _assert_same(again, expected)


UBSAN_CHECK = """
import sys
import numpy as np
from rwre import _kernel, lattice, walk
from rwre.environment import (Environment, Expl, TrapSym, TrapTransient,
                              UniformDrift)

_kernel._LIB = _kernel._load(sys.argv[1])
keys = walk.walk_keys(3, 7)
# site-row tables of the default sizes, of one and two entries per slot
# (every step collides), and capped to four entries per seed of 12 seeds
tables = [(64, 2 ** 14, 2 ** 17), (1, 1, 2 ** 17), (2, 2, 2 ** 17), (64, 64, 48)]
for law, table in [(law, table)
                   for law in (UniformDrift(2, 0.2), Expl(3, 1 / 7), TrapSym(2),
                               TrapTransient(2))
                   for table in tables]:
    (_kernel.TABLE_PER_WALKER, _kernel.TABLE_SHARED, _kernel.TABLE_CAP) = table
    for seeds in (5, np.arange(1, 13, dtype=np.uint64)):
        env = Environment(law, seeds)
        start = np.zeros(env.dim, dtype=np.int64)

        ell = np.ones(env.dim) / np.sqrt(env.dim)
        regions = [lattice.Bounds(np.eye(env.dim), [-4] * env.dim, [4] * env.dim,
                                  False, False),
                   lattice.Bounds(ell, -3.5, 4.0, True, False),
                   lattice.Bounds(lattice.rotation_onto_e1(ell), [-3.0] * env.dim,
                                  [4.0] * env.dim, False, False),
                   lattice.UnitHypercube((0,) * env.dim).region]

        def runs():
            fixed = walk.run_fixed_batch(env, start, 300, keys, checkpoints=[1, 90, 91])
            out = [fixed.final, *fixed.checkpoints.values()]
            for region in regions:
                res = walk.run_until_batch(env, start, keys, 300, inside=region,
                                           count_visits_to=tuple(start.tolist()))
                out += [res.status, res.final, res.steps_taken, res.visits]
            return out

        plan = _kernel.plan(env)
        assert plan is not None
        if plan.table is not None:
            assert plan.table.shape[0] <= _kernel.TABLE_CAP
        ours = runs()
        plan_of, _kernel.plan = _kernel.plan, lambda env: None
        reference = runs()
        _kernel.plan = plan_of
        assert all(np.array_equal(a, b) for a, b in zip(ours, reference)), law
print("ok")
"""


def _asan_runtime() -> str | None:
    """gcc's AddressSanitizer runtime, which python must preload to run a
    library built with it, or None."""
    out = subprocess.run([_kernel._compiler(), "-print-file-name=libasan.so"],
                         capture_output=True, text=True).stdout.strip()
    return out if os.path.isabs(out) and os.path.exists(out) else None


@needs_gcc
def test_kernel_runs_clean_under_ubsan(tmp_path):
    # with gcc's AddressSanitizer runtime at hand, the same run also fails
    # on any read or write outside the site-row table or the other arrays
    asan = _asan_runtime()
    sanitizers = "address,undefined" if asan else "undefined"
    flags = _kernel.CFLAGS + ("-Wall", "-Wextra", "-Werror",
                              f"-fsanitize={sanitizers}", "-fno-sanitize-recover=all")
    lib = _kernel.build(tmp_path / "kernel-ubsan.so", flags)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rwre.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    if asan:
        env.update(LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0")
    proc = subprocess.run([sys.executable, "-c", UBSAN_CHECK, str(lib)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "runtime error" not in proc.stderr
    assert "AddressSanitizer" not in proc.stderr
    assert proc.stdout.strip() == "ok"

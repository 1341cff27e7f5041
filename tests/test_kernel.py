"""The compiled step kernel against the numpy stepping rule it replaces.

Every comparison is exact: the kernel hands a step back to numpy wherever
a last-ulp difference in a transition vector could change a choice, so
positions, stopping times and visit counts must be equal bit for bit.
"""

import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rwre
from rwre import _kernel, criteria, hypercube, lattice, rng, walk
from rwre.lattice import _dot
from rwre.environment import (Environment, Expl, TrapSym, TrapTransient,
                              UniformDrift)

needs_gcc = pytest.mark.skipif(_kernel._compiler() is None, reason="no gcc")

LAWS = [UniformDrift(1), UniformDrift(2, 0.3), UniformDrift(3, 0.1, 2),
        TrapSym(1), TrapSym(2), TrapSym(3), TrapSym(2, 0.5), TrapSym(2, 1.0),
        TrapSym(2, 0.3), TrapTransient(1), TrapTransient(2), TrapTransient(3)]
for _d in (2, 3):   # Expl rejects d = 1; see below
    LAWS += [Expl(_d, 1 / (2 * _d + 1)), Expl(_d, 0.5), Expl(_d, 2 * _d / (2 * _d + 1))]


def _box(dim):
    """The open box |x_i| < 3 around the origin."""
    return lattice.Bounds(np.eye(dim), [-3] * dim, [3] * dim, False, False)


def _runs(env, W, n=150):
    """Both engines: every step checkpointed, one long segment, and
    stopping runs with compaction and visit counts on an integer box, a
    float slab and a cube."""
    keys = walk.walk_keys(9, W)
    start = np.zeros(env.dim, dtype=np.int64)
    return (walk.run_fixed_batch(env, start, n, keys, checkpoints=range(1, n + 1)),
            walk.run_fixed_batch(env, start, n, keys),
            _until(env, _box(env.dim), start, keys, n),
            *(_until(env, bounds, at, keys, n) for name, bounds, at in _regions(env.dim)
              if name in ("slab", "cube")))


def _numpy_runs(monkeypatch, env, W, n=150):
    with monkeypatch.context() as m:
        m.setattr(_kernel, "loop", lambda *a: None)
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


def _loops(monkeypatch):
    """The compiled loops the engines build from now on, in order."""
    loops = []
    inner = _kernel.loop
    monkeypatch.setattr(_kernel, "loop", lambda *a: loops.append(inner(*a)) or loops[-1])
    return loops


def _outputs(n, dim):
    """Zeroed status, final, steps_taken, visits and target arrays of a run
    of n walkers that counts no visits, and its shared start and keys."""
    return (np.zeros(n, np.uint8), np.zeros((n, dim), np.int64), np.zeros(n, np.int64),
            None, None, np.zeros(dim, np.int64), walk.walk_keys(1, n))


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
                loops = _loops(m)
                ours = _runs(env, W)
            assert len(set(ours[2].steps_taken.tolist())) > 1 or W == 1
            _assert_same(ours, reference)
            assert len(loops) == 5
            slots = W if per_walker else 1
            per_slot = entries or (_kernel.TABLE_PER_WALKER if per_walker
                                   else _kernel.TABLE_SHARED)
            for loop in loops:
                if isinstance(law, UniformDrift):
                    assert loop.field.table is None
                else:
                    assert loop.field.table.shape == (slots * per_slot, 1 + 3 * env.dim)
                    assert loop.field.table[:, 0].any()


# every covered law on Z^dim for dim 1 to 5 (Expl rejects d = 1, and
# TrapTransient(d) walks on Z^{d+1})
LAWS_BY_DIM = [law for dim in range(1, 6)
               for law in (UniformDrift(dim, 0.3), Expl(max(dim, 2), 0.3), TrapSym(dim),
                           TrapTransient(max(dim - 1, 1)))
               if law.dim == dim]


@needs_gcc
@pytest.mark.parametrize("per_walker", [False, True], ids=["shared", "per_walker"])
@pytest.mark.parametrize("law", LAWS_BY_DIM, ids=lambda law: f"dim{law.dim}-{law!r}")
def test_every_dimension_instance_steps_like_numpy(monkeypatch, law, per_walker):
    # the kernel runs dim 2 on an instance compiled for it and every other
    # dim on the instance that reads dim from the field: each case runs
    # a fixed run with checkpoints, a stopping run on a unit cube that
    # counts visits to its start corner, and the fixed run again with a
    # margin that hands steps back to numpy mid-run
    dim = law.dim
    W, n, marks = 16, 300, [1, 77, 150, 300]
    env = Environment(law, rng.derive_keys(7, "walkers", n=W) if per_walker else 7)
    keys = walk.walk_keys(4, W)
    start = np.zeros(dim, dtype=np.int64)
    cube = lattice.UnitHypercube((0,) * dim).region

    def runs():
        fixed = walk.run_fixed_batch(env, start, n, keys, checkpoints=marks)
        until = walk.run_until_batch(env, start, keys, n, cube,
                                     count_visits_to=tuple(start.tolist()))
        return [fixed.final, *fixed.checkpoints.values(), until.status, until.final,
                until.steps_taken, until.visits]

    def same(a, b):
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    with monkeypatch.context() as m:
        m.setattr(_kernel, "loop", lambda *a: None)
        reference = runs()
    with monkeypatch.context() as m:
        loops = _loops(m)
        steps = _counting(m, walk, "_step_batch")
        same(runs(), reference)
    assert len(loops) == 2 and all(loop.field.struct.dim == dim for loop in loops)
    assert not steps
    with monkeypatch.context() as m:
        m.setattr(_kernel, "GUARD_MARGIN", 0.01)
        loops = _loops(m)
        steps = _counting(m, walk, "_step_batch")
        fixed = walk.run_fixed_batch(env, start, n, keys, checkpoints=marks)
    same([fixed.final, *fixed.checkpoints.values()], reference[:1 + len(marks)])
    assert len(loops) == 1 and 0 < len(steps) < n


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
            return walk.run_until_batch(env, np.zeros(1), keys, 10, _box(1))
        with pytest.raises(ValueError, match="invalid transition vector"):
            go()
        with monkeypatch.context() as m:
            m.setattr(_kernel, "loop", lambda *a: None)
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
                    loops = _loops(m)
                    handed_back = _runs(env, W, n)
                _assert_same(handed_back, reference)
                if margin == 2.0:
                    assert len(calls) == loop_steps
                else:
                    assert 0 < len(calls) < loop_steps
                # a margin of 2 fails every Expl row's own check (entries
                # within margin of 0): those rows go to numpy and are not kept
                kept = not (isinstance(law, Expl) and margin == 2.0)
                assert all(loop.field.table[:, 0].any() == kept for loop in loops
                           if loop.field.table is not None)


@needs_gcc
def test_long_trapped_walks_step_like_numpy(monkeypatch):
    # TrapSym(2) walks stay a long time among a few sites of small
    # conductance, so most of their steps find their row in the table
    W, n = 3, 30_000
    env = Environment(TrapSym(2), 17)
    keys = walk.walk_keys(5, W)
    marks = range(1000, n, 1000)
    with monkeypatch.context() as m:
        loops = _loops(m)
        ours = walk.run_fixed_batch(env, np.zeros(2), n, keys, checkpoints=marks)
    with monkeypatch.context() as m:
        m.setattr(_kernel, "loop", lambda *a: None)
        theirs = walk.run_fixed_batch(env, np.zeros(2), n, keys, checkpoints=marks,
                                      record_steps=True)
    assert np.array_equal(ours.final, theirs.final)
    for t in marks:
        assert np.array_equal(ours.checkpoints[t], theirs.checkpoints[t]), t
    for row in theirs.steps:    # each site is visited about ten times
        assert len({tuple(x) for x in walk.positions((0, 0), row).tolist()}) < n // 5
    (loop,) = loops
    assert loop.field.table.shape[0] == _kernel.TABLE_SHARED


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
                loops = _loops(m)
                ours = _runs(env, W, 60)
            _assert_same(ours, reference)
            for loop in loops:
                if per_seed:
                    assert loop.field.table.shape[0] == W * per_seed <= cap
                    assert loop.field.table[:, 0].any()
                else:
                    assert loop.field.table is None


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


def _numpy_until(monkeypatch, env, region, start, keys):
    """``_until`` stepped with numpy alone."""
    with monkeypatch.context() as m:
        m.setattr(_kernel, "loop", lambda *a: None)
        return _until(env, region, start, keys)


def _assert_same_until(a, b, what):
    for field in ("status", "final", "steps_taken", "visits"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), (what, field)


@needs_gcc
@pytest.mark.parametrize("per_walker", [False, True], ids=["shared", "per_walker"])
@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_compiled_regions_equal_the_numpy_path(monkeypatch, law, per_walker):
    # a region runs in one kernel call unless numpy must take a step, and
    # equals numpy's run; the kernel decides every region itself; a fixed
    # run takes one call per stop
    for W in (1, 7, 200):
        env = Environment(law, rng.derive_keys(3, "walkers", n=W) if per_walker else 5)
        keys = walk.walk_keys(9, W)
        for name, region, start in _regions(env.dim):
            with monkeypatch.context() as m:
                calls = _counting(m, _kernel.Loop, "__call__")
                steps = _counting(m, walk, "_step_batch")
                regions = _counting(m, lattice.Bounds, "__call__")
                ours = _until(env, region, start, keys)
            assert not regions, name
            if steps:
                assert len(calls) <= 1 + len(steps), name
            else:
                assert len(calls) == 1, name
            theirs = _numpy_until(monkeypatch, env, region, start, keys)
            _assert_same_until(ours, theirs, (name, W))
            assert W < 200 or len(set(ours.steps_taken.tolist())) > 1, name
        with monkeypatch.context() as m:
            calls = _counting(m, _kernel.Loop, "__call__")
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
@pytest.mark.parametrize("guard", [2.0, 0.01], ids=["every_step", "some_steps"])
def test_compiled_regions_resume_identically_after_hand_backs(monkeypatch, guard):
    # after each step numpy takes, the kernel settles the region again
    W = 7
    handed = loop_total = 0
    for law in (UniformDrift(2, 0.2), Expl(2, 0.3), TrapSym(2), TrapTransient(1)):
        env = Environment(law, rng.derive_keys(4, "walkers", n=W))
        keys = walk.walk_keys(5, W)
        for name, region, start in _regions(env.dim):
            reference = _numpy_until(monkeypatch, env, region, start, keys)
            with monkeypatch.context() as m:
                m.setattr(_kernel, "GUARD_MARGIN", guard)
                steps = _counting(m, walk, "_step_batch")
                regions = _counting(m, lattice.Bounds, "__call__")
                ours = _until(env, region, start, keys)
            _assert_same_until(ours, reference, (law, name))
            assert not regions, (law, name)
            loop_steps = int(reference.steps_taken.max())
            if guard == 2.0:
                assert len(steps) == loop_steps
            handed += len(steps)
            loop_total += loop_steps
        if guard == 2.0:
            # a stop at every step, each reached by numpy's step, so every
            # stop's last call starts at the stop and returns at once
            n, start, marks = 60, np.zeros(env.dim), range(1, 61)
            with monkeypatch.context() as m:
                m.setattr(_kernel, "loop", lambda *a: None)
                reference = walk.run_fixed_batch(env, start, n, keys, checkpoints=marks)
            with monkeypatch.context() as m:
                m.setattr(_kernel, "GUARD_MARGIN", guard)
                calls = _counting(m, _kernel.Loop, "__call__")
                steps = _counting(m, walk, "_step_batch")
                ours = walk.run_fixed_batch(env, start, n, keys, checkpoints=marks)
            assert ours.checkpoints.keys() == reference.checkpoints.keys()
            for t, snap in ours.checkpoints.items():
                assert np.array_equal(snap, reference.checkpoints[t]), (law, t)
            assert np.array_equal(ours.final, reference.final), law
            assert len(steps) == n and len(calls) <= len(marks) + len(steps), law
    if guard < 2.0:
        assert 0 < handed < loop_total


@needs_gcc
def test_kernel_never_hands_back_a_region(monkeypatch):
    # the cube's visit-law walks and the float slab and levels of the
    # slab-decay criterion never reach numpy's predicate
    regions = _counting(monkeypatch, lattice.Bounds, "__call__")
    for law in (UniformDrift(2), Expl(2, 0.3), TrapSym(2)):
        rep = hypercube.visit_law_check(Environment(law, 7),
                                        lattice.UnitHypercube((0, 0)), 0, 10_000, 8)
        assert rep.n == 10_000
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
    assert not regions


@needs_gcc
def test_walks_next_to_exact_ties_equal_the_numpy_path(monkeypatch):
    # 0.6 x + 0.8 y hits the bounds 7, -7, 8, -3 exactly at some sites,
    # where a product summed in another order can land one ulp off; walks
    # start on those sites and their neighbours, all of them decided by
    # the kernel alone
    forms = np.array([[0.6, -0.8], [0.8, 0.6]])
    ell = forms[:, 0].tolist()
    grid = [(x, y) for x in range(-40, 41) for y in range(-40, 41)]
    ties = {b: [x for x in grid if float(x[0]) * ell[0] + float(x[1]) * ell[1] == b]
            for b in (7.0, -7.0, 8.0, -3.0)}
    assert all(ties.values())
    sites = np.array(sum(ties.values(), []), dtype=np.int64)
    next_to = (sites[:, None] + lattice.step_vectors(2)).reshape(-1, 2)
    starts = np.unique(np.concatenate([sites, next_to]), axis=0)
    regions = [lattice.Bounds(ell, -7.0, 7.0, True, True),
               lattice.Bounds(ell, -7.0, 7.0, False, False),
               lattice.Bounds(ell, -3.0, 8.0, False, True),
               lattice.Bounds(forms, [-3.0, -8.0], [7.0, 8.0], True, False)]
    keys = walk.walk_keys(12, len(starts))
    for law in (UniformDrift(2, 0.2), Expl(2, 0.3), TrapSym(2), TrapTransient(1)):
        env = Environment(law, 8)
        for i, region in enumerate(regions):
            with monkeypatch.context() as m:
                calls = _counting(m, lattice.Bounds, "__call__")
                ours = walk.run_until_batch(env, starts, keys, 60, region)
            assert not calls, (law, i)
            with monkeypatch.context() as m:
                m.setattr(_kernel, "loop", lambda *a: None)
                theirs = walk.run_until_batch(env, starts, keys, 60, region)
            _assert_same_until(ours, theirs, (law, i))
            assert (ours.steps_taken == 0).any() and (ours.steps_taken > 0).any()


@needs_gcc
@pytest.mark.parametrize("guard", [2.0 ** -40, 0.01], ids=["default", "wide_guard"])
def test_wide_batches_that_stop_at_once_equal_the_numpy_path(monkeypatch, guard):
    # 300 walkers, more rows than one block of the kernel's region pass
    # without branches: the first 256 start on, next to or just outside the
    # edge of a box, so that the first steps stop many of them, and the
    # rest at its centre, which none leave for a while; then walkers that
    # share a start outside the box, and a unit cube's start corner, where
    # their visits are counted
    W = 300
    box = lattice.Bounds(np.eye(2), [-6.0, -6.0], [6.0, 6.0], True, False)
    i = np.arange(W)
    starts = np.where((i < 256)[:, None],
                      np.stack([4 + i % 3, (i // 3) % 11 - 5], axis=1), 0)
    cube = lattice.UnitHypercube((2, -1))
    calls = [(starts, box, (5, 0)), (starts, box, None), (np.array([6, 0]), box, (6, 0)),
             (np.array(cube.corners[0]), cube.region, cube.corners[0])]
    keys = walk.walk_keys(13, W)
    for law in (UniformDrift(2, 0.2), Expl(2, 0.3), TrapSym(2)):
        for seeds in (3, rng.derive_keys(3, "walkers", n=W)):
            env = Environment(law, seeds)
            for starts_, region, target in calls:
                def run():
                    return walk.run_until_batch(env, starts_, keys, 400, region,
                                                count_visits_to=target)
                with monkeypatch.context() as m:
                    m.setattr(_kernel, "loop", lambda *a: None)
                    theirs = run()
                with monkeypatch.context() as m:
                    m.setattr(_kernel, "GUARD_MARGIN", guard)
                    ours = run()
                _assert_same_until(ours, theirs, (law, target))
                assert (ours.steps_taken <= 2).sum() > W // 4


def test_splitting_hits_lie_below_the_front_by_bounds(monkeypatch):
    # each level's hits are its exited walks at or below the front L as
    # Bounds evaluates the form: the pass's estimate is the product of
    # their shares, and the next level starts from them
    ell, L, n = (0.6, 0.8), 7.0, 300
    below = lattice.Bounds(ell, -np.inf, L, True, True)
    runs = []
    run = criteria.run_until_batch

    def recorded(env, starts, keys, budget, inside):
        res = run(env, starts, keys, budget, inside)
        runs.append((np.broadcast_to(starts, res.final.shape), res))
        return res

    monkeypatch.setattr(criteria, "run_until_batch", recorded)
    for law in (UniformDrift(2, 0.05), Expl(2, 0.4), TrapSym(2)):
        runs.clear()
        p, censored = criteria._splitting_once(Environment(law, 3), ell, 1.0, L, n,
                                               20_000, 5, 1.5)
        assert censored == 0 and len(runs) > 1
        shares = []
        for j, (starts, res) in enumerate(runs):
            hits = (res.status == walk.STATUS_EXITED) & below(res.final)
            shares.append(hits.sum() / n)
            if j:
                assert below(starts).all()
                prev = runs[j - 1][1]
                prev_hits = {tuple(x) for x in prev.final[
                    (prev.status == walk.STATUS_EXITED) & below(prev.final)].tolist()}
                assert {tuple(x) for x in starts.tolist()} <= prev_hits
        assert p == math.prod(shares)


def _sequence(env, W):
    """Fixed and stopping runs on several regions, one after another on
    ``env``: every output of each, in order."""
    keys = walk.walk_keys(9, W)
    start = np.zeros(env.dim, dtype=np.int64)
    regions = {name: (bounds, at) for name, bounds, at in _regions(env.dim)}
    fixed = walk.run_fixed_batch(env, start, 150, keys, checkpoints=[1, 40, 41])
    out = [fixed.final, *fixed.checkpoints.values()]
    for name in ("slab", "cube", "box", "level", "slab"):
        bounds, at = regions[name]
        res = _until(env, bounds, at, keys)
        out += [res.status, res.final, res.steps_taken, res.visits]
    out.append(walk.run_fixed_batch(env, start, 60, keys).final)
    res = walk.run_until_batch(env, start, keys, 150, _box(env.dim))
    return out + [res.status, res.final, res.steps_taken]


@needs_gcc
@pytest.mark.parametrize("per_walker", [False, True], ids=["shared", "per_walker"])
def test_kept_field_runs_equal_fresh_and_numpy_runs(monkeypatch, per_walker):
    # one environment keeps its field, site-row table included, across a
    # sequence of fixed and stopping runs on different regions; each run
    # equals the same run on a fresh environment and on the numpy path
    W = 7
    seeds = rng.derive_keys(3, "walkers", n=W) if per_walker else 5
    for law in (UniformDrift(2, 0.2), Expl(2, 0.3), TrapSym(2), TrapTransient(1)):
        env = Environment(law, seeds)
        with monkeypatch.context() as m:
            loops = _loops(m)
            kept = _sequence(env, W)
        assert len(loops) == 8
        assert all(loop.field is env._loop_field for loop in loops)
        with monkeypatch.context() as m:
            run = _kernel.loop
            # a fresh environment for every run
            m.setattr(_kernel, "loop",
                      lambda env, *a: run(Environment(env.law, env.master_seed), *a))
            fresh = _sequence(Environment(law, seeds), W)
        with monkeypatch.context() as m:
            m.setattr(_kernel, "loop", lambda *a: None)
            reference = _sequence(Environment(law, seeds), W)
        for i, (a, b, c) in enumerate(zip(kept, fresh, reference, strict=True)):
            if a is None:
                assert b is None and c is None
                continue
            assert np.array_equal(a, b) and np.array_equal(a, c), (law, i)


@needs_gcc
@pytest.mark.parametrize("per_walker", [False, True], ids=["shared", "per_walker"])
def test_tables_are_never_reused_under_other_settings(monkeypatch, per_walker):
    # a field is rebuilt whenever GUARD_MARGIN or a TABLE_* setting differs
    # from the one it was built under, and its rows go with it: a margin of
    # 2 fails every Expl row's check, so its fresh table stays empty
    W = 7
    env = Environment(Expl(2, 0.3),
                      rng.derive_keys(3, "walkers", n=W) if per_walker else 5)
    settings = [{}, {"GUARD_MARGIN": 2.0}, {}, {"TABLE_PER_WALKER": 2, "TABLE_SHARED": 2},
                {"TABLE_CAP": 2 ** 6}, {}, {}]
    reference = _numpy_runs(monkeypatch, env, W)
    fields = []
    for setting in settings:
        with monkeypatch.context() as m:
            for name, value in setting.items():
                m.setattr(_kernel, name, value)
            loops = _loops(m)
            ours = _runs(env, W)
        _assert_same(ours, reference)
        (field,) = {loop.field for loop in loops}
        fields.append(field)
        table = field.table
        if "GUARD_MARGIN" in setting:
            assert not table[:, 0].any()
        elif "TABLE_CAP" in setting:
            assert table.shape[0] == (7 * 8 if per_walker else 2 ** 6)
        else:
            assert table[:, 0].any()
            per_slot = setting.get("TABLE_PER_WALKER" if per_walker else "TABLE_SHARED")
            if per_slot:
                assert table.shape[0] == (W if per_walker else 1) * per_slot
    # a new field at every change of setting, and only there
    assert len({id(f) for f in fields}) == 6 and fields[5] is fields[6]


@st.composite
def _laws(draw):
    """A covered law with its parameters drawn from their whole valid
    range, edges included, for d from 1 to 4."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["uniform", "expl", "trap_sym", "trap_transient"]))
    if kind == "uniform":
        return UniformDrift(d, draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)),
                            draw(st.integers(1, d)))
    if kind == "expl":
        d = max(d, 2)       # Expl rejects d = 1
        lo, hi = 1 / (2 * d + 1), 2 * d / (2 * d + 1)
        return Expl(d, draw(st.sampled_from([lo, hi]) | st.floats(lo, hi)))
    if kind == "trap_sym":
        return TrapSym(d, draw(st.none() | st.just(1.0)
                               | st.floats(0.0, 1.0, exclude_min=True)))
    return TrapTransient(d)


def _starts(draw, start, W):
    """The walkers' shared start, or W starts each at it or a step or two
    away."""
    if not draw(st.booleans()):
        return start
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return start + np.random.default_rng(seed).integers(-2, 3, size=(W, len(start)))


@st.composite
def _calls(draw, dim, W):
    """One engine call: a fixed run with checkpoints, or a stopping run on
    an integer box, a float form with a bound at or next to the start's
    value, or a unit cube entered at a corner, with an optional visit
    target at or next to the start; from that start, or from starts around
    it, so that wide batches stop at step 0 or 1 beside walkers that go
    on."""
    n = draw(st.integers(0, 200))
    start = np.array(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)),
                     dtype=np.int64)
    kind = draw(st.sampled_from(["fixed", "box", "form", "cube"]))
    if kind == "fixed":
        return (kind, None, _starts(draw, start, W), n,
                draw(st.lists(st.integers(1, 200), max_size=3)))
    closed = draw(st.booleans()), draw(st.booleans())
    if kind == "box":
        lo = draw(st.lists(st.integers(-5, 0), min_size=dim, max_size=dim))
        hi = draw(st.lists(st.integers(0, 5), min_size=dim, max_size=dim))
        region = lattice.Bounds(np.eye(dim), lo, hi, *closed)
    elif kind == "form":
        a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        at = float(_dot(start, a))
        nudge = draw(st.sampled_from([-np.inf, 0.0, np.inf]))
        bound = np.nextafter(at, nudge) if nudge else at
        width = draw(st.floats(0.5, 6.0))
        lo, hi = (bound, at + width) if draw(st.booleans()) else (at - width, bound)
        region = lattice.Bounds(a, lo, hi, *closed)
    else:
        anchor = tuple(start.tolist())
        region = lattice.UnitHypercube(anchor).region
        start = start + np.array(lattice.corner_offsets(dim)[
            draw(st.integers(0, (1 << dim) - 1))])
    target = draw(st.none() | st.sampled_from(
        [start] + [start + v for v in lattice.step_vectors(dim)]))
    return kind, region, _starts(draw, start, W), max(n, 1), target


def _call(env, call, keys):
    """Every output of one engine call."""
    kind, region, start, n, extra = call
    if kind == "fixed":
        res = walk.run_fixed_batch(env, start, n, keys, checkpoints=extra)
        return [res.final, *res.checkpoints.values()]
    target = None if extra is None else tuple(extra.tolist())
    res = walk.run_until_batch(env, start, keys, n, region, count_visits_to=target)
    return [res.status, res.final, res.steps_taken, res.visits]


@st.composite
def _cases(draw):
    law = draw(_laws())
    # narrow batches, and wide ones whose rows mostly stop at step 0 or 1
    # around a region's edge, which the kernel settles without branches
    W = draw(st.integers(1, 16) | st.integers(100, 300))
    seeds = (rng.derive_keys(draw(st.integers(0, 9)), "walkers",
                             n=W + draw(st.integers(0, 3)))
             if draw(st.booleans()) else draw(st.integers(0, 2 ** 64 - 1)))
    # a wide guard hands steps to numpy mid-run, before and after the
    # first compaction, on every step (0.01) or on some (1e-4) of a wide one
    guard = draw(st.sampled_from([_kernel.GUARD_MARGIN, 1e-4, 0.01]))
    return law, seeds, W, [draw(_calls(law.dim, W)) for _ in range(2)], guard


@needs_gcc
@settings(deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
def test_kernel_equals_numpy_at_drawn_parameters(case):
    # two consecutive calls on one environment, the second on the field
    # and site-row table the first kept, against the numpy path, with the
    # default step hand-back margin or one wide enough to hand steps back
    # mid-run; about 100 examples here, many more under
    # --hypothesis-profile=kernel-soak
    law, seeds, W, calls, guard = case
    env = Environment(law, seeds)
    keys = walk.walk_keys(2, W)
    loop, margin = _kernel.loop, _kernel.GUARD_MARGIN
    _kernel.GUARD_MARGIN = guard
    try:
        ours = [_call(env, calls[0], keys)]
        field = env._loop_field
        ours.append(_call(env, calls[1], keys))
        _kernel.loop = lambda *a: None
        reference = [_call(Environment(law, seeds), call, keys) for call in calls]
    finally:
        _kernel.loop, _kernel.GUARD_MARGIN = loop, margin
    assert field is not None and env._loop_field is field
    for got, want in zip(ours, reference, strict=True):
        for a, b in zip(got, want, strict=True):
            assert (a is None and b is None) or np.array_equal(a, b)


@needs_gcc
def test_threads_sharing_a_field_step_like_numpy(monkeypatch):
    # the kernel call releases the interpreter lock; runs on one field from
    # more threads than cores take its table one at a time
    env = Environment(TrapSym(2), 17)
    keys = [walk.walk_keys(s, 50) for s in range(6)]

    def runs(out, i):
        out[i] = walk.run_fixed_batch(env, np.zeros(2), 3000, keys[i]).final

    reference = {}
    with monkeypatch.context() as m:
        m.setattr(_kernel, "loop", lambda *a: None)
        for i in range(len(keys)):
            runs(reference, i)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(6):
            out = {}
            threads = [threading.Thread(target=runs, args=(out, i))
                       for i in range(len(keys))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads)
            assert all(np.array_equal(out[i], reference[i]) for i in range(len(keys)))
    finally:
        sys.setswitchinterval(old)


def _members(struct: str) -> list[str]:
    """The member names of the C struct ``struct`` in ``_kernel.SOURCE``,
    in order."""
    body = re.search(r"typedef struct \{([^{}]*)\} " + struct + ";", _kernel.SOURCE)
    names = []
    for decl in re.sub(r"/\*.*?\*/", "", body.group(1), flags=re.S).split(";")[:-1]:
        declarators = re.fullmatch(r"\s*(?:const\s+)?\w+\s+(.*?)\s*", decl, re.S).group(1)
        names += [re.fullmatch(r"\**(\w+)(?:\[\w+\])?", d.strip()).group(1)
                  for d in declarators.split(",")]
    return names


def test_ctypes_mirrors_list_the_c_members_in_order():
    # a member added to, dropped from or moved in field_t or run_t must be
    # mirrored, or every member after it is read at the wrong offset
    for mirror, struct in ((_kernel._Field, "field_t"), (_kernel._Run, "run_t")):
        assert [name for name, _ in mirror._fields_] == _members(struct), struct


def test_run_addresses_equal_ctypes_data():
    # the run's pointers come from a writable array's buffer, or from
    # ndarray.ctypes where there is none to take: read-only, empty, strided
    base = np.arange(12, dtype=np.int64)
    frozen = base.copy()
    frozen.flags.writeable = False
    for a in (base, base[3:], base.reshape(3, 4)[1], np.full((), 0.5),
              np.zeros(0), frozen, np.broadcast_to(base[:2], (3, 2)), base[::2]):
        assert _kernel._address(a) == a.ctypes.data
    assert _kernel._address(None) is None


@needs_gcc
def test_walker_ids_beyond_the_field_seeds_raise():
    # a run of 5 walkers on a per-walker field of 3 seeds is refused, as
    # walkers 3 and 4 have no seed; on a shared field walker 4 walks
    def run(seeds):
        loop = _kernel.loop(Environment(TrapSym(2), seeds), None, walk.STATUS_EXITED,
                            *_outputs(5, 2))
        return loop(0, 10), loop.run.rows

    assert run(5) == (10, 5)
    assert run(rng.derive_keys(2, "walkers", n=5)) == (10, 5)
    with pytest.raises(IndexError, match="more walkers than the environment's seeds"):
        run(rng.derive_keys(2, "walkers", n=3))
    # the run's buffers hold one row per walker of the run
    loop = _kernel.loop(Environment(TrapSym(2), 5), None, walk.STATUS_EXITED,
                        *_outputs(5, 2))
    loop.run.rows = 6
    with pytest.raises(IndexError, match="more rows than walkers"):
        loop(0, 10)


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
    assert _kernel.loop(env, None, walk.STATUS_EXITED, *_outputs(7, env.dim)) is None
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

        loops, loop_of = [], _kernel.loop
        _kernel.loop = lambda *a: loops.append(loop_of(*a)) or loops[-1]
        ours = runs()
        _kernel.loop = lambda *a: None
        reference = runs()
        _kernel.loop = loop_of
        assert len(loops) == 1 + len(regions)
        assert all(loop.field.table is None or loop.field.table.shape[0] <= _kernel.TABLE_CAP
                   for loop in loops)
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

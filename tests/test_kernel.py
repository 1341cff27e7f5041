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
from rwre import _kernel, rng, walk
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
    """Both engines: every step checkpointed, one long segment, and a
    stopping run with compaction and visit counts."""
    keys = walk.walk_keys(9, W)
    start = np.zeros(env.dim, dtype=np.int64)
    target = np.eye(1, env.dim, dtype=np.int64)

    def region(X):      # the box minus one target site next to the start
        return _inside(X) & ~np.all(X == target, axis=1)

    return (walk.run_fixed_batch(env, start, n, keys, checkpoints=range(1, n + 1)),
            walk.run_fixed_batch(env, start, n, keys),
            walk.run_until_batch(env, start, keys, n, region,
                                 count_visits_to=tuple(start.tolist())))


def _numpy_runs(monkeypatch, env, W, n=150):
    with monkeypatch.context() as m:
        m.setattr(_kernel, "plan", lambda env: None)
        return _runs(env, W, n)


def _assert_same(a, b):
    every_a, long_a, until_a = a
    every_b, long_b, until_b = b
    assert every_a.checkpoints.keys() == every_b.checkpoints.keys()
    for t, snap in every_a.checkpoints.items():
        assert np.array_equal(snap, every_b.checkpoints[t]), f"step {t}"
    assert np.array_equal(every_a.final, every_b.final)
    assert np.array_equal(long_a.final, long_b.final)
    for field in ("status", "final", "steps_taken", "visits"):
        assert np.array_equal(getattr(until_a, field), getattr(until_b, field)), field


@needs_gcc
@pytest.mark.parametrize("per_walker", [False, True], ids=["shared", "per_walker"])
@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_kernel_steps_equal_numpy_steps(monkeypatch, law, per_walker):
    for W in (1, 7, 200):
        env = Environment(law, rng.derive_keys(3, "walkers", n=W) if per_walker else 5)
        assert _kernel.plan(env) is not None
        ours = _runs(env, W)
        assert len(set(ours[2].steps_taken.tolist())) > 1 or W == 1
        _assert_same(ours, _numpy_runs(monkeypatch, env, W))


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
    laws = [UniformDrift(2, 0.2), Expl(2, 0.3), TrapSym(2), TrapTransient(1)]
    W, n = 7, 120
    for law in laws:
        env = Environment(law, rng.derive_keys(4, "walkers", n=W))
        reference = _runs(env, W, n)
        calls = []
        step_batch = walk._step_batch
        with monkeypatch.context() as m:
            m.setattr(_kernel, "GUARD_MARGIN", margin)
            m.setattr(walk, "_step_batch",
                      lambda *a: calls.append(a[3]) or step_batch(*a))
            handed_back = _runs(env, W, n)
        _assert_same(handed_back, reference)
        loop_steps = 2 * n + int(reference[2].steps_taken.max())
        if margin == 2.0:
            assert len(calls) == loop_steps
        else:
            assert 0 < len(calls) < loop_steps


def test_missing_compiler_falls_back_to_numpy_once(monkeypatch, tmp_path):
    env = Environment(TrapTransient(1), rng.derive_keys(4, "walkers", n=7))
    expected = _runs(env, 7, 60)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "_compiler", lambda: None)
    monkeypatch.setattr(_kernel, "_FN", None)
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
from rwre import _kernel, walk
from rwre.environment import (Environment, Expl, TrapSym, TrapTransient,
                              UniformDrift)

_kernel._FN = _kernel._load(sys.argv[1])
keys = walk.walk_keys(3, 7)
for law in (UniformDrift(2, 0.2), Expl(3, 1 / 7), TrapSym(2), TrapTransient(2)):
    for seeds in (5, np.arange(1, 8, dtype=np.uint64)):
        env = Environment(law, seeds)
        start = np.zeros(env.dim, dtype=np.int64)

        def runs():
            return (walk.run_fixed_batch(env, start, 300, keys).final,
                    walk.run_until_batch(env, start, keys, 300,
                                         inside=lambda X: np.abs(X).max(axis=1) < 4
                                         ).steps_taken)

        assert _kernel.plan(env) is not None
        ours = runs()
        plan, _kernel.plan = _kernel.plan, lambda env: None
        reference = runs()
        _kernel.plan = plan
        assert all(np.array_equal(a, b) for a, b in zip(ours, reference)), law
print("ok")
"""


@needs_gcc
def test_kernel_runs_clean_under_ubsan(tmp_path):
    flags = _kernel.CFLAGS + ("-Wall", "-Wextra", "-Werror", "-fsanitize=undefined",
                              "-fno-sanitize-recover=all")
    lib = _kernel.build(tmp_path / "kernel-ubsan.so", flags)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rwre.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", UBSAN_CHECK, str(lib)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "runtime error" not in proc.stderr
    assert proc.stdout.strip() == "ok"

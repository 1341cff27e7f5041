"""Quenched and annealed walk simulation with exit-time instrumentation.

Walks are stepped in lockstep with numpy, W at a time, by two engines that
share one stepping rule (:func:`_step_batch`: inverse-CDF over the
canonical direction order, one walk-stream uniform per step):

* :func:`run_fixed_batch` -- every walk takes exactly n steps, with
  optional position checkpoints and recorded step-index rows;
* :func:`run_until_batch` -- walks run until they leave one region or
  exhaust the budget; stopped walks are compacted away.

No other module steps walks: the slab, box and tilted-box estimators,
the splitting levels and the unit-hypercube Monte Carlo
(``UnitHypercube.contains_batch`` as the region, visits counted at the
start corner) all run on :func:`run_until_batch`, and each reads its event
(front or back side, level crossed, exit time) off the exit site.

For ``UniformDrift``, ``Expl``, ``TrapSym`` and ``TrapTransient`` the steps
are taken by the compiled loop in :mod:`rwre._kernel`, once per segment
between checkpoints or once per stopping step, with step sequences equal
to :func:`_step_batch`'s by construction; it hands back to
:func:`_step_batch` any step it cannot decide exactly.  Other laws, hosts
without a compiler and recorded runs step with numpy.  Both engines
validate their batch (keys, start rows, dimension, length, per-walker
seeds, the visit-count site) before the first step.

A single walk is a batch of width one, and :func:`positions` turns a
recorded row into its path.  Budget exhaustion is a normal, flagged
outcome everywhere ("censored"), never an error: the heavy-tailed
quantities this package estimates make unresolved runs informative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel, rng
from .environment import Environment
from .lattice import Site, step_vectors


def positions(start, steps: np.ndarray) -> np.ndarray:
    """(n+1, d) positions of a recorded step-index row, the start included."""
    start = np.atleast_1d(np.asarray(start, dtype=np.int64))
    out = np.empty((len(steps) + 1, len(start)), dtype=np.int64)
    out[0] = start
    np.cumsum(step_vectors(len(start))[steps], axis=0, out=out[1:])
    out[1:] += start
    return out


def walk_keys(master_seed: int, n: int, salt: str = "walk") -> np.ndarray:
    """Derive n independent walk-stream keys from a master seed."""
    return rng.derive_keys(master_seed, salt, n=n)


def _step_batch(env: Environment, pos: np.ndarray, keys: np.ndarray,
                t: int, sv: np.ndarray, idx=None) -> np.ndarray:
    """Advance every walk in pos one step in place; returns chosen indices."""
    P = env.transitions_batch(pos, idx)
    u = rng.stream_uniforms(keys, t)
    cum = np.cumsum(P, axis=1)
    idx = np.minimum((cum < u[:, None]).sum(axis=1), P.shape[1] - 1)
    pos += sv[idx]
    return idx


def _batch(env: Environment, starts, keys) -> tuple[np.ndarray, np.ndarray]:
    """Validated (W, d) start positions and W walk keys of a batch."""
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if keys.ndim != 1:
        raise ValueError("keys must be a 1-D array of walk keys")
    pos = np.array(starts, dtype=np.int64)
    if pos.ndim == 1:
        pos = np.broadcast_to(pos, (len(keys), len(pos))).copy()
    if pos.shape != (len(keys), env.dim):
        raise ValueError(f"starts must have shape ({len(keys)}, {env.dim}) "
                         f"for {len(keys)} walk keys, got {pos.shape}")
    if np.ndim(env.master_seed) and len(env.master_seed) < len(keys):
        raise ValueError(f"{len(keys)} walkers but only {len(env.master_seed)} "
                         "per-walker seeds")
    return pos, keys


def _advance(env: Environment, plan, pos: np.ndarray, keys: np.ndarray,
             t: int, stop: int, sv: np.ndarray, live=None, rec=None) -> None:
    """Step every row of pos in place from step t to step stop.

    The compiled kernel takes every step it can decide exactly; a step it
    hands back, and every step of a law it does not cover (plan None), is
    taken by :func:`_step_batch`.
    """
    while t < stop:
        if plan is not None:
            t += _kernel.step(plan, pos, keys, t, stop - t, live)
            if t == stop:
                break
        choice = _step_batch(env, pos, keys, t, sv, live)
        if rec is not None:
            rec[:, t] = choice
        t += 1


@dataclass
class FixedBatchResult:
    final: np.ndarray                       # (W, d)
    checkpoints: dict[int, np.ndarray]
    steps: np.ndarray | None                # (W, n) uint8 when recorded


def run_fixed_batch(env: Environment, starts: np.ndarray, nsteps: int,
                    keys: np.ndarray, checkpoints=None,
                    record_steps: bool = False) -> FixedBatchResult:
    """Step W walks for exactly nsteps; optionally snapshot and record.

    ``checkpoints`` are step counts in [1, nsteps] at which positions are
    snapshot; larger ones are ignored.
    """
    if nsteps < 0:
        raise ValueError("nsteps must be >= 0")
    pos, keys = _batch(env, starts, keys)
    marks = sorted(m for m in set(checkpoints or []) if m <= nsteps)
    if marks and marks[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    rec = np.empty((len(pos), nsteps), dtype=np.uint8) if record_steps else None
    # Recorded runs step with numpy for now: with the kernel, the benchmark's
    # ballistic_cli pass (rwre regen) ends within one interval of its
    # host-speed sampler, which then has nothing to rescale the pass by.
    plan = None if record_steps else _kernel.plan(env)
    sv = step_vectors(env.dim)
    snaps: dict[int, np.ndarray] = {}
    t = 0
    for mark in marks:
        _advance(env, plan, pos, keys, t, mark, sv, rec=rec)
        snaps[mark] = pos.copy()
        t = mark
    _advance(env, plan, pos, keys, t, nsteps, sv, rec=rec)
    return FixedBatchResult(pos, snaps, rec)


# Fixed codes: readers of recorded results compare status against them.
STATUS_BUDGET, STATUS_EXITED = 0, 2


@dataclass
class UntilBatchResult:
    status: np.ndarray          # (W,) uint8: 0 budget, 2 exited
    final: np.ndarray           # (W, d) position at stop
    steps_taken: np.ndarray     # (W,)
    visits: np.ndarray | None   # (W,) when count_visits_to was given

    def censored(self) -> int:
        return int(np.sum(self.status == STATUS_BUDGET))


def run_until_batch(env: Environment, starts: np.ndarray, keys: np.ndarray,
                    horizon: int, inside,
                    count_visits_to: Site | None = None) -> UntilBatchResult:
    """Run W walks until each leaves the region or exhausts the budget.

    ``inside`` is a vectorized predicate on (N, d) position arrays; a walk
    that starts outside the region stops at step 0.  Stopped walks are
    compacted away so the cost tracks the number of live walks.
    ``count_visits_to`` counts time spent at one site of dimension
    ``env.dim`` (including the start when it matches).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    pos, ckeys = _batch(env, starts, keys)
    W = pos.shape[0]
    if count_visits_to is not None and np.shape(count_visits_to) != (env.dim,):
        raise ValueError(f"count_visits_to must be one site of dimension "
                         f"{env.dim}, got shape {np.shape(count_visits_to)}")
    plan = _kernel.plan(env)
    sv = step_vectors(env.dim)
    status = np.zeros(W, dtype=np.uint8)
    final = pos.copy()
    steps_taken = np.zeros(W, dtype=np.int64)
    visits = np.zeros(W, dtype=np.int64) if count_visits_to is not None else None
    target = (np.asarray(count_visits_to, dtype=np.int64)
              if count_visits_to is not None else None)

    live = np.arange(W, dtype=np.int64)
    cur = pos

    # compress() rather than boolean indexing, and the visit test one column
    # at a time: both are several times cheaper on the wide, short-lived
    # batches of the cube Monte Carlo.
    def settle(t: int):
        nonlocal live, cur, ckeys
        keep = inside(cur)
        if keep.all():
            return
        gone = ~keep
        ids = live.compress(gone)
        status[ids] = STATUS_EXITED
        final[ids] = cur.compress(gone, axis=0)
        steps_taken[ids] = t
        live = live.compress(keep)
        cur = cur.compress(keep, axis=0)
        ckeys = ckeys.compress(keep)

    def count_visits():
        at = cur[:, 0] == target[0]
        for i in range(1, len(target)):
            at &= cur[:, i] == target[i]
        if at.any():
            visits[live.compress(at)] += 1

    settle(0)
    if visits is not None and len(live):
        count_visits()

    for t in range(horizon):
        if not len(live):
            break
        _advance(env, plan, cur, ckeys, t, t + 1, sv, live=live)
        if visits is not None:
            count_visits()
        settle(t + 1)
    if len(live):
        status[live] = STATUS_BUDGET
        final[live] = cur
        steps_taken[live] = horizon
    return UntilBatchResult(status, final, steps_taken, visits)


def trajectory_to_csv(pos: np.ndarray, path) -> None:
    """Dump (n+1, d) positions as CSV with columns step,x_1,...,x_d."""
    d = pos.shape[1]
    with open(path, "w", encoding="utf-8") as f:
        f.write("step," + ",".join(f"x_{i + 1}" for i in range(d)) + "\n")
        for t, row in enumerate(pos):
            f.write(str(t) + "," + ",".join(str(int(v)) for v in row) + "\n")

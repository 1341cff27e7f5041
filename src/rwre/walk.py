"""Quenched and annealed walk simulation with exit-time instrumentation.

Walks are stepped in lockstep, W at a time, by two engines that share one
stepping loop (:func:`_walk`) and one stepping rule (:func:`_step_batch`:
inverse-CDF over the canonical direction order, one walk-stream uniform
per step, drawn in one call with the site uniforms):

* :func:`run_fixed_batch` -- every walk takes exactly n steps, with
  optional position checkpoints and recorded step-index rows: the loop on
  the whole lattice, stopping at each checkpoint;
* :func:`run_until_batch` -- walks run until they leave one region or
  exhaust the budget; stopped walks are compacted away.

No other module steps walks: the slab, box and tilted-box estimators,
the splitting levels and the unit-hypercube Monte Carlo
(``UnitHypercube.region`` as the region, visits counted at the start
corner) all run on :func:`run_until_batch`, and each reads its event
(front or back side, level crossed, exit time) off the exit site.

Every region is a :class:`~rwre.lattice.Bounds`.  For ``UniformDrift``,
``Expl``, ``TrapSym`` and ``TrapTransient``, the steps are taken by one
compiled run of :mod:`rwre._kernel` (``_kernel.loop``) per batch, one call
per stop, on the compiled field the environment keeps across batches, with
step sequences equal to :func:`_step_batch`'s by
construction; the kernel evaluates the region with ``Bounds``' own sums,
so it decides every region itself, compacts, and hands back to numpy any
step it cannot decide exactly.  Walkers that share one start keep it as
one (d,) site: the kernel settles it once for all of them (one region
and one visit test) and writes it into its rows, and it copies the
caller's keys into its rows itself; it compacts the stopped walkers in
the pass that finds them, so a step handed back to numpy moves live rows
only.  Neither engine writes into the caller's
keys or starts.  Other laws, hosts without a compiler and recorded runs
step with numpy.  Both engines validate their batch (integer keys, start
rows, dimension, integral lengths and sites, per-walker seeds, the
visit-count site, the region's type and dimension) before the first step.

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
from .errors import ParameterError
from .lattice import Bounds, Site, _sites, step_vectors


def positions(start, steps: np.ndarray) -> np.ndarray:
    """(n+1, d) positions of a recorded step-index row, the start included."""
    start = np.atleast_1d(_sites(start, "start"))
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
    """Advance every walk in pos one step in place; returns chosen indices.

    One draw per step: row i of the counter grid holds walker i's site key
    plus the offsets of draws 0..nvars-1 in its first nvars columns and its
    walk key plus the offset of draw t in the last, so the site uniforms
    are those of ``env.transitions_batch`` and the last column is draw t of
    the walk.  The choice is the inverse CDF over the row's cumulative sums,
    the last of which counts as +inf: the number of sums below the walk
    uniform, at most 2 dim - 1, is the index of the first that is not.
    """
    nv = env._nvars
    if nv:
        grid = np.empty((len(pos), nv + 1), dtype=np.uint64)
        np.add(env._site_keys(pos, idx)[:, None], rng._offsets(nv), out=grid[:, :nv])
        np.add(keys, rng._offset(t), out=grid[:, nv])
        U = rng._uniforms(grid)
        P, u = env._rows(U[:, :nv]), U[:, nv:]
    else:
        P, u = env.transitions_batch(pos, idx), rng.stream_uniforms(keys, t)[:, None]
    for j in range(1, P.shape[1] - 1):      # cumsum, in place on the rows' own array
        P[:, j] += P[:, j - 1]
    P[:, -1] = np.inf
    choice = (P < u).argmin(axis=1)
    pos += sv.take(choice, axis=0)
    return choice


def _count(n, what: str):
    """A step count n, or ParameterError unless it is a Python or numpy integer."""
    if not isinstance(n, (int, np.integer)):
        raise ParameterError(f"{what} must be an integer, got {n!r}")
    return n


def _batch(env: Environment, starts, keys) -> tuple[np.ndarray, np.ndarray]:
    """Validated starts of a batch, one shared (d,) start or (W, d) starts
    (a copy either way), and its W walk keys (the caller's array when it
    is one of contiguous uint64)."""
    a = np.asarray(keys)
    if a.dtype.kind not in "iu":
        # numpy makes float64 of a list that mixes keys below 2**63 with
        # keys at or above it: such a list is converted key by key
        if (isinstance(keys, np.ndarray) or a.ndim != 1
                or not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                           for k in keys)):
            raise ParameterError(f"keys must be integer walk keys, got dtype {a.dtype}")
        a = np.array(keys, dtype=np.uint64)
    keys = np.ascontiguousarray(a, dtype=np.uint64)
    if keys.ndim != 1:
        raise ParameterError("keys must be a 1-D array of walk keys")
    pos = _sites(starts, "starts")
    if pos.shape not in ((env.dim,), (len(keys), env.dim)):
        raise ParameterError(f"starts must have shape ({env.dim},) or ({len(keys)}, "
                             f"{env.dim}) for {len(keys)} walk keys, got {pos.shape}")
    if np.ndim(env.master_seed) and len(env.master_seed) < len(keys):
        raise ParameterError(f"{len(keys)} walkers but only {len(env.master_seed)} "
                             "per-walker seeds")
    return pos, keys


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
    if _count(nsteps, "nsteps") < 0:
        raise ParameterError("nsteps must be >= 0")
    pos, keys = _batch(env, starts, keys)
    marks = sorted(m for m in set(checkpoints or [])
                   if _count(m, "checkpoints") <= nsteps)
    if marks and marks[0] < 1:
        raise ParameterError("checkpoints must be >= 1")
    rec = np.empty((len(keys), nsteps), dtype=np.uint8) if record_steps else None
    res, snaps = _walk(env, pos, keys, sorted({*marks, nsteps}), None, rec=rec)
    return FixedBatchResult(res.final, {m: snaps[m] for m in marks}, rec)


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
                    horizon: int, inside: Bounds,
                    count_visits_to: Site | None = None) -> UntilBatchResult:
    """Run W walks until each leaves the region or exhausts the budget.

    ``inside`` is a :class:`~rwre.lattice.Bounds` of dimension ``env.dim``;
    a walk that starts outside it stops at step 0.  Stopped walks are
    compacted away so the cost tracks the number of live walks.
    ``count_visits_to`` counts time spent at one site of dimension
    ``env.dim`` (including the start when it matches and lies inside the
    region).
    """
    if _count(horizon, "horizon") < 1:
        raise ParameterError("horizon must be >= 1")
    pos, keys = _batch(env, starts, keys)
    if not isinstance(inside, Bounds):
        raise ParameterError("inside must be a lattice.Bounds region, got "
                             f"{type(inside).__name__}")
    if inside.A.shape[0] != env.dim:
        raise ParameterError(f"region of dimension {inside.A.shape[0]} for "
                             f"walks of dimension {env.dim}")
    if count_visits_to is not None and np.shape(count_visits_to) != (env.dim,):
        raise ParameterError(f"count_visits_to must be one site of dimension "
                             f"{env.dim}, got shape {np.shape(count_visits_to)}")
    target = (_sites(count_visits_to, "count_visits_to")
              if count_visits_to is not None else None)
    return _walk(env, pos, keys, [horizon], inside, target)[0]


def _walk(env: Environment, pos: np.ndarray, keys: np.ndarray, stops, inside,
          target=None, rec=None) -> tuple[UntilBatchResult, dict[int, np.ndarray]]:
    """Run a validated batch through the increasing step counts ``stops``.

    ``pos`` is the walkers' shared start or their starts, which are moved
    in place; ``keys`` is only read.  Walks stop on leaving ``inside``
    (None: the whole lattice, which no walk leaves) or at the last stop.
    ``target`` is the site whose visits are counted; ``rec`` (whole-lattice
    runs only) receives each step's chosen indices.  Returns the result
    and the positions of the live walkers at each stop.
    """
    W = len(keys)
    # every walker's status, final site and step count are written where it
    # stops, or at the last stop
    status = np.empty(W, dtype=np.uint8)
    final = np.empty((W, env.dim), dtype=np.int64)
    steps_taken = np.empty(W, dtype=np.int64)
    visits = np.zeros(W, dtype=np.int64) if target is not None else None
    # Recorded runs step with numpy for now: with the kernel, the benchmark's
    # ballistic_cli pass (rwre regen) ends within one interval of its
    # host-speed sampler, which then has nothing to rescale the pass by.
    loop = (_kernel.loop(env, inside, STATUS_EXITED, status, final, steps_taken,
                         visits, target, pos, keys) if rec is None else None)
    sv = step_vectors(env.dim)

    # the live walkers' ids, keys and sites, which numpy steps: the
    # compiled loop keeps its own rows and hands them over after each call
    if loop is None:
        live, ckeys = np.arange(W, dtype=np.int64), keys
        cur = np.broadcast_to(pos, (W, env.dim)).copy() if pos.ndim == 1 else pos

    # compress() rather than boolean indexing, and the visit test one column
    # at a time: both are several times cheaper on wide batches of walks
    # that stop within a few steps.
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

    # Each pass evaluates the region at step t (and counts the start's
    # visits at t = 0), then breaks at the stop or takes step t with numpy.
    # The compiled loop, when there is one, makes the pass's start and runs
    # on until numpy must take a step or the stop is reached.
    snaps: dict[int, np.ndarray] = {}
    t = 0
    for stop in stops:
        while True:
            if loop is not None:
                t = loop(t, stop)
                live, ckeys, cur = loop.rows()
            else:
                if inside is not None:
                    settle(t)
                if t == 0 and visits is not None and len(live):
                    count_visits()
            if t == stop or not len(live):
                break
            choice = _step_batch(env, cur, ckeys, t, sv, live)
            if rec is not None:
                rec[:, t] = choice
            if visits is not None:
                count_visits()
            t += 1
        snaps[stop] = cur.copy()
    if len(live):
        status[live] = STATUS_BUDGET
        final[live] = cur
        steps_taken[live] = stops[-1]
    return UntilBatchResult(status, final, steps_taken, visits), snaps


def trajectory_to_csv(pos: np.ndarray, path) -> None:
    """Dump (n+1, d) positions as CSV with columns step,x_1,...,x_d."""
    d = pos.shape[1]
    with open(path, "w", encoding="utf-8") as f:
        f.write("step," + ",".join(f"x_{i + 1}" for i in range(d)) + "\n")
        for t, row in enumerate(pos):
            f.write(str(t) + "," + ",".join(str(int(v)) for v in row) + "\n")

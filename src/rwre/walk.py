"""Quenched and annealed walk simulation with hitting/exit instrumentation.

Walks are stepped in lockstep with numpy, W at a time, by two engines that
share one stepping rule (:func:`_step_batch`: inverse-CDF over the
canonical direction order, one walk-stream uniform per step):

* :func:`run_fixed_batch` -- every walk takes exactly n steps, with
  optional position checkpoints and recorded step-index rows;
* :func:`run_until_batch` -- walks run until they leave a region, hit a
  target set or exhaust the budget; stopped walks are compacted away.

A single walk is a batch of width one, and :func:`positions` turns a
recorded row into its path.  Budget exhaustion is a normal, flagged
outcome everywhere ("censored"), never an error: the heavy-tailed
quantities this package estimates make unresolved runs informative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng, stats
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


@dataclass
class FixedBatchResult:
    final: np.ndarray                       # (W, d)
    checkpoints: dict[int, np.ndarray]
    steps: np.ndarray | None                # (W, n) uint8 when recorded


def run_fixed_batch(env: Environment, starts: np.ndarray, nsteps: int,
                    keys: np.ndarray, checkpoints=None,
                    record_steps: bool = False) -> FixedBatchResult:
    """Step W walks for exactly nsteps; optionally snapshot and record."""
    pos = np.array(starts, dtype=np.int64)
    if pos.ndim == 1:
        pos = np.broadcast_to(pos, (len(keys), len(pos))).copy()
    W = pos.shape[0]
    sv = step_vectors(env.dim)
    marks = sorted(set(checkpoints or []))
    snaps: dict[int, np.ndarray] = {}
    rec = np.empty((W, nsteps), dtype=np.uint8) if record_steps else None
    for t in range(nsteps):
        idx = _step_batch(env, pos, keys, t, sv)
        if rec is not None:
            rec[:, t] = idx
        if marks and (t + 1) == marks[0]:
            snaps[t + 1] = pos.copy()
            marks.pop(0)
    return FixedBatchResult(pos, snaps, rec)


STATUS_BUDGET, STATUS_HIT, STATUS_EXITED = 0, 1, 2


@dataclass
class UntilBatchResult:
    status: np.ndarray          # (W,) uint8: 0 budget, 1 hit, 2 exited
    final: np.ndarray           # (W, d) position at stop
    steps_taken: np.ndarray     # (W,)
    visits: np.ndarray | None   # (W,) when count_visits_to was given

    def censored(self) -> int:
        return int(np.sum(self.status == STATUS_BUDGET))


def run_until_batch(env: Environment, starts: np.ndarray, keys: np.ndarray,
                    horizon: int, inside=None, hit=None,
                    count_visits_to: Site | None = None,
                    check_start: bool = True) -> UntilBatchResult:
    """Run W walks until exiting a region / hitting targets / budget.

    ``inside`` and ``hit`` are vectorized predicates on (N, d) position
    arrays.  Stopped walks are compacted away so the cost tracks the number
    of live walks.  ``count_visits_to`` counts time spent at one site
    (including the start when it matches).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    pos = np.array(starts, dtype=np.int64)
    if pos.ndim == 1:
        pos = np.broadcast_to(pos, (len(keys), len(pos))).copy()
    W = pos.shape[0]
    sv = step_vectors(env.dim)
    status = np.zeros(W, dtype=np.uint8)
    final = pos.copy()
    steps_taken = np.zeros(W, dtype=np.int64)
    visits = np.zeros(W, dtype=np.int64) if count_visits_to is not None else None
    target = (np.asarray(count_visits_to, dtype=np.int64)
              if count_visits_to is not None else None)

    live = np.arange(W)
    cur = pos
    ckeys = np.asarray(keys, dtype=np.uint64)

    def settle(mask: np.ndarray, code: int, t: int):
        nonlocal live, cur, ckeys
        if not mask.any():
            return
        ids = live[mask]
        status[ids] = code
        final[ids] = cur[mask]
        steps_taken[ids] = t
        keep = ~mask
        live = live[keep]
        cur = cur[keep]
        ckeys = ckeys[keep]

    if check_start:
        if hit is not None:
            settle(hit(cur), STATUS_HIT, 0)
        if inside is not None and len(live):
            settle(~inside(cur), STATUS_EXITED, 0)

    if visits is not None and len(live):
        visits[live[np.all(cur == target, axis=1)]] += 1

    for t in range(horizon):
        if not len(live):
            break
        _step_batch(env, cur, ckeys, t, sv, idx=live)
        if visits is not None:
            at = np.all(cur == target, axis=1)
            if at.any():
                visits[live[at]] += 1
        if hit is not None:
            settle(hit(cur), STATUS_HIT, t + 1)
        if inside is not None and len(live):
            settle(~inside(cur), STATUS_EXITED, t + 1)
    if len(live):
        status[live] = STATUS_BUDGET
        final[live] = cur
        steps_taken[live] = horizon
    return UntilBatchResult(status, final, steps_taken, visits)


@dataclass
class HitBeforeReturnEstimate:
    p_hat: float
    ci_low: float
    ci_high: float
    n_hit: int
    n_returned: int
    n_censored: int


def hit_before_return(env: Environment, x: Site, targets, forbidden: Site,
                      horizon: int, runs: int, master_seed: int,
                      ) -> HitBeforeReturnEstimate:
    """Estimate P_x[T_targets < T_forbidden^+] by Monte Carlo.

    Censored runs (budget exhausted before either event) are counted
    separately; the point estimate conditions on resolved runs.
    """
    if x in set(targets):
        raise ValueError("start must not already be in the target set")
    targets = np.array(sorted(set(targets)), dtype=np.int64)
    forb = np.asarray(forbidden, dtype=np.int64)

    def hit_pred(P):
        return (P[:, None, :] == targets[None, :, :]).all(axis=2).any(axis=1)

    def not_returned(P):
        return ~np.all(P == forb, axis=1)

    keys = walk_keys(master_seed, runs, salt="hit_before_return")
    res = run_until_batch(env, np.asarray(x), keys, horizon,
                          inside=not_returned, hit=hit_pred, check_start=False)
    n_hit = int(np.sum(res.status == STATUS_HIT))
    n_ret = int(np.sum(res.status == STATUS_EXITED))
    n_cen = int(np.sum(res.status == STATUS_BUDGET))
    n = n_hit + n_ret
    p = n_hit / n if n else float("nan")
    lo, hi = stats.binomial_ci(n_hit, n)
    return HitBeforeReturnEstimate(p, lo, hi, n_hit, n_ret, n_cen)


def trajectory_to_csv(pos: np.ndarray, path) -> None:
    """Dump (n+1, d) positions as CSV with columns step,x_1,...,x_d."""
    d = pos.shape[1]
    with open(path, "w", encoding="utf-8") as f:
        f.write("step," + ",".join(f"x_{i + 1}" for i in range(d)) + "\n")
        for t, row in enumerate(pos):
            f.write(str(t) + "," + ",".join(str(int(v)) for v in row) + "\n")

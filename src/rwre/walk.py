"""Quenched walk simulation with hitting/exit instrumentation.

Two engines share the same stepping rule (inverse-CDF over the canonical
direction order, one walk-stream uniform per step):

* :func:`run` -- a single instrumented trajectory, with per-site caching
  of the quenched transition vectors.
* :func:`run_fixed_batch` / :func:`run_until_batch` -- many walks stepped
  in lockstep with numpy; this is what every heavy experiment uses.

Budget exhaustion is a normal, flagged outcome everywhere ("censored"),
never an error: the heavy-tailed quantities this package estimates make
unresolved runs informative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .environment import Environment
from .lattice import Site, step_vectors


@dataclass(frozen=True)
class StopCondition:
    kind: str                      # 'hit' or 'exit'
    sites: frozenset | None = None
    predicate: object = None       # membership test for 'exit', target test for 'hit'

    def triggered(self, site: Site) -> bool:
        if self.kind == "hit":
            if self.sites is not None:
                return site in self.sites
            return bool(self.predicate(site))
        inside = site in self.sites if self.sites is not None else bool(self.predicate(site))
        return not inside


@dataclass(frozen=True)
class StopSpec:
    """Stop at the first satisfied condition, or when the budget runs out."""

    conditions: tuple[StopCondition, ...]
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @classmethod
    def hit(cls, targets, horizon: int) -> "StopSpec":
        return cls((StopCondition("hit", sites=frozenset(targets)),), horizon)

    @classmethod
    def exit_of(cls, region, horizon: int) -> "StopSpec":
        if callable(region):
            cond = StopCondition("exit", predicate=region)
        else:
            cond = StopCondition("exit", sites=frozenset(region))
        return cls((cond,), horizon)

    @classmethod
    def first_of(cls, specs) -> "StopSpec":
        conds = tuple(c for s in specs for c in s.conditions)
        return cls(conds, min(s.horizon for s in specs))


@dataclass
class Trajectory:
    start: Site
    steps: np.ndarray           # canonical direction indices, uint8
    horizon: int
    terminated_by: str          # 'hit' | 'exited' | 'budget'

    def __len__(self) -> int:
        return len(self.steps)

    def positions(self) -> np.ndarray:
        """(n+1, d) positions, including the start."""
        d = len(self.start)
        sv = step_vectors(d)
        out = np.empty((len(self.steps) + 1, d), dtype=np.int64)
        out[0] = self.start
        if len(self.steps):
            np.cumsum(sv[self.steps], axis=0, out=out[1:])
            out[1:] += np.asarray(self.start, dtype=np.int64)
        return out

    def final(self) -> Site:
        return tuple(int(c) for c in self.positions()[-1])

    def projections(self, ell) -> np.ndarray:
        return self.positions() @ np.asarray(ell, dtype=float)


def _sample_dir(pvec: np.ndarray, u: float) -> int:
    cum = np.cumsum(pvec)
    return min(int(np.searchsorted(cum, u, side="left")), len(pvec) - 1)


def run(env: Environment, start: Site, stop: StopSpec, walk_seed: int) -> Trajectory:
    """One quenched trajectory; deterministic in (env, walk_seed)."""
    d = env.dim
    key = rng.derive_key(walk_seed, "walk")
    sv = step_vectors(d)
    cache: dict[Site, np.ndarray] = {}
    pos = tuple(int(c) for c in start)
    steps = []
    term = "budget"
    hit0 = next((c for c in stop.conditions if c.triggered(pos)), None)
    if hit0 is not None and hit0.kind != "hit":
        # already outside the region: exit time 0
        return Trajectory(pos, np.empty(0, dtype=np.uint8), stop.horizon, "exited")
    if hit0 is not None:
        return Trajectory(pos, np.empty(0, dtype=np.uint8), stop.horizon, "hit")
    for t in range(stop.horizon):
        p = cache.get(pos)
        if p is None:
            p = env.transitions_at(pos)
            cache[pos] = p
        j = _sample_dir(p, rng.stream_uniform(key, t))
        steps.append(j)
        pos = tuple(int(pos[i] + sv[j, i]) for i in range(d))
        cond = next((c for c in stop.conditions if c.triggered(pos)), None)
        if cond is not None:
            term = "hit" if cond.kind == "hit" else "exited"
            break
    return Trajectory(tuple(int(c) for c in start),
                      np.asarray(steps, dtype=np.uint8), stop.horizon, term)


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
    half = 1.96 * float(np.sqrt(p * (1 - p) / n)) if n else float("nan")
    return HitBeforeReturnEstimate(p, p - half, p + half, n_hit, n_ret, n_cen)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Dump a trajectory as CSV with columns step,x_1,...,x_d."""
    pos = traj.positions()
    d = pos.shape[1]
    with open(path, "w", encoding="utf-8") as f:
        f.write("step," + ",".join(f"x_{i + 1}" for i in range(d)) + "\n")
        for t, row in enumerate(pos):
            f.write(str(t) + "," + ",".join(str(int(v)) for v in row) + "\n")

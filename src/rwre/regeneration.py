"""Regeneration structure of directionally transient walks.

A regeneration time is a step after which the walk never backtracks below
the level it has reached.  The extraction follows the ladder recursion:
starting from threshold M_0 + a, take the first passage S above the
threshold, test whether the walk ever drops strictly below its level
there; on failure raise the threshold to (running max at the drop) + a and
repeat, on success record the time and restart the recursion there.

Finite horizons cannot certify "never backtracks", so a record is
certified only when at least horizon // 4 steps remain after it and
none of them goes below its level; trailing records that backtrack in no
observed step but lack the margin are kept, flagged censored.

Level comparisons carry a small tolerance (LEVEL_TOL = 1e-9) because lattice
levels are float dot products; genuine level gaps of the laws studied here
are of order 1/sqrt(d), far above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import walk
from .errors import ParameterError

LEVEL_TOL = 1e-9


@dataclass(frozen=True)
class RegenParams:
    """Direction and ladder step a (default 3 sqrt(d)).

    a must lie in (2 sqrt(d), 10 sqrt(d)), the interval that keeps the
    regeneration covariance of the CLT non-degenerate.
    """

    ell: tuple[float, ...]
    a: float | None = None

    def resolved_a(self, d: int) -> float:
        a = self.a if self.a is not None else 3.0 * np.sqrt(d)
        lo, hi = 2.0 * np.sqrt(d), 10.0 * np.sqrt(d)
        if not (lo < a < hi):
            raise ParameterError(f"a={a} outside the mandated interval ({lo}, {hi})")
        return a


@dataclass
class RegenerationRecord:
    """Times, positions and censoring flags of one walk's regenerations."""

    times: np.ndarray           # (k,) int64, strictly increasing
    positions: np.ndarray       # (k, d) int64
    censored: np.ndarray        # (k,) bool; censored records are trailing

    @property
    def certified_times(self) -> np.ndarray:
        return self.times[~self.censored]

    @property
    def certified_positions(self) -> np.ndarray:
        return self.positions[~self.censored]

    @property
    def inter_times(self) -> np.ndarray:
        """Gaps between consecutive certified times (first block excluded)."""
        return np.diff(self.certified_times)

    @property
    def inter_displacements(self) -> np.ndarray:
        return np.diff(self.certified_positions, axis=0)

    def n_certified(self) -> int:
        return int((~self.censored).sum())


def _first_below(l: np.ndarray, start: int, cutoff: float) -> int:
    """Smallest index > start with l strictly below cutoff (must exist)."""
    n = len(l)
    i = start + 1
    block = 256
    while i < n:
        j = min(n, i + block)
        chunk = l[i:j] < cutoff
        if chunk.any():
            return i + int(np.argmax(chunk))
        i = j
        block = min(block * 4, 1 << 20)
    raise AssertionError("no element below cutoff; caller must guarantee one")


def extract_from_levels(l: np.ndarray, a: float,
                        margin: int) -> tuple[list[int], list[bool]]:
    """Ladder recursion on a level series l_0..l_n; returns times and flags."""
    l = np.asarray(l, dtype=float)
    n = len(l) - 1
    rm = np.maximum.accumulate(l)
    sm = np.minimum.accumulate(l[::-1])[::-1]
    times: list[int] = []
    flags: list[bool] = []
    # crossings must clear the threshold by LEVEL_TOL: levels that match it to
    # float precision (e.g. a diagonal ell with a a multiple of the level
    # spacing) would otherwise resolve by rounding noise
    thr = l[0] + a
    while True:
        S = int(np.searchsorted(rm, thr + LEVEL_TOL, side="right"))
        if S > n:
            break
        level = l[S]
        if sm[S] >= level - LEVEL_TOL:
            times.append(S)
            flags.append(not (n - S >= margin))
            thr = level + a
        else:
            R = _first_below(l, S, level - LEVEL_TOL)
            thr = rm[R] + a
    return times, flags


def extract_from_steps(steps: np.ndarray, start, params: RegenParams,
                       horizon: int) -> RegenerationRecord:
    """Extract the regeneration record of one recorded step-index row.

    An empty record is a valid outcome for short or backtracking walks.
    """
    positions = walk.positions(start, np.asarray(steps, dtype=np.uint8))
    d = positions.shape[1]
    a = params.resolved_a(d)
    l = positions @ np.asarray(params.ell, dtype=float)
    times, flags = extract_from_levels(l, a, horizon // 4)
    t = np.asarray(times, dtype=np.int64)
    return RegenerationRecord(t, positions[t], np.asarray(flags, dtype=bool))


def regeneration_radii(record: RegenerationRecord,
                       positions: np.ndarray) -> np.ndarray:
    """L1 radii max_{tau_{k-1} <= m <= tau_k} |X_m - X_{tau_{k-1}}|_1.

    The first radius uses tau_0 = 0.  Requires at least one certified time.
    """
    times = record.certified_times
    if len(times) == 0:
        raise ParameterError("need at least one certified regeneration")
    bounds = np.concatenate([[0], times])
    out = np.empty(len(times), dtype=np.int64)
    for k in range(len(times)):
        lo, hi = bounds[k], bounds[k + 1]
        seg = positions[lo:hi + 1] - positions[lo]
        out[k] = int(np.abs(seg).sum(axis=1).max())
    return out


@dataclass
class VelocityEstimate:
    ok: bool
    v: np.ndarray | None = None          # pooled-ratio velocity vector
    ci_low: np.ndarray | None = None     # per-component batch-means CI
    ci_high: np.ndarray | None = None
    n_blocks: int = 0
    reason: str = ""


_N_BATCHES = 32      # batch-means blocks of the renewal CI


def renewal_velocity(records) -> VelocityEstimate:
    """Pooled renewal estimate (sum of displacements) / (sum of times).

    Uses only inter-regeneration blocks between certified times, so each
    walk's first block is discarded.  The confidence interval comes from
    batch means of the ratio over 32 contiguous blocks.
    """
    disp = [r.inter_displacements for r in records if r.n_certified() >= 2]
    tims = [r.inter_times for r in records if r.n_certified() >= 2]
    if not disp:
        return VelocityEstimate(False, reason="no walk with >= 2 certified regenerations")
    D = np.concatenate(disp, axis=0).astype(float)
    T = np.concatenate(tims).astype(float)
    if len(T) < _N_BATCHES:
        return VelocityEstimate(False, reason=f"only {len(T)} blocks, "
                                              f"need >= {_N_BATCHES}")
    v = D.sum(axis=0) / T.sum()
    edges = np.linspace(0, len(T), _N_BATCHES + 1).astype(int)
    batch_v = np.array([D[a:b].sum(axis=0) / T[a:b].sum()
                        for a, b in zip(edges[:-1], edges[1:])])
    se = batch_v.std(axis=0, ddof=1) / np.sqrt(_N_BATCHES)
    half = 2.04 * se  # t quantile, 31 dof, 95%
    return VelocityEstimate(True, v, v - half, v + half, _N_BATCHES)


def direct_velocity(finals: np.ndarray, nsteps: int) -> VelocityEstimate:
    """Mean of X_n / n over walks, with a normal CI per component."""
    V = np.asarray(finals, dtype=float) / float(nsteps)
    v = V.mean(axis=0)
    se = V.std(axis=0, ddof=1) / np.sqrt(V.shape[0])
    return VelocityEstimate(True, v, v - 1.96 * se, v + 1.96 * se, V.shape[0])


def run_regenerations(env, keys, nsteps: int, params: RegenParams):
    """One recorded walk of ``nsteps`` from the origin per key: the
    regeneration records, and the renewal and direct velocity estimates
    (the direct one is None when the renewal one is not ok, as for no
    walks or no steps).  ``a`` is checked before the first step."""
    d = env.dim
    params.resolved_a(d)
    res = walk.run_fixed_batch(env, np.zeros(d, dtype=np.int64), nsteps, keys,
                               record_steps=True)
    records = [extract_from_steps(row, (0,) * d, params, nsteps)
               for row in res.steps]
    ren = renewal_velocity(records)
    return records, ren, direct_velocity(res.final, nsteps) if ren.ok else None


def records_to_csv(records, path) -> None:
    """One row per regeneration: walk id, k, tau_k, position, censored."""
    with open(path, "w", encoding="utf-8") as f:
        for wid, rec in enumerate(records):
            if wid == 0:    # an empty record's positions still have d columns
                cols = "".join(f"x_{i + 1}," for i in range(rec.positions.shape[1]))
                f.write(f"walk,k,tau,{cols}censored\n")
            for k in range(len(rec.times)):
                coords = ",".join(str(int(c)) for c in rec.positions[k])
                f.write(f"{wid},{k + 1},{int(rec.times[k])},{coords},"
                        f"{int(rec.censored[k])}\n")

"""Exact quenched analysis of unit hypercubes as absorbing chains.

A unit hypercube in Z^d has 2^d corners; from each corner, d neighbors lie
inside the cube and d outside, and every exterior neighbor is adjacent to
exactly one corner.  The interior transition matrix P is therefore a
2^d x 2^d substochastic matrix, and everything of interest is a small
dense linear solve:

* fundamental matrix N = (I - P)^{-1} of expected visit counts,
* mean exit times and integer exit-time moments,
* Q (largest one-step exit probability per corner, the path-product
  building block),
* Qtilde[x, y] (escape from corner y's exterior neighborhood before
  returning to x) via the chain with x turned absorbing,
* hitting probabilities P_{x0}[T_x < T_exit] from an independent solve,
  used to cross-check the visit identity N[x0, x] * Qtilde_row[x] =
  P_{x0}[T_x < T_exit].

All solvers are batched over environment replicates.  The Monte Carlo
checks (:func:`visit_law_check`, non-integer :func:`fractional_moment`)
walk on the keyed field with :func:`~rwre.walk.run_until_batch`, with
``UnitHypercube.contains_batch`` as the region.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import rng, stats
from .environment import Environment, transitions_for_seeds
from .lattice import UnitHypercube
from .walk import run_until_batch, walk_keys

IDENTITY_TOL = 1e-10


class DegenerateEnvironmentError(ValueError):
    """Raised when (I - P) is singular: some corner set has no exit mass."""


@dataclass
class QuenchedHypercube:
    """One quenched cube: per-corner transitions and the interior chain."""

    cube: UnitHypercube
    transitions: np.ndarray      # (m, 2d) canonical-order vectors per corner

    @property
    def d(self) -> int:
        return self.cube.d

    @property
    def m(self) -> int:
        return 1 << self.d

    def interior_matrix(self) -> np.ndarray:
        return _interior_matrix(self.d, self.transitions[None])[0]


def quenched(env: Environment, cube: UnitHypercube) -> QuenchedHypercube:
    corners = np.asarray(cube.corners, dtype=np.int64)
    return QuenchedHypercube(cube, env.transitions_batch(corners))


def quenched_batch(law, seeds, cube: UnitHypercube) -> np.ndarray:
    """(R, m, 2d) transition tensor: one cube per replicate master seed."""
    return transitions_for_seeds(law, seeds, np.asarray(cube.corners, dtype=np.int64))


def _interior_matrix(d: int, trans: np.ndarray) -> np.ndarray:
    """(R, m, m) substochastic interior matrices from (R, m, 2d) tensors."""
    m = 1 << d
    R = trans.shape[0]
    P = np.zeros((R, m, m))
    for j in range(m):
        for axis in range(d):
            bit = (j >> axis) & 1
            dir_idx = d + axis if bit else axis   # inward move flips the bit
            P[:, j, j ^ (1 << axis)] = trans[:, j, dir_idx]
    return P


def _exit_probs(d: int, trans: np.ndarray) -> np.ndarray:
    """(R, m, d) probabilities of the d outward directions per corner."""
    m = 1 << d
    out = np.empty((trans.shape[0], m, d))
    for j in range(m):
        for axis in range(d):
            bit = (j >> axis) & 1
            dir_idx = axis if bit else d + axis
            out[:, j, axis] = trans[:, j, dir_idx]
    return out


def _check_absorbing(P: np.ndarray, exit_mass: np.ndarray) -> None:
    """Every corner must reach positive exit mass; otherwise I - P is
    singular (a closed corner set traps the chain forever)."""
    m = P.shape[1]
    reach = exit_mass > 0.0
    adj = (P > 0.0).astype(np.float32)
    for _ in range(m):
        new = reach | (np.einsum("rxy,ry->rx", adj,
                                 reach.astype(np.float32)) > 0.0)
        if np.array_equal(new, reach):
            break
        reach = new
    if not reach.all():
        raise DegenerateEnvironmentError(
            "corner with no escape route: zero exit mass reachable")


@dataclass
class ExitAnalysis:
    """Exact solve products for a batch of quenched cubes (axis 0)."""

    d: int
    Q: np.ndarray                # (R, m) max one-step exit prob per corner
    Qtilde: np.ndarray           # (R, m, m)
    Qtilde_row: np.ndarray       # (R, m)
    mean_exit: np.ndarray        # (R, m)
    fundamental: np.ndarray      # (R, m, m) expected visits E_{x0}[N(x)]
    hit_before_exit: np.ndarray  # (R, m, m) P_{x0}[T_x < T_exit]
    moments: np.ndarray          # (R, order+1, m); row k is E_x[T^k]
    exit_mass: np.ndarray        # (R, m)

    def check_identities(self, tol: float = IDENTITY_TOL) -> dict[str, float]:
        """Max violations of the exact identities; all should be <= tol.

        visit:      N[x0, x] * Qtilde_row[x] = hit_before_exit[x0, x]
        total_time: mean_exit[x0] = sum_x N[x0, x]
        sandwich:   1/Qtilde_row[x0] <= mean_exit[x0] <= sum_y 1/Qtilde_row[y]
        row_bound:  Qtilde[x, y] <= Qtilde_row[x] <= 2^d max_y Qtilde[x, y]
        """
        visit = np.abs(self.fundamental * self.Qtilde_row[:, None, :]
                       - self.hit_before_exit).max()
        total = np.abs(self.mean_exit - self.fundamental.sum(axis=2)).max()
        lo = (1.0 / self.Qtilde_row - self.mean_exit).max()
        hi = (self.mean_exit - (1.0 / self.Qtilde_row).sum(axis=1, keepdims=True)).max()
        row_lo = (self.Qtilde - self.Qtilde_row[:, :, None]).max()
        row_hi = (self.Qtilde_row - (1 << self.d) * self.Qtilde.max(axis=2)).max()
        return {"visit": float(visit), "total_time": float(total),
                "sandwich_low": float(lo), "sandwich_high": float(hi),
                "row_lower": float(row_lo), "row_upper": float(row_hi)}


def analyze_transitions(d: int, trans: np.ndarray, moment_order: int = 2) -> ExitAnalysis:
    """Full exact analysis of an (R, m, 2d) batch of quenched cubes."""
    if moment_order < 1:
        raise ValueError("moment_order must be >= 1")
    m = 1 << d
    R = trans.shape[0]
    P = _interior_matrix(d, trans)
    exit_probs = _exit_probs(d, trans)
    q = exit_probs.sum(axis=2)
    _check_absorbing(P, q)
    A = np.broadcast_to(np.eye(m), (R, m, m)) - P
    eye = np.broadcast_to(np.eye(m), (R, m, m))
    try:
        fundamental = np.linalg.solve(A, eye)
    except np.linalg.LinAlgError as exc:
        raise DegenerateEnvironmentError(
            "singular interior chain: a corner set has no exit mass") from exc
    mean_exit = fundamental.sum(axis=2)

    # integer moments: (I - P) m_k = q + sum_{j<k} C(k, j) P m_j, m_0 = 1
    moments = np.empty((R, moment_order + 1, m))
    moments[:, 0] = 1.0
    Pm = [np.einsum("rxy,ry->rx", P, moments[:, 0])]
    for k in range(1, moment_order + 1):
        rhs = q + sum(comb(k, j) * Pm[j] for j in range(k))
        moments[:, k] = np.linalg.solve(A, rhs[..., None])[..., 0]
        if k < moment_order:
            Pm.append(np.einsum("rxy,ry->rx", P, moments[:, k]))

    Q = exit_probs.max(axis=2)
    Qtilde = np.zeros((R, m, m))
    hit = np.zeros((R, m, m))
    idx_all = np.arange(m)
    for x in range(m):
        idx = idx_all[idx_all != x]
        Ax = A[:, idx][:, :, idx]
        try:
            G = np.linalg.solve(Ax, np.broadcast_to(np.eye(m - 1), (R, m - 1, m - 1)))
        except np.linalg.LinAlgError as exc:
            raise DegenerateEnvironmentError(
                "singular reduced chain while computing escape probabilities") from exc
        first = P[:, x, idx]                       # one-step into the reduced chain
        visits = np.einsum("rz,rzy->ry", first, G)  # E[visits to y before x/exit]
        Qtilde[:, x, idx] = visits * q[:, idx]
        Qtilde[:, x, x] = q[:, x]
        # hitting x before exit: absorb at x, rhs = one-step probability into x
        hx = np.linalg.solve(Ax, P[:, idx, x][..., None])[..., 0]
        hit[:, idx, x] = hx
        hit[:, x, x] = 1.0
    Qtilde_row = Qtilde.sum(axis=2)
    return ExitAnalysis(d, Q, Qtilde, Qtilde_row, mean_exit, fundamental,
                        hit, moments, q)


def analyze(env: Environment, cube: UnitHypercube,
            moment_order: int = 2) -> ExitAnalysis:
    """Exact analysis of one quenched cube (batch of size 1)."""
    qh = quenched(env, cube)
    return analyze_transitions(qh.d, qh.transitions[None], moment_order)


def analyze_batch(law, seeds, cube: UnitHypercube,
                  moment_order: int = 2) -> ExitAnalysis:
    return analyze_transitions(cube.d, quenched_batch(law, seeds, cube),
                               moment_order)


def escape_site_probs(qh: QuenchedHypercube, from_corner: int = 0) -> np.ndarray:
    """(m, d) matrix rho[w, a]: probability, from ``from_corner``, of leaving
    the cube from corner w along its a-th outward axis before returning to
    the start corner.  Row sums over a equal Qtilde[from_corner, w]."""
    d, m = qh.d, qh.m
    P = qh.interior_matrix()
    exit_probs = _exit_probs(d, qh.transitions[None])[0]
    rho = np.zeros((m, d))
    rho[from_corner] = exit_probs[from_corner]
    idx = np.arange(m)[np.arange(m) != from_corner]
    Ax = np.eye(m - 1) - P[idx][:, idx]
    G = np.linalg.solve(Ax, np.eye(m - 1))
    visits = P[from_corner, idx] @ G            # E[# visits to each y != start]
    rho[idx] = visits[:, None] * exit_probs[idx]
    return rho


@dataclass
class FractionalMomentReport:
    alpha: float
    samples: np.ndarray          # per-environment quenched moment values
    hill: stats.TailIndexEstimate | None
    verdict: str                 # moment-appears-finite / -infinite / inconclusive
    censored_runs: int = 0

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "n": len(self.samples),
                "verdict": self.verdict,
                "hill": None if self.hill is None else self.hill.to_dict(),
                "censored_runs": self.censored_runs}


def fractional_moment(law, alpha: float, replicates: int, master_seed: int,
                      hill_k: int | None = None) -> FractionalMomentReport:
    """Tail verdict for the annealed moment of the cube exit time.

    Per environment, the quenched max_x E_x[(T_exit)^alpha] over the
    corners of the unit cube at the origin is computed exactly when alpha
    is a positive integer and otherwise by Monte Carlo (200 walks per
    corner, censored at 10^4 steps);
    the across-environment tail index of those quenched values decides the
    verdict at the package-wide thresholds.  ``hill_k`` overrides the Hill
    order-statistic count; rare trap configurations can confine the
    asymptotic tail to the top few dozen order statistics, where the
    default sqrt(n) would blend in the bulk.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    cube = UnitHypercube((0,) * law.dim)
    seeds = rng.derive_keys(master_seed, "fractional_moment", n=replicates)
    censored = 0
    if float(alpha).is_integer():
        order = int(alpha)
        ana = analyze_batch(law, seeds, cube, moment_order=max(order, 1))
        samples = ana.moments[:, order].max(axis=1)
    else:
        vals = np.empty(replicates)
        for r, seed in enumerate(seeds.tolist()):
            env = Environment(law, seed)
            best = 0.0
            for j, corner in enumerate(cube.corners):
                keys = walk_keys(seed, 200, salt=f"fracmom:{j}")
                res = run_until_batch(env, np.asarray(corner), keys,
                                      10_000, inside=cube.contains_batch)
                censored += res.censored()
                best = max(best, float(np.mean(res.steps_taken.astype(float) ** alpha)))
            vals[r] = best
        samples = vals
    verdict, hill = stats.moment_verdict(samples, alpha, k=hill_k)
    return FractionalMomentReport(alpha, samples, hill, verdict, censored)


@dataclass
class VisitLawReport:
    qtilde: float
    n: int
    chi2: float
    dof: int
    p_value: float
    mean_visits: float
    expected_mean: float
    censored: int


def visit_law_check(env: Environment, cube: UnitHypercube, corner: int,
                    runs: int, master_seed: int) -> VisitLawReport:
    """Chi-square test of N(corner) against Geometric(Qtilde_row[corner]).

    The walks start at the tested corner and run on
    :func:`~rwre.walk.run_until_batch` with the cube as the region, so the
    count of visits to the start before exit is geometric with the exact
    escape-before-return probability.  Walks still inside after 200 000
    steps are censored; their visits so far enter the test.
    """
    if runs < 10_000:
        raise ValueError("runs must be >= 10^4 for a stable test")
    qt = float(analyze(env, cube, 1).Qtilde_row[0, corner])
    site = cube.corners[corner]
    res = run_until_batch(env, site, walk_keys(master_seed, runs, salt="cube_walk"),
                          200_000, inside=cube.contains_batch,
                          count_visits_to=site)
    chi2, dof, p = stats.chi_square_geometric(res.visits, qt)
    return VisitLawReport(qt, runs, chi2, dof, p,
                          float(res.visits.mean()), 1.0 / qt, res.censored())

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

Which direction leaves corner j along axis i is read from one table,
``lattice._outward``, built once per dimension; P and the exit
probabilities are gathers on it whose index arrays are built once per
dimension too.  All solvers are batched over environment replicates.
One private builder reads d off an (R, 2^d, 2d) corner tensor, rejects
any other shape, gathers P, the exit probabilities and the exit mass and
rejects a closed corner set; an :class:`ExitAnalysis`, constructed by
:func:`analyze_transitions`, and :func:`escape_site_probs` are built on
it.  An analysis waits with each solve for the first read of a field
that needs it, so a caller pays only for what it reads: N and the mean
exit times cost one batched solve, the moments one per order, and Qtilde
and the hitting probabilities one per corner each.  One private
reduced-chain solve serves ``Qtilde``, once per corner, and
:func:`escape_site_probs`, which solves the start corner's chain alone
for the path bundles and :func:`visit_law_check`.  The Monte Carlo
checks (:func:`visit_law_check`, non-integer
:func:`fractional_moment`) walk on the keyed field with
:func:`~rwre.walk.run_until_batch`, with ``UnitHypercube.region`` as the
region.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache, cached_property
from math import comb

import numpy as np

from . import rng, stats
from .environment import Environment, transitions_for_seeds
from .errors import ParameterError
from .lattice import UnitHypercube, _frozen, _outward
from .walk import run_until_batch, walk_keys

IDENTITY_TOL = 1e-10


class DegenerateEnvironmentError(ValueError):
    """Raised when (I - P) is singular: some corner set has no exit mass."""


@cache
def _interior_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner column j, its neighbors j ^ (1 << i) and the inward
    directions toward them: the gather of the interior matrix, built once
    per dimension."""
    j = np.arange(1 << d)[:, None]
    return (_frozen(j), _frozen(j ^ (1 << np.arange(d))),
            _frozen((_outward(d) + d) % (2 * d)))


def _interior_matrix(trans: np.ndarray) -> np.ndarray:
    """(R, m, m) substochastic interior matrices from (R, m, 2d) tensors."""
    R, m, two_d = trans.shape
    j, nbr, inward = _interior_index(two_d // 2)
    P = np.zeros((R, m, m))
    P[:, j, nbr] = trans[:, j, inward]
    return P


def _exit_probs(trans: np.ndarray) -> np.ndarray:
    """(R, m, d) probabilities of the d outward directions per corner."""
    d = trans.shape[2] // 2
    return trans[:, _interior_index(d)[0], _outward(d)]


def _check_absorbing(P: np.ndarray, exit_mass: np.ndarray) -> None:
    """Every corner must reach positive exit mass; otherwise I - P is
    singular (a closed corner set traps the chain forever).  The reach
    iteration runs only when some corner has no exit mass of its own."""
    reach = exit_mass > 0.0
    if reach.all():
        return
    m = P.shape[1]
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


def _chain(trans: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """d >= 1, P, the exit probabilities and the exit mass of the absorbing
    chains of an (R, 2^d, 2d) corner tensor; any other shape is refused."""
    d = trans.shape[-1] // 2 if trans.ndim == 3 else 0
    if d < 1 or trans.shape[1:] != (1 << d, 2 * d):
        raise ParameterError(f"corner tensor of shape {trans.shape}, not (R, 2^d, 2d)")
    P = _interior_matrix(trans)
    exit_probs = _exit_probs(trans)
    exit_mass = exit_probs.sum(axis=2)
    _check_absorbing(P, exit_mass)
    return d, P, exit_probs, exit_mass


class ExitAnalysis:
    """Exact solve products for a batch of quenched cubes (axis 0).

    The constructor builds and checks the chain of the (R, m, 2d) corner
    transitions and solves nothing: ``d``, ``exit_probs`` (R, m, d) and
    their max ``Q`` and sum ``exit_mass`` (R, m) over the outward axes are
    set there.  Every other field is solved on its first read and kept;
    m = 2^d, and each batched solve is over all R cubes:

    * ``fundamental`` (R, m, m), expected visits E_{x0}[N(x)], and
      ``mean_exit`` (R, m), its row sums: one solve;
    * ``moments`` (R, order+1, m), row k is E_x[T^k]: ``order`` solves;
    * ``Qtilde`` (R, m, m) and ``Qtilde_row`` (R, m), its row sums: m
      solves, one reduced chain per corner;
    * ``hit_before_exit`` (R, m, m), P_{x0}[T_x < T_exit]: m solves.

    A closed corner set raises :class:`DegenerateEnvironmentError` at
    construction, and a singular solve on the first read of its field.
    """

    def __init__(self, trans: np.ndarray, moment_order: int):
        self.d, self._P, self.exit_probs, self.exit_mass = _chain(trans)
        self.Q = self.exit_probs.max(axis=2)
        self._eye = np.broadcast_to(np.eye(1 << self.d), self._P.shape)
        self._A = self._eye - self._P
        self._order = moment_order

    @cached_property
    def fundamental(self) -> np.ndarray:
        return _solve(self._A, self._eye)

    @cached_property
    def mean_exit(self) -> np.ndarray:
        return self.fundamental.sum(axis=2)

    @cached_property
    def moments(self) -> np.ndarray:
        # (I - P) m_k = q + sum_{j<k} C(k, j) P m_j, m_0 = 1
        P, q, A = self._P, self.exit_mass, self._A
        R, m = q.shape
        moments = np.empty((R, self._order + 1, m))
        moments[:, 0] = 1.0
        Pm = [np.einsum("rxy,ry->rx", P, moments[:, 0])]
        for k in range(1, self._order + 1):
            rhs = q + sum(comb(k, j) * Pm[j] for j in range(k))
            moments[:, k] = _solve(A, rhs[..., None])[..., 0]
            if k < self._order:
                Pm.append(np.einsum("rxy,ry->rx", P, moments[:, k]))
        return moments

    @cached_property
    def Qtilde(self) -> np.ndarray:
        R, m = self.exit_mass.shape
        Qtilde = np.empty((R, m, m))
        for x in range(m):
            Qtilde[:, x] = _escape_row(self._A, self._P, self.exit_mass, x)[2]
        return Qtilde

    @cached_property
    def Qtilde_row(self) -> np.ndarray:
        return self.Qtilde.sum(axis=2)

    @cached_property
    def hit_before_exit(self) -> np.ndarray:
        # absorb at x, rhs = one-step probability into x
        P = self._P
        R, m = self.exit_mass.shape
        hit = np.zeros((R, m, m))
        for x in range(m):
            idx, Ax = _reduced(self._A, x)
            hit[:, idx, x] = _solve(Ax, P[:, idx, x][..., None])[..., 0]
            hit[:, x, x] = 1.0
        return hit

    def check_identities(self, tol: float = IDENTITY_TOL) -> dict[str, float]:
        """Max violations of the exact identities.

        ``tol`` is unused: the caller compares the violations with its own
        tolerance, as the acceptance check does with ``IDENTITY_TOL``.

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


def analyze_transitions(trans: np.ndarray, moment_order: int = 2) -> ExitAnalysis:
    """Exact analysis of an (R, 2^d, 2d) batch of quenched cubes."""
    if moment_order < 1:
        raise ParameterError("moment_order must be >= 1")
    return ExitAnalysis(trans, moment_order)


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve``, with a singular matrix raised as degenerate."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateEnvironmentError(
            "singular chain: a corner set has no exit mass") from exc


@cache
def _others(m: int, x: int) -> np.ndarray:
    """The corners other than x of a cube of m corners (read-only)."""
    return _frozen(np.delete(np.arange(m), x))


def _reduced(A: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The corners other than x, and I - P restricted to them."""
    idx = _others(A.shape[1], x)
    return idx, A[:, idx][:, :, idx]


def _escape_row(A: np.ndarray, P: np.ndarray, q: np.ndarray, x: int):
    """The chain with corner x turned absorbing, for an (R, m, m) batch.

    Returns the other corners ``idx``, the inverse ``G`` of the reduced
    I - P (expected visits before x or exit) and the (R, m) row x of
    Qtilde.
    """
    R, m = q.shape
    idx, Ax = _reduced(A, x)
    G = _solve(Ax, np.eye(m - 1))        # one identity, broadcast over the batch
    row = np.empty((R, m))
    row[:, idx] = np.einsum("rz,rzy->ry", P[:, x, idx], G) * q[:, idx]
    row[:, x] = q[:, x]
    return idx, G, row


def analyze(env: Environment, cube: UnitHypercube,
            moment_order: int = 2) -> ExitAnalysis:
    """Exact analysis of one quenched cube (batch of size 1)."""
    trans = env.transitions_batch(np.asarray(cube.corners, dtype=np.int64))
    return analyze_transitions(trans[None], moment_order)


def analyze_batch(law, seeds, cube: UnitHypercube,
                  moment_order: int = 2) -> ExitAnalysis:
    """Exact analysis of one cube per replicate master seed."""
    trans = transitions_for_seeds(law, seeds, np.asarray(cube.corners, dtype=np.int64))
    return analyze_transitions(trans, moment_order)


def escape_site_probs(trans: np.ndarray,
                      from_corner: int) -> tuple[np.ndarray, np.ndarray]:
    """Escape before return to ``from_corner`` in one quenched cube.

    ``trans`` is the (m, 2d) table of corner transitions.  Returns the
    (m, d) matrix rho[w, a], the probability of leaving the cube from
    corner w along its a-th outward axis before returning to the start
    corner, and the (m,) row Qtilde[from_corner]; row sums of rho over a
    equal that row up to rounding.  Only the start corner's reduced chain
    is solved, on the chain that :class:`ExitAnalysis` builds and with its
    solve, so the Qtilde row equals that class's bit for bit.
    """
    d, P, exit_probs, exit_mass = _chain(trans[None])
    idx, G, qtilde_row = _escape_row(np.eye(1 << d) - P, P, exit_mass, from_corner)
    rho = np.zeros((1 << d, d))
    rho[from_corner] = exit_probs[0, from_corner]
    # rho keeps the 1-D product and the Qtilde row the batched einsum: from one
    # G the two differ in the last bit, and each output must keep its bytes
    visits = P[0, from_corner, idx] @ G[0]      # E[# visits to each y != start]
    rho[idx] = visits[:, None] * exit_probs[0, idx]
    return rho, qtilde_row[0]


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
                "hill": None if self.hill is None else asdict(self.hill),
                "censored_runs": self.censored_runs}


def fractional_moment(law, alpha: float, replicates: int,
                      master_seed: int) -> FractionalMomentReport:
    """Tail verdict for the annealed moment of the cube exit time.

    Per environment, the quenched max_x E_x[(T_exit)^alpha] over the
    corners of the unit cube at the origin is computed exactly when alpha
    is a positive integer and otherwise by Monte Carlo (200 walks per
    corner, censored at 10^4 steps);
    the across-environment tail index of those quenched values decides the
    verdict at the package-wide thresholds.
    """
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if replicates < 1:
        raise ParameterError("replicates must be >= 1")
    cube = UnitHypercube((0,) * law.dim)
    seeds = rng.derive_keys(master_seed, "fractional_moment", n=replicates)
    censored = 0
    if float(alpha).is_integer():
        order = int(alpha)
        ana = analyze_batch(law, seeds, cube, moment_order=order)
        samples = ana.moments[:, order].max(axis=1)
    else:
        vals = np.empty(replicates)
        for r, seed in enumerate(seeds.tolist()):
            env = Environment(law, seed)
            best = 0.0
            for j, corner in enumerate(cube.corners):
                keys = walk_keys(seed, 200, salt=f"fracmom:{j}")
                res = run_until_batch(env, np.asarray(corner), keys,
                                      10_000, inside=cube.region)
                censored += res.censored()
                best = max(best, float(np.mean(res.steps_taken.astype(float) ** alpha)))
            vals[r] = best
        samples = vals
    verdict, hill = stats.moment_verdict(samples, alpha)
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
        raise ParameterError("runs must be >= 10^4 for a stable test")
    trans = env.transitions_batch(np.asarray(cube.corners, dtype=np.int64))
    qt = float(escape_site_probs(trans, corner)[1].sum())   # one chain, one solve
    site = cube.corners[corner]
    res = run_until_batch(env, site, walk_keys(master_seed, runs, salt="cube_walk"),
                          200_000, inside=cube.region,
                          count_visits_to=site)
    chi2, dof, p = stats.chi_square_geometric(res.visits, qt)
    return VisitLawReport(qt, runs, chi2, dof, p,
                          float(res.visits.mean()), 1.0 / qt, res.censored())

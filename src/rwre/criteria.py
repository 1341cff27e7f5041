"""Checkable ballisticity and ellipticity criteria.

The centerpiece is the marked Markovian hypercube: a unit hypercube
containing the origin discovered site by site, where every choice may use
only transition probabilities already revealed.  Discovery goes through a
recording view of the environment that raises on any out-of-prefix read,
and the full log is kept so measurability can be audited after the fact.

On top of it sit the criterion estimators: the moment checks of the
ellipticity conditions (E)_0, (E')_1 and the inverse-Q condition, which
share one capped-column probe and one verdict mapping; the mark sum of the
marked-hypercube criterion (its corner Q moments and Qtilde are reached
through the inverse-Q check and the path bundles, not one composite
check); escape path bundles with their quenched probabilities, which read
the field in windows, one read for all 2^d paths and several steps; box/slab
exit estimators (including a level-splitting rare-event estimator, since
backtracking probabilities decay exponentially and are invisible to direct
Monte Carlo); and the tilted-box front-exit probe.  The box, direct slab
and tilted-box estimators count their exits through one reader; the
splitting levels read their own, since they resample the hit walks.

Every verdict is Monte Carlo evidence with a confidence interval; nothing
here "proves" an almost-sure or asymptotic statement.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import product
from math import comb

import numpy as np

from . import rng, stats
from .environment import Environment, _require_one_field, transitions_for_seeds
from .errors import ParameterError
from .hypercube import _exit_probs, escape_site_probs
from .lattice import (Bounds, Site, TiltedBox, UnitHypercube, _check_unit, _dot,
                      _frozen, _outward, rotation_onto_e1, step_vectors)
from .walk import STATUS_EXITED, _count, _sites, run_until_batch, walk_keys


class MeasurabilityViolation(RuntimeError):
    """A discovery policy read a site outside its revealed prefix."""


class RecordingView:
    """Environment view that records reads and enforces an allowed set."""

    def __init__(self, env: Environment):
        self.env = env
        self._allowed: set[Site] | None = None
        self._reads: list[Site] = []
        self._cache: dict[Site, np.ndarray] = {}

    def begin(self, allowed) -> None:
        self._allowed = set(allowed)
        self._reads = []

    def reads(self) -> tuple[Site, ...]:
        return tuple(self._reads)

    def transitions(self, site) -> np.ndarray:
        site = tuple(int(c) for c in site)
        if self._allowed is not None and site not in self._allowed:
            raise MeasurabilityViolation(
                f"policy read {site} outside the revealed prefix")
        self._reads.append(site)
        p = self._cache.get(site)
        if p is None:
            p = self.env.transitions_at(site)
            self._cache[site] = p
        return p


@dataclass
class MarkedMarkovianHypercube:
    """A discovered hypercube with marks and its full discovery log."""

    cube: UnitHypercube
    x0: Site
    marks: np.ndarray                    # (2^d,) by corner offset bits
    discovery_log: list[tuple[Site, tuple[Site, ...]]]
    mark_reads: tuple[Site, ...]
    meta: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.cube.d

    def origin_corner(self) -> int:
        return self.cube.corner_index((0,) * self.d)


def audit_measurability(mmh: MarkedMarkovianHypercube) -> bool:
    """Verify the four discovery rules and the read-set containment.

    Raises MeasurabilityViolation with the offending step on failure.
    """
    d = mmh.d
    origin = (0,) * d
    log = mmh.discovery_log
    if len(log) != (1 << d):
        raise MeasurabilityViolation("discovery log does not cover 2^d sites")
    if log[0][0] != origin:
        raise MeasurabilityViolation("discovery must start at the origin")
    prefix: list[Site] = []
    seen: set[Site] = set()
    lo = hi = origin                     # per-coordinate range of the prefix
    for i, (site, reads) in enumerate(log):
        if i > 0:
            if site in seen:
                raise MeasurabilityViolation(f"site {site} discovered twice")
            adjacent = any(sum(abs(a - b) for a, b in zip(site, p)) == 1
                           for p in prefix)
            if not adjacent:
                raise MeasurabilityViolation(f"{site} is not adjacent to the prefix")
            if not set(reads) <= seen:
                raise MeasurabilityViolation(
                    f"choice of {site} used reads outside the prefix")
        prefix.append(site)
        seen.add(site)
        lo, hi = tuple(map(min, lo, site)), tuple(map(max, hi, site))
        if any(h - l > 1 for l, h in zip(lo, hi)):
            raise MeasurabilityViolation(
                "prefix no longer fits inside a unit hypercube")
    cube_sites = set(mmh.cube.corners)
    # the log starts at the origin and its sites are the cube's corners, so
    # the cube contains the origin: no check of its own
    if seen != cube_sites:
        raise MeasurabilityViolation("discovered set is not the stated hypercube")
    if tuple(mmh.x0) != mmh.cube.anchor:
        raise MeasurabilityViolation("anchor x0 does not match the cube")
    if not set(mmh.mark_reads) <= cube_sites:
        raise MeasurabilityViolation("marks used reads outside the hypercube")
    if np.any(mmh.marks < 0):
        raise MeasurabilityViolation("marks must be nonnegative")
    return True


@cache
def _fill_order(d: int, start_bits: int) -> tuple[int, ...]:
    """Corner visit order by Hamming distance from the start corner."""
    return tuple(sorted(range(1 << d),
                        key=lambda j: (bin(j ^ start_bits).count("1"), j)))


def gamma_exponents(phi: np.ndarray, d: int) -> np.ndarray:
    """gamma_x = sum of phi over the directions leaving the cube at x."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (2 * d,) or np.any(phi <= 0):
        raise ParameterError("phi must be a positive vector over the 2d directions")
    return phi[_outward(d)].sum(axis=1)


class EprimePolicy:
    """Discovery policy of the exponential-moment construction.

    Reads only the origin's transition vector, selects the first direction
    k (canonical order) with p(0, e_k) >= delta, takes the hypercube at the
    origin when k points positively and at (-1, ..., -1) otherwise, and
    assigns marks along the escape routes through the edge {0, e_k}: the
    two endpoints get their full gamma exponents, the other neighbors of
    the endpoints get the phi value of the crossing direction, everything
    else gets zero.
    """

    def __init__(self, delta: float | None = None, phi=None):
        self.delta = delta
        self.phi = None if phi is None else np.asarray(phi, dtype=float)
        self._event = (None, None, None)     # (origin row, delta, its event)

    def _event_cube(self, view: RecordingView, d: int) -> tuple[int, UnitHypercube]:
        """The event index and the cube of the discovery that ``view``
        serves.  Each call reads the origin through the view, so the read
        is logged; they are computed once per origin row read."""
        delta = self.delta if self.delta is not None else 1.0 / (4 * d)
        p0 = view.transitions((0,) * d)
        seen, seen_delta, event = self._event
        if p0 is seen and delta == seen_delta:
            return event
        above = np.nonzero(p0 >= delta)[0]
        if len(above) == 0:
            # some direction always carries >= 1/(2d) >= delta by default;
            # a custom delta above that can fail to fire
            raise ParameterError(f"no direction with p(0, e) >= delta={delta}")
        k0 = int(above[0])         # 0-based canonical direction
        event = k0, UnitHypercube((0,) * d if k0 < d else (-1,) * d)
        self._event = (p0, delta, event)
        return event

    def choose_next(self, view: RecordingView, prefix) -> Site:
        d = view.env.dim
        cube = self._event_cube(view, d)[1]
        order = _fill_order(d, cube.corner_index((0,) * d))
        return cube.corners[order[len(prefix)]]

    def marks(self, view: RecordingView, cube: UnitHypercube) -> np.ndarray:
        d = cube.d
        if self.phi is None:
            return np.zeros(1 << d)
        k0 = self._event_cube(view, d)[0]
        gam = gamma_exponents(self.phi, d)
        axis, positive = k0 % d, k0 < d
        sv = step_vectors(d)
        origin = np.zeros(d, dtype=np.int64)
        vd = sv[k0]                                 # v_d = e_k
        marks = np.zeros(1 << d)
        # v_0 = 0 and v_d = e_k carry their full gamma exponents
        for v in (origin, vd):
            c = cube.corner_index(v)
            marks[c] = gam[c]
        for j in range(d):
            if j == axis:
                continue
            step_idx = j if positive else d + j     # direction of v_i - v_0
            vi = sv[step_idx]
            ui = vd + sv[step_idx]                  # u_i = v_d + (v_i - v_0)
            marks[cube.corner_index(vi)] = self.phi[step_idx]
            marks[cube.corner_index(ui)] = self.phi[step_idx]
        return marks

    def stash_meta(self, view: RecordingView, meta: dict) -> None:
        meta["event_index"] = self._event_cube(view, view.env.dim)[0] + 1  # 1-based


def discover(env: Environment, policy) -> MarkedMarkovianHypercube:
    """Drive a policy through the four discovery rules, recording reads."""
    _require_one_field(env, "discover")
    d = env.dim
    origin = (0,) * d
    view = RecordingView(env)
    prefix: list[Site] = [origin]
    log: list[tuple[Site, tuple[Site, ...]]] = [(origin, ())]
    for _ in range((1 << d) - 1):
        view.begin(prefix)
        nxt = tuple(int(c) for c in policy.choose_next(view, tuple(prefix)))
        log.append((nxt, view.reads()))
        prefix.append(nxt)
    anchor = tuple(map(min, *prefix))
    cube = UnitHypercube(anchor)
    view.begin(cube.corners)
    marks = np.asarray(policy.marks(view, cube), dtype=float)
    meta: dict = {}
    if hasattr(policy, "stash_meta"):
        policy.stash_meta(view, meta)
    mmh = MarkedMarkovianHypercube(cube, anchor, marks, log, view.reads(), meta)
    audit_measurability(mmh)
    return mmh


def mark_sum(mmh: MarkedMarkovianHypercube, gammas) -> float:
    """Exact sum of gamma_x AND alpha_x over the corner offsets."""
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape != mmh.marks.shape:
        raise ParameterError("gammas must cover all corner offsets")
    return float(np.minimum(gammas, mmh.marks).sum())


@dataclass
class PathRecord:
    offset_bits: int
    y1: Site
    sites: np.ndarray           # (n, d): y_1 .. y_n
    pi: float
    rho_y1: float               # exact escape probability through y_1
    qtilde: float               # Qtilde_{0, x0+x}
    prod_q: float               # product of the Q factors along the tail


@dataclass
class PathBundle:
    mmh: MarkedMarkovianHypercube
    n: int
    records: list[PathRecord]

    def max_pi(self) -> float:
        return max(r.pi for r in self.records)


# Rows per field read of a path bundle.  A transitions_batch call on
# Expl(2, 0.2) or Expl(3, 0.2) took about 55 us at 16 rows, 62-69 us at
# 120, 72-81 us at 240, 91-105 us at 480, 133-151 us at 960 and 500-630 us
# at 4000 (best of 300, 2-vCPU Intel Xeon VM, numpy 2.4.6): a fixed ~55 us
# and ~0.1 us a row.  A 512-row window costs at most about twice a one-row
# read, and its depth (14, 5 and 2 at d = 2, 3 and 4) is near the cheapest
# cost per step of a long bundle; a bundle at d = 2, n <= 15 is one read.
_WINDOW_ROWS = 512


@cache
def _window_depth(d: int) -> int:
    """The deepest k whose window, 2^d C(k + d, d) rows, fits _WINDOW_ROWS;
    0 (lockstep, the corners or the current sites alone) when none does."""
    k = 0
    while (1 << d) * comb(k + 1 + d, d) <= _WINDOW_ROWS:
        k += 1
    return k


@cache
def _window(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and step table of a depth-k read window, read-only.

    Window row r is a multi-index c_r in N^d with |c_r| <= k, c_0 = 0.
    ``offsets`` (M, 2^d, d) holds c_r along corner j's outward axes, so
    window site (r, j) is path j's window center plus offsets[r, j]: every
    site its greedy path can reach within k steps.  ``succ`` (M, d) is the
    row of c_r + e_a, and -1 past depth k.
    """
    cs = [c for c in product(range(k + 1), repeat=d) if sum(c) <= k]
    row = {c: r for r, c in enumerate(cs)}
    succ = np.array([[row.get(c[:a] + (c[a] + 1,) + c[a + 1:], -1)
                      for a in range(d)] for c in cs], dtype=np.intp)
    signs = 1 - 2 * (_outward(d) >= d)          # +1 or -1 per corner and axis
    offsets = np.array(cs, dtype=np.int64).reshape(-1, 1, d) * signs
    return _frozen(offsets), _frozen(succ)


@cache
def _greedy_moves(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per corner, its outward directions smallest index first, their axes
    and their step vectors (read-only)."""
    outward = np.sort(_outward(d), axis=1)
    return (_frozen(outward), _frozen(outward % d),
            _frozen(step_vectors(d)[outward]))


def paths(env: Environment, mmh: MarkedMarkovianHypercube, n: int) -> PathBundle:
    """The escape path bundle and its quenched probabilities.

    For each corner, the bundle leaves the hypercube through the most
    probable exterior site adjacent to that corner (escape before return
    to the origin, exact solve), then walks outward, at every step taking
    the highest-probability direction that leaves the translated cube in
    which the current site plays the same corner role.  Ties break to the
    smallest direction index.  The 2^d paths step together and read the
    field in windows: one read holds, for every path, its current site and
    each site its greedy path can reach in the next k steps, k as deep as
    ``_WINDOW_ROWS`` rows allow.  One argmax takes the greedy choice of
    every window site, and each path then walks that table.  The first
    window starts at the corners and also feeds the escape solve; at
    d = 2, n = 5 it is the only read.
    """
    n = _count(n, "n")
    if n < 1:
        raise ParameterError("n must be >= 1")
    _require_one_field(env, "paths")
    d = env.dim
    m = 1 << d
    outward, axis, moves = _greedy_moves(d)
    col = np.arange(m)[:, None]
    cur = np.asarray(mmh.cube.corners, dtype=np.int64)
    sites = np.empty((m, n, d), dtype=np.int64)
    prod_q = [1.0] * m
    depth = _window_depth(d)
    for start in range(0, n, depth + 1):
        # step i reads the site the paths stand on: the corners, then y_i
        k = min(depth, n - 1 - start)
        offsets, succ = _window(d, k)
        window = env.transitions_batch((cur + offsets).reshape(-1, d))
        window = window.reshape(len(offsets), m, 2 * d)
        vals = window[:, col, outward]              # (M, m, d) outward rows
        if start == 0:
            rho, qtilde_row = escape_site_probs(window[0], mmh.origin_corner())
            vals[0] = rho[col, axis]
        # each window site's greedy choice (first max: smallest index), its
        # probability and the window row it leads to
        row = np.arange(len(offsets))[:, None]
        best = vals.argmax(axis=2)
        q = vals[row, col.T, best].tolist()
        nxt = succ[row, axis[col.T, best]].tolist()
        at = [0] * m                                # each path's window row
        rows = []
        for i in range(start, start + k + 1):
            rows.append(at)
            factors = [q[r][j] for j, r in enumerate(at)]
            if i == 0:
                rho_y1 = factors
            else:
                prod_q = [p * f for p, f in zip(prod_q, factors)]
            at = [nxt[r][j] for j, r in enumerate(at)]
        # the site of each step: where the path stood, plus its move
        rows = np.array(rows).T
        sites[:, start:start + k + 1] = (cur[:, None] + offsets[rows, col]
                                         + moves[col, best[rows, col]])
        cur = sites[:, start + k]
    pi = [r * p for r, p in zip(rho_y1, prod_q)]
    qtilde = qtilde_row.tolist()
    _assert_bundle_invariants(sites, pi, qtilde, prod_q, n)
    records = [PathRecord(j, tuple(y1), sites[j], pi[j], rho_y1[j], qtilde[j], prod_q[j])
               for j, y1 in enumerate(sites[:, 0].tolist())]
    return PathBundle(mmh, n, records)


def _assert_bundle_invariants(sites, pi, qtilde, prod_q, n) -> None:
    """Check a bundle: ``sites`` (2^d, n, d) holds each path's sites and
    ``pi``, ``qtilde`` and ``prod_q`` its probability, Qtilde and product
    of Q factors."""
    # a path never revisits its own site (each step moves outward in its
    # corner's fixed orthant), so the paths are disjoint exactly when all
    # their sites are distinct
    d = sites.shape[2]
    rows = sites.reshape(-1, d).tolist()
    if len(set(map(tuple, rows))) < len(rows):
        raise AssertionError("post-hypercube path segments intersect")
    if any(sum(map(abs, y)) < n for y in sites[:, -1].tolist()):
        raise AssertionError("path endpoint closer than n in L1 norm")
    for p, q, pq in zip(pi, qtilde, prod_q):
        lower = q / d * pq
        if p < lower - 1e-12 * max(1.0, abs(lower)):
            raise AssertionError("pi fell below its (1/d) Qtilde prod(Q) bound")


@dataclass
class Estimate:
    name: str
    value: float
    ci_low: float = float("nan")
    ci_high: float = float("nan")
    n: int = 0
    censored: int = 0


@dataclass
class CriterionReport:
    criterion: str
    params: dict
    estimates: list[Estimate]
    verdict: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _check_replicates(replicates: int) -> None:
    if replicates < 1:
        raise ParameterError("replicates must be >= 1")


def _origin_samples(law, replicates: int, master_seed: int, salt: str) -> np.ndarray:
    _check_replicates(replicates)
    seeds = rng.derive_keys(master_seed, salt, n=replicates)
    return transitions_for_seeds(law, seeds, np.zeros(law.dim, dtype=np.int64))


_SAMPLE_CAP = 1e300  # keeps astronomically heavy tails finite; biases the
                     # Hill index down, i.e. toward 'infinite', only there
_FINITE, _INFINITE = "moment-appears-finite", "moment-appears-infinite"


def _probe_columns(columns) -> tuple[list[str], list[Estimate]]:
    """Moment verdict and Estimate of E[y] for each (name, y) sample column.

    Each column is capped at _SAMPLE_CAP first; the Estimate carries the
    Hill tail-index CI when the fit has one.
    """
    verdicts, ests = [], []
    for name, y in columns:
        y = np.minimum(y, _SAMPLE_CAP)
        v, hill = stats.moment_verdict(y, 1.0)
        e = Estimate(name, float(np.mean(y)), n=len(y))
        if hill is not None:
            e.ci_low, e.ci_high = hill.ci_low, hill.ci_high
        verdicts.append(v)
        ests.append(e)
    return verdicts, ests


def _overall(satisfied: bool, violated: bool) -> str:
    """A check's overall verdict from its own satisfied/violated rule."""
    if satisfied:
        return "satisfied-empirically"
    return "violated-empirically" if violated else "inconclusive"


def _origin_probes(law, exponents, replicates: int,
                   master_seed: int) -> tuple[list[str], list[Estimate]]:
    """Probe E[p(0, e_i)^(-exponents[i])] for every canonical direction i."""
    P = _origin_samples(law, replicates, master_seed, "e0_probe")
    return _probe_columns(((f"inv_moment_p(e_{i + 1})^{x}", P[:, i] ** (-x))
                           for i, x in enumerate(exponents)))


def check_e0(law, etas, replicates: int, master_seed: int) -> CriterionReport:
    """Probe E[p(0,e)^(-eta_e)] < infinity for every direction."""
    etas = np.asarray(etas, dtype=float)
    if etas.shape not in ((), (1,), (2 * law.dim,)) or np.any(etas <= 0):
        raise ParameterError("etas must be one positive exponent or 2d of them")
    etas = np.broadcast_to(etas, (2 * law.dim,))
    verdicts, ests = _origin_probes(law, etas.tolist(), replicates, master_seed)
    overall = _overall(set(verdicts) == {_FINITE}, _INFINITE in verdicts)
    return CriterionReport("E0", {"etas": etas.tolist(), "replicates": replicates},
                           ests, overall, {"per_direction": verdicts})


def eprime_probe(law, exponent: float | None, replicates: int,
                 master_seed: int) -> CriterionReport:
    """Single-exponent probe of the exponential-moment condition.

    Any admissible exponent family must put at least 1/(4d) on some
    direction, so if E[p(0,e)^(-1/(4d))] is infinite for every direction
    the condition cannot hold for any family.
    """
    D = law.dim
    if exponent is None:
        exponent = 1.0 / (4 * D)
    if exponent <= 0:
        raise ParameterError("exponent must be positive")
    verdicts, ests = _origin_probes(law, [exponent] * (2 * D), replicates,
                                    master_seed)
    overall = _overall(set(verdicts) == {_FINITE}, set(verdicts) == {_INFINITE})
    return CriterionReport("Eprime1_probe",
                           {"exponent": exponent, "replicates": replicates},
                           ests, overall, {"per_direction": verdicts})


def check_eprime(law, phi, replicates: int, master_seed: int) -> CriterionReport:
    """Full check of the exponential-moment condition for a given phi."""
    D = law.dim
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (2 * D,) or np.any(phi <= 0):
        raise ParameterError("phi must be positive over the 2d directions")
    opp = np.concatenate([phi[D:], phi[:D]])
    margin = 2 * phi.sum() - (phi + opp).max()
    logP = np.log(_origin_samples(law, replicates, master_seed, "eprime_full"))

    def excluding(i):
        w = phi.copy()
        w[i] = 0.0
        return np.exp(-(logP * w).sum(axis=1))

    verdicts, ests = _probe_columns((f"exp_moment_excluding_e_{i + 1}", excluding(i))
                                    for i in range(2 * D))
    ok_margin = margin > 1.0
    overall = _overall(ok_margin and set(verdicts) == {_FINITE},
                       not ok_margin or _INFINITE in verdicts)
    return CriterionReport("Eprime1", {"phi": phi.tolist(), "margin": margin,
                                       "replicates": replicates},
                           ests, overall, {"per_direction": verdicts})


def check_ktilde(law, exponent: float, replicates: int,
                 master_seed: int) -> CriterionReport:
    """min_x E[(Q_x)^(-exponent)] < infinity, probed corner by corner.

    Q_x is the largest one-step probability of leaving the unit cube at
    the origin from its corner x.
    """
    if exponent <= 1.0:
        raise ParameterError("exponent must exceed 1 (it plays 1 + eps)")
    _check_replicates(replicates)
    cube = UnitHypercube((0,) * law.dim)
    seeds = rng.derive_keys(master_seed, "ktilde", n=replicates)
    P = transitions_for_seeds(law, seeds, np.asarray(cube.corners, dtype=np.int64))
    Q = _exit_probs(P).max(axis=2)
    verdicts, ests = _probe_columns((f"inv_moment_Q_corner_{j}", Q[:, j] ** (-exponent))
                                    for j in range(Q.shape[1]))
    overall = _overall(_FINITE in verdicts, set(verdicts) == {_INFINITE})
    return CriterionReport("Ktilde1", {"exponent": exponent,
                                       "replicates": replicates},
                           ests, overall,
                           {"per_corner": verdicts,
                            "min_Q_sample": float(Q.min())})


@dataclass
class AttainabilityPoint:
    u: float
    n: int
    threshold: float
    frequency: float
    benchmark: float
    below_benchmark: bool


def attainability(law, u_grid, delta: float, eta: float, alpha: float,
                  eps: float, replicates: int,
                  master_seed: int) -> list[AttainabilityPoint]:
    """Frequency of environments whose best escape path is unusually weak.

    For each u, estimates P[max_x pi_x^(floor(eta log u)) < u^{-(alpha+2
    delta)/(alpha+eps)}] over environment replicates and reports it against
    the u^{-(alpha+delta)} benchmark.  Cubes are discovered with the
    default :class:`EprimePolicy`.
    """
    u_grid = [float(u) for u in u_grid]
    horizon = {u: int(np.floor(eta * np.log(u))) for u in u_grid}
    for u in u_grid:
        if horizon[u] < 1:
            raise ParameterError(f"u={u} too small: floor(eta log u) < 1")
    policy = EprimePolicy()
    seeds = rng.derive_keys(master_seed, "attainability", n=replicates)
    maxpi: dict[float, list[float]] = {u: [] for u in u_grid}
    for seed in seeds.tolist():
        env = Environment(law, seed)
        mmh = discover(env, policy)
        for u in u_grid:
            maxpi[u].append(paths(env, mmh, horizon[u]).max_pi())
    out = []
    for u in u_grid:
        thr = u ** (-(alpha + 2 * delta) / (alpha + eps))
        freq = float(np.mean(np.asarray(maxpi[u]) < thr))
        bench = u ** (-(alpha + delta))
        out.append(AttainabilityPoint(u, horizon[u], thr, freq, bench, freq <= bench))
    return out


# The per-walker field is Environment(law, seeds); the name stays because
# the benchmark's workloads look it up here.
MultiSeedEnvironment = Environment


def _box_region(R: np.ndarray, L: float, Lp: float, Lt: float) -> Bounds:
    """The box R((-Lp, L) x (-Lt, Lt)^{d-1}) (bounds open)."""
    d = R.shape[0]
    return Bounds(R, [-Lp] + [-Lt] * (d - 1), [L] + [Lt] * (d - 1), False, False)


def _slab_region(ell: np.ndarray, b: float, L: float) -> Bounds:
    """The slab {-b L <= x.ell <= L} (bounds inclusive)."""
    return Bounds(ell, -b * L, L, True, True)


def _exit_share(env, starts, keys, budget: int, region: Bounds,
                event) -> tuple[int, int, int]:
    """(hits, exited, censored) walks of a run until each leaves ``region``:
    hits left it at a site where ``event``, a predicate on the (n, d) final
    sites, holds, and censored ones spent the ``budget`` inside."""
    res = run_until_batch(env, starts, keys, budget, inside=region)
    exited = res.status == STATUS_EXITED
    return (int((exited & event(res.final)).sum()), int(exited.sum()),
            res.censored())


@dataclass
class BoxExitPoint:
    L: float
    Lp: float
    Ltilde: float
    estimate: float
    ci_high: float
    n: int
    censored: int


def polynomial_condition(law, ell, M: float, L_grid, walk_budget: int,
                         replicates: int, master_seed: int) -> CriterionReport:
    """Annealed box-exit probe of the polynomial condition.

    For each box length L, searches the (Lp, Ltilde) grid
    {1, 1.125, 1.25} L x {1, 4, 16} L (Ltilde capped at 72 L^3) for the
    smallest estimate of P[exit with x.ell < L] and compares it to L^-M.
    The astronomically large threshold scale of the exact statement is
    not desk-reachable; only the decay shape over the given grid is
    being checked, which the report flags.  Grid points where no run
    resolved are never chosen; an L where none resolved makes the verdict
    "insufficient-data".
    """
    if M < 1:
        raise ParameterError("M must be >= 1")
    if not len(L_grid) or any(L <= 0 for L in L_grid):
        raise ParameterError("every box length L must be positive, "
                             "and L_grid nonempty")
    R = rotation_onto_e1(ell)
    # the box's front form: it can differ from ell in the last bit, and the
    # event must place a site exactly as the region does
    front = R[:, 0]
    origin = np.zeros(law.dim, dtype=np.int64)
    points: list[BoxExitPoint] = []
    verdict_ok = True
    unresolved = False
    for L in L_grid:
        grid: list[BoxExitPoint] = []
        for fp in (1.0, 1.125, 1.25):
            for ft in (1.0, 4.0, 16.0):
                Lp = fp * L
                Lt = min(ft * L, 72.0 * L ** 3)
                seeds = rng.derive_keys(master_seed, f"pm:{L}:{fp}:{ft}", n=replicates)
                keys = walk_keys(master_seed, replicates, salt=f"pm_walk:{L}:{fp}:{ft}")
                bad, n, cens = _exit_share(Environment(law, seeds), origin, keys,
                                           walk_budget, _box_region(R, L, Lp, Lt),
                                           lambda final: _dot(final, front) < L)
                grid.append(BoxExitPoint(L, Lp, Lt, bad / n if n else float("nan"),
                                         stats.binomial_ci(bad, n)[1], n, cens))
        # a point without resolved runs has a NaN estimate and never wins
        resolved = [pt for pt in grid if pt.n]
        if not resolved:
            unresolved = True
            points.append(grid[0])
            continue
        best = min(resolved, key=lambda pt: pt.estimate)
        points.append(best)
        if not (best.estimate <= L ** (-M)):
            verdict_ok = False
    ests = [Estimate(f"backtrack_exit_L={p.L}", p.estimate, ci_high=p.ci_high,
                     n=p.n, censored=p.censored) for p in points]
    verdict = "insufficient-data" if unresolved else _overall(verdict_ok, True)
    return CriterionReport(
        "P_M", {"M": M, "L_grid": list(L_grid), "replicates": replicates},
        ests, verdict,
        {"note": "exact threshold scale (2/3)3^{29d} not desk-reachable; "
                 "decay shape checked on the given grid",
         "points": [p.__dict__ for p in points]})


def _splitting_once(env, ell, b: float, L: float, n_per_level: int,
                    walk_budget: int, key: int, level_width: float,
                    ) -> tuple[float, int]:
    """One fixed-effort splitting pass for the quenched back-exit event.

    Returns the estimate and the number of censored walks.  A level with a
    censored walk has no passage frequency, so the pass then reads NaN
    (insufficient data); its later levels still run, so that the censored
    count covers the whole pass.
    """
    d = env.dim
    ell = np.asarray(ell, dtype=float)
    m = max(1, int(np.ceil(b * L / level_width)))
    levels = [-b * L * (j + 1) / m for j in range(m)]
    starts = np.zeros((n_per_level, d), dtype=np.int64)
    prob = 1.0
    censored = 0
    for j, lev in enumerate(levels):
        final_stage = j == m - 1
        # level j's region: its walks stop on crossing the level (or, at
        # the last level, on leaving the slab's back) or the front
        inside = (_slab_region(ell, b, L) if final_stage
                  else Bounds(ell, lev, L, False, True))
        keys = walk_keys(key, n_per_level, salt=f"split:{j}")
        res = run_until_batch(env, starts, keys, walk_budget, inside)
        c = res.censored()
        censored += c
        if c:
            prob = float("nan")
        hit_ids = np.nonzero((res.status == STATUS_EXITED)
                             & (_dot(res.final, ell) <= L))[0]
        k = len(hit_ids)
        prob *= k / n_per_level
        if k == 0:
            return prob, censored
        if not final_stage:
            u = rng.stream_uniform_block(rng.derive_key(key, "resample", j),
                                         n_per_level)
            pick = hit_ids[np.minimum((u * k).astype(np.int64), k - 1)]
            starts = res.final[pick]
    return prob, censored


@dataclass
class SlabFit:
    gamma: float
    slope: float
    slope_se: float
    slope_ci: tuple[float, float]
    r2: float
    n_points: int


@dataclass
class SlabExitReport:
    L_grid: list[float]
    estimates: list[float]
    log_se: list[float]
    censored: list[int]
    fits: dict[float, SlabFit | None]
    estimator: str

    def to_dict(self) -> dict:
        return {"L_grid": self.L_grid, "estimates": self.estimates,
                "log_se": self.log_se, "censored": self.censored,
                "estimator": self.estimator,
                "fits": {repr(g): (None if f is None else f.__dict__)
                         for g, f in self.fits.items()}}


def slab_exit(law, ell, b: float, L_grid, walk_budget: int, replicates: int,
              master_seed: int, estimator: str = "splitting",
              n_per_level: int = 400, repeats: int = 4,
              level_width: float = 0.75, direct_runs: int = 4000,
              gammas=(1.0,)) -> SlabExitReport:
    """Backtrack-exit probability of the slab {-bL <= x.ell <= L} per L.

    The splitting estimator advances walks level by level toward the back
    side, multiplying conditional passage frequencies, so exponentially
    small probabilities remain estimable; the direct estimator is plain
    Monte Carlo over the walks that exit, and drops a replicate whose walks
    are all censored (an L with none left reports NaN).  A splitting pass
    with a censored walk reads NaN, and so does its L.  Each replicate's
    field is built once, for every L: the walks of all its passes read one
    field and its kept site-row table.  Fits of log-estimate against
    L^gamma are reported for each requested gamma.
    """
    if b <= 0 or not len(L_grid) or any(L <= 0 for L in L_grid):
        raise ParameterError("b and every slab length L must be positive, "
                             "and L_grid nonempty")
    if estimator not in ("splitting", "direct"):
        raise ParameterError(f"unknown estimator {estimator!r}")
    _check_replicates(replicates)
    ell = _check_unit(ell)
    vals: list[list[float]] = [[] for _ in L_grid]
    cens = [0] * len(L_grid)
    # one field per replicate, whatever L: its walks, the levels of every
    # pass included, share the field's kept site-row table
    for r in range(replicates):
        env = Environment(law, rng.derive_key(master_seed, "slab_env", r))
        for i, L in enumerate(L_grid):
            if estimator == "splitting":
                for k in range(repeats):
                    key = rng.derive_key(master_seed, "slab_split", r, k, int(L * 64))
                    p, c = _splitting_once(env, ell, b, float(L), n_per_level,
                                           walk_budget, key, level_width)
                    vals[i].append(p)
                    cens[i] += c
            else:
                keys = walk_keys(rng.derive_key(master_seed, "slab_direct", r,
                                                int(L * 64)),
                                 direct_runs)
                back, n, c = _exit_share(env, np.zeros(law.dim, dtype=np.int64),
                                         keys, walk_budget,
                                         _slab_region(ell, b, float(L)),
                                         lambda final: _dot(final, ell) < 0)
                cens[i] += c
                if n:      # all censored: no data, not "no back exit"
                    vals[i].append(back / n)
    Ls, est, lse = [float(L) for L in L_grid], [], []
    for row in vals:
        v = np.asarray(row, dtype=float)
        est.append(float(v.mean()) if len(v) else float("nan"))
        pos = v[v > 0]
        lse.append(float(np.log(pos).std(ddof=1) / np.sqrt(len(pos)))
                   if len(pos) > 1 else float("nan"))
    fits = {float(g): _fit_decay(Ls, est, lse, float(g)) for g in gammas}
    return SlabExitReport(Ls, est, lse, cens, fits, estimator)


def _fit_decay(Ls, est, lse, gamma: float) -> SlabFit | None:
    """Weighted least squares of log(estimate) against L^gamma; None unless
    the positive estimates span at least two values of L^gamma."""
    x, y, w = [], [], []
    for L, p, se in zip(Ls, est, lse):
        if p > 0:
            x.append(L ** gamma)
            y.append(np.log(p))
            w.append(1.0 / max(se ** 2, 1e-6) if np.isfinite(se) else 1.0)
    if len(set(x)) < 2:
        return None
    x, y, w = map(np.asarray, (x, y, w))
    W = w.sum()
    xbar = (w * x).sum() / W
    ybar = (w * y).sum() / W
    sxx = (w * (x - xbar) ** 2).sum()
    slope = (w * (x - xbar) * (y - ybar)).sum() / sxx
    resid = y - ybar - slope * (x - xbar)
    dof = len(x) - 2
    se_slope = tq = float("nan")    # two points leave no residual: no interval
    if dof:
        sigma2 = (w * resid ** 2).sum() / dof
        se_slope = float(np.sqrt(sigma2 / sxx))
        from scipy import stats as sps
        tq = sps.t.ppf(0.975, dof)
    ss_tot = (w * (y - ybar) ** 2).sum()
    r2 = float(1.0 - (w * resid ** 2).sum() / ss_tot) if ss_tot > 0 else 1.0
    return SlabFit(gamma, float(slope), se_slope,
                   (float(slope - tq * se_slope), float(slope + tq * se_slope)),
                   r2, len(x))


@dataclass
class FrontExitEstimate:
    p_hat: float
    ci_low: float
    ci_high: float
    n_front: int
    n_other: int
    n_censored: int


def tilted_box_exit(env: Environment, center: Site, beta: float, L: float,
                    vhat, walk_budget: int, runs: int,
                    master_seed: int) -> FrontExitEstimate:
    """Quenched probability of leaving a tilted box through its front."""
    if L < 2:
        raise ParameterError("L must be >= 2")
    center = _sites(center, "center")
    box = TiltedBox(tuple(center.tolist()), beta, L, tuple(float(v) for v in vhat))
    if walk_budget == 0:
        return FrontExitEstimate(float("nan"), float("nan"), float("nan"),
                                 0, 0, runs)
    keys = walk_keys(master_seed, runs, salt="tilted_box")
    n_front, n, cens = _exit_share(env, center, keys, walk_budget, box.region,
                                   box.is_front_batch)
    lo, hi = stats.binomial_ci(n_front, n)
    return FrontExitEstimate(n_front / n if n else float("nan"), lo, hi,
                             n_front, n - n_front, cens)

"""Deterministic i.i.d. random environments on Z^d.

An Environment maps a site to its transition vector over the 2d canonical
directions (+e_1..+e_d then -e_1..-e_d) as a pure function of the master
seed, the law and the site coordinates.  Laws consume a fixed number of
per-site uniforms from a counter-based stream, so environments are never
stored: any site can be re-evaluated bit-identically at any time, from any
worker.  The master seed is one seed (the quenched field) or an array of
per-walker seeds (the annealed law); both go through the same keyed field.

``Environment.transitions_batch`` is the reference evaluation of the field:
site keys, all their uniforms in one draw, then the law's rows; a numpy
walk step takes the same two stages with its walk uniforms in the draw.
A row does not depend on the batch it is read in.  The walk
engines step the four closed-form laws in the compiled loop of
:mod:`rwre._kernel`, which evaluates each law's row in the same order as
its ``pvecs_from_uniforms`` (the trap laws share ``_trap_rows`` and one case
there): a change to one must be mirrored there, and ``tests/test_kernel.py``
fails until it is.

Concrete laws:

* UniformDrift -- uniformly elliptic, optionally drifted (deterministic
  vector, the degenerate i.i.d. case).
* Expl -- the heavy-tailed ballistic example: one uniformly chosen
  direction is assigned probability 1/T with T Pareto-like, the rest split
  a fixed drift epsilon toward the positive orthant.
* TrapSym -- symmetric trapping law: a uniformly random signed axis basis
  gets probability T/d per direction, the opposite directions (1-T)/d.
* TrapTransient -- the transient zero-speed variant on Z^{d+1}, with a
  2:1 bias along the extra axis.
* Dirichlet -- Dirichlet(weights) on the simplex (inverse-CDF gamma
  variates, fixed stream consumption).
* TableMixture -- finite mixture of fixed transition vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import ParameterError
from .lattice import _frozen, _sites

PROB_SUM_TOL = 1e-9


def sample_trap_T(u, d: int):
    """T = u^{2^d} / 2: supported on (0, 1/2] with P[1/T >= n] = (2/n)^{1/2^d}."""
    return 0.5 * np.asarray(u, dtype=float) ** (1 << d)


_ONE = np.array(1.0)


def normalize_rows(p: np.ndarray) -> np.ndarray:
    """Renormalize probability rows, rejecting sums off by more than 1e-9,
    negative entries and NaN (each test is written so that NaN fails it)."""
    p = np.asarray(p, dtype=float)
    s = np.add.reduce(p, axis=-1, keepdims=True)
    # one float reduction per test, which NaN propagates through
    if not (p.min(initial=0.0) >= 0.0
            and abs(s - _ONE).max(initial=0.0) <= PROB_SUM_TOL):
        raise ValueError("invalid transition vector (bad sum or negative entry)")
    return p / s


@dataclass(frozen=True)
class UniformDrift:
    """p(e) = (1-strength)/(2d) + strength at the drift direction."""

    d: int
    strength: float = 0.0
    axis: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError("d must be >= 1")
        if not (0.0 <= self.strength < 1.0):
            raise ParameterError("strength must lie in [0, 1)")
        if not (1 <= self.axis <= self.d):
            raise ParameterError("axis must lie in [1, d]")

    @property
    def dim(self) -> int:
        return self.d

    @property
    def nvars(self) -> int:
        return 0

    @property
    def tag(self) -> str:
        return f"uniform_drift:d={self.d}:s={self.strength!r}:a={self.axis}"

    def pvec(self) -> np.ndarray:
        p = np.full(2 * self.d, (1.0 - self.strength) / (2 * self.d))
        p[self.axis - 1] += self.strength
        return p

    def pvecs_from_uniforms(self, U: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.pvec(), (U.shape[0], 2 * self.d)).copy()


class _ExplConsts(NamedTuple):
    power: np.ndarray           # -6d, the exponent of U in T
    scale: np.ndarray           # 2d + 1
    ndirs: np.ndarray           # 2d
    own_share: np.ndarray       # d - 1 entries share i0's half
    at_i0: np.ndarray           # (2d + 1,) i0 clipped to 2d - 1
    own_mass: np.ndarray        # (2d + 1,) the mass of i0's half
    other: np.ndarray           # (2d + 1,) an entry of the other half
    in_own_half: np.ndarray     # (2d + 1, 2d) entries in i0's half


@lru_cache(maxsize=64)
def _expl_consts(d: int, eps: float) -> _ExplConsts:
    """An Expl law's constants, as 0-d arrays and read-only tables."""
    i0 = np.minimum(np.arange(2 * d + 1), 2 * d - 1)
    neg = i0 >= d
    return _ExplConsts(*(_frozen(np.asarray(a)) for a in (
        float(-6 * d), float(2 * d + 1), float(2 * d), float(d - 1), i0,
        np.where(neg, eps, 1.0 - eps), np.where(neg, (1.0 - eps) / d, eps / d),
        (np.arange(2 * d) >= d) == neg[:, None])))


@dataclass(frozen=True)
class Expl:
    """The explicit ballistic example law.

    At each site, an independent direction i0 uniform on the 2d directions
    receives probability 1/T with T = (2d+1) U^{-6d}, Pareto on
    [2d+1, inf) with tail exponent 1/(6d): E[T^s] is finite exactly when
    s < 1/(6d), so the moment of order 1/(8d) is finite while the moment
    of order 1/(4d) is infinite.  The remaining mass
    splits so the positive directions carry 1 - eps total and the negative
    ones eps.  Requires eps in [1/(2d+1), 2d/(2d+1)] so that every entry is
    nonnegative (the endpoints touch zero only on the null event T = 2d+1),
    and d >= 2: in d = 1 the row would sum to 1 - eps + 1/T or eps + 1/T.
    """

    d: int
    eps: float

    def __post_init__(self):
        if self.d < 2:
            raise ParameterError("d must be >= 2: in d = 1 the rows cannot sum to 1")
        lo = 1.0 / (2 * self.d + 1)
        hi = 2 * self.d / (2 * self.d + 1)
        if not (lo <= self.eps <= hi):
            raise ParameterError(f"eps must lie in [{lo}, {hi}] for d={self.d}")

    @property
    def dim(self) -> int:
        return self.d

    @property
    def nvars(self) -> int:
        return 2

    @property
    def tag(self) -> str:
        return f"expl:d={self.d}:eps={self.eps!r}"

    def pvecs_from_uniforms(self, U: np.ndarray) -> np.ndarray:
        # the float operations of T = (2d+1) U^{-6d} and the half masses, per
        # row; which entries take which value is read off tables indexed by
        # i0, whose row 2d repeats row 2d - 1 (i0 = 2d where U[:, 1] == 1)
        (power, scale, ndirs, own_share, at_i0, own_mass, other,
         in_own_half) = _expl_consts(self.d, self.eps)
        T = U[:, 0] ** power
        T *= scale
        invT = np.divide(_ONE, T, out=T)
        i0 = (U[:, 1] * ndirs).astype(np.intp)
        own = own_mass.take(i0)             # i0's half: its mass less 1/T
        own -= invT
        own /= own_share
        p = np.where(in_own_half.take(i0, axis=0), own[:, None], other.take(i0)[:, None])
        p[np.arange(len(i0)), at_i0.take(i0)] = invT
        return p


def _trap_rows(U: np.ndarray, T: np.ndarray, C, dim: int) -> np.ndarray:
    """Rows over 2 dim directions: on the first d axes (U has 1 + d columns),
    T/C toward the signed basis B_0 and (1-T)/C away; the rest left unset."""
    d = U.shape[1] - 1
    plus_in_b0 = U[:, 1:] <= 0.5
    hard, easy = (T / C)[:, None], ((1.0 - T) / C)[:, None]
    p = np.empty((U.shape[0], 2 * dim))
    p[:, :d] = np.where(plus_in_b0, hard, easy)
    p[:, dim:dim + d] = np.where(plus_in_b0, easy, hard)
    return p


@dataclass(frozen=True)
class TrapSym:
    """Symmetric trapping law: a random signed axis basis is hard to cross.

    B_0 = {sigma_i e_i} with signs uniform on {-1,+1}^d; directions in B_0
    get probability T/d, their opposites (1-T)/d, with T in (0, 1/2] of
    tail P[1/T >= n] = (2/n)^tail_exponent (default 2^-d).
    """

    d: int
    tail_exponent: float | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError("d must be >= 1")
        te = self.tail_exponent
        if te is not None and not (0.0 < te <= 1.0):
            raise ParameterError("tail_exponent must lie in (0, 1]")

    @property
    def dim(self) -> int:
        return self.d

    @property
    def nvars(self) -> int:
        return 1 + self.d

    @property
    def _texp(self) -> float:
        return self.tail_exponent if self.tail_exponent is not None else 2.0 ** -self.d

    @property
    def tag(self) -> str:
        return f"trap_sym:d={self.d}:t={self._texp!r}"

    def pvecs_from_uniforms(self, U: np.ndarray) -> np.ndarray:
        T = 0.5 * U[:, 0] ** (1.0 / self._texp)
        return _trap_rows(U, T, self.d, self.d)


@dataclass(frozen=True)
class TrapTransient:
    """Zero-speed transient law on Z^{d+1}.

    The first d axes behave like TrapSym (normalized by C = d + 3T); the
    extra axis carries 2T/C forward and T/C backward, so the projection on
    e_{d+1} is a time-changed 2-biased walk.  Since T <= 1/2, the
    normalizer satisfies d <= C <= 2(d+1).
    """

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError("d must be >= 1")

    @property
    def dim(self) -> int:
        return self.d + 1

    @property
    def nvars(self) -> int:
        return 1 + self.d

    @property
    def tag(self) -> str:
        return f"trap_transient:d={self.d}"

    def pvecs_from_uniforms(self, U: np.ndarray) -> np.ndarray:
        d = self.d
        T = sample_trap_T(U[:, 0], d)
        C = d + 3.0 * T
        p = _trap_rows(U, T, C, d + 1)
        p[:, d] = 2.0 * T / C
        p[:, 2 * d + 1] = T / C
        return p


@dataclass(frozen=True)
class Dirichlet:
    """Dirichlet(weights) transition vectors; weights has length 2d."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) % 2 != 0 or len(w) < 2:
            raise ParameterError("weights must have length 2d")
        if any(x <= 0 for x in w):
            raise ParameterError("Dirichlet weights must be positive")

    @property
    def dim(self) -> int:
        return len(self.weights) // 2

    @property
    def nvars(self) -> int:
        return len(self.weights)

    @property
    def tag(self) -> str:
        return "dirichlet:" + ",".join(repr(w) for w in self.weights)

    def pvecs_from_uniforms(self, U: np.ndarray) -> np.ndarray:
        # inverse-CDF gamma variates: fixed consumption, no rejection
        from scipy.special import gammaincinv
        alpha = np.asarray(self.weights)
        g = gammaincinv(alpha[None, :], U)
        return g / g.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class TableMixture:
    """Finite mixture over fixed transition vectors."""

    entries: tuple[tuple[float, tuple[float, ...]], ...]

    def __post_init__(self):
        ent = tuple((float(w), tuple(float(x) for x in p)) for w, p in self.entries)
        object.__setattr__(self, "entries", ent)
        if not ent:
            raise ParameterError("mixture needs at least one component")
        if any(w <= 0 for w, _ in ent):
            raise ParameterError("mixture weights must be positive")
        lens = {len(p) for _, p in ent}
        if len(lens) != 1 or next(iter(lens)) % 2 != 0:
            raise ParameterError("all components must share an even length")
        w = np.array([w for w, _ in ent])
        object.__setattr__(self, "_cum", _frozen(np.cumsum(w / w.sum())))
        object.__setattr__(self, "_table",
                           _frozen(normalize_rows(np.array([p for _, p in ent]))))

    @property
    def dim(self) -> int:
        return len(self.entries[0][1]) // 2

    @property
    def nvars(self) -> int:
        return 1

    @property
    def tag(self) -> str:
        parts = [f"{w!r}:{','.join(repr(x) for x in p)}" for w, p in self.entries]
        return "table_mixture:" + "|".join(parts)

    def pvecs_from_uniforms(self, U: np.ndarray) -> np.ndarray:
        cum = self._cum
        return self._table[np.minimum(np.searchsorted(cum, U[:, 0]), len(cum) - 1)]


@dataclass(frozen=True, eq=False)
class Environment:
    """An i.i.d. random field: (master_seed, law, site) -> transition vector.

    ``master_seed`` is one seed, a quenched field shared by every walker, or
    a uint64 array of per-walker seeds, the annealed law in which each
    walker reads its own field.  The two differ only in whether the folded
    base key is one key or one per walker.  Compared by identity, since
    the seed may be an array.
    """

    law: object
    master_seed: int | np.ndarray

    def __post_init__(self):
        tag = rng.string_tag(self.law.tag)
        # one uint64 key per walker, or one 0-d uint64 key for every site
        if np.ndim(self.master_seed):
            base = rng.base_keys(self.master_seed, tag)
        else:
            base = np.array(rng.base_key(self.master_seed, tag), dtype=np.uint64)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_nvars", self.law.nvars)
        object.__setattr__(self, "dim", self.law.dim)
        # the compiled walk loop's state of this field (rwre._kernel.Field),
        # its site-row table included, kept from the field's first run on
        object.__setattr__(self, "_loop_field", None)

    def transitions_at(self, x) -> np.ndarray:
        return self.transitions_batch(np.asarray(x)[None])[0]

    def transitions_batch(self, X: np.ndarray, idx=None) -> np.ndarray:
        """Transition vectors for an (N, dim) array of sites, or
        ParameterError unless X is one of integral coordinates.

        With per-walker seeds, row i reads the field of walker ``idx[i]``,
        or of walker i when ``idx`` is None; walk engines that compact
        finished walkers pass the surviving walker indices.  A single field
        ignores ``idx``.
        """
        X = _sites(X, "sites")
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ParameterError(f"sites must have shape (N, {self.dim}), got {X.shape}")
        if self._nvars == 0:
            return self.law.pvecs_from_uniforms(np.empty((X.shape[0], 0)))
        keys = self._site_keys(X, idx)
        return self._rows(rng._uniforms(keys[:, None] + rng._offsets(self._nvars)))

    # The two stages of a site row, shared with walk._step_batch, which draws
    # the site uniforms and the walk uniform of a step in one call.  The
    # draws are rng.stream_uniforms(keys[:, None], np.arange(nvars)), with
    # the counter offsets of those draw indices made once.

    def _site_keys(self, X: np.ndarray, idx) -> np.ndarray:
        """Site keys of the (N, dim) int64 sites X (``idx`` as above)."""
        base = self._base
        if base.ndim:
            base = base.take(idx) if idx is not None else base[:len(X)]
        return rng.site_keys_from_base(base, X)

    def _rows(self, U: np.ndarray) -> np.ndarray:
        """Transition vectors from an (N, nvars) array of site uniforms."""
        return normalize_rows(self.law.pvecs_from_uniforms(U))


def _require_one_field(env: Environment, what: str) -> None:
    """ParameterError unless ``env`` is one quenched field, not per-walker seeds."""
    if env._base.ndim:                          # one base key per walker
        raise ParameterError(f"{what} needs one field, not per-walker seeds")


def transitions_for_seeds(law, seeds, x) -> np.ndarray:
    """Transition vectors at the same sites under many master seeds.

    ``x`` is one site (dim,) or several (m, dim); the result has shape
    (R, 2 dim) or (R, m, 2 dim) for R seeds, row r being what
    ``Environment(law, seeds[r])`` returns at those sites.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    x = _sites(x, "sites")
    sites = x.reshape(-1, x.shape[-1])
    walkers = np.repeat(np.arange(len(seeds)), len(sites))
    P = Environment(law, seeds).transitions_batch(np.tile(sites, (len(seeds), 1)),
                                                  walkers)
    return P.reshape((len(seeds),) + x.shape[:-1] + (2 * law.dim,))


@dataclass
class EllipticityReport:
    n: int
    min_entry: float
    max_entry: float
    kappa_grid: np.ndarray
    prob_elliptic: np.ndarray
    kappa0: float | None


def ellipticity_profile(env: Environment, samples: int) -> EllipticityReport:
    """Monte Carlo ellipticity summary of a law.

    Estimates the probability that a site is kappa-elliptic (all entries
    inside (kappa, 1-kappa)) over 40 geometric kappa values from 1e-6 to
    1/2 and reports the largest with estimated probability above 1/2.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    _require_one_field(env, "ellipticity_profile")
    d = env.dim
    key = rng.derive_key(env.master_seed, "ellipticity_profile")
    u = rng.stream_uniform_block(key, samples * d)
    X = (np.floor(u * 2_000_000.0) - 1_000_000.0).astype(np.int64).reshape(samples, d)
    P = env.transitions_batch(X)
    mins = P.min(axis=1)
    maxs = P.max(axis=1)
    kappas = np.geomspace(1e-6, 0.5, 40)
    prob = np.array([np.mean((mins > k) & (maxs < 1.0 - k)) for k in kappas])
    ok = np.nonzero(prob > 0.5)[0]
    kappa0 = float(kappas[ok[-1]]) if len(ok) else None
    return EllipticityReport(samples, float(mins.min()), float(maxs.max()),
                             kappas, prob, kappa0)

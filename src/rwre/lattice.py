"""Lattice geometry: canonical steps, linear regions, unit hypercubes,
tilted boxes.

Sites are tuples of python ints (hashable, exact); bulk math uses numpy.
Directions are enumerated with the convention that direction i+d is the
negative of direction i.  The canonical enumeration (+e_1..+e_d then
-e_1..-e_d) is the frame in which environment laws are specified.  The
step table, the corner offsets and a cube's outward table and corners are
built once per dimension (corners once per anchor) and returned
read-only: arrays that refuse writes, tuples in place of lists.  Every
walk region -- a slab, a splitting level, a box, the unit hypercube and
the tilted box -- is a :class:`Bounds`, whose membership test is
vectorized over (N, d) arrays of sites.  A linear form has one value,
:func:`_dot`'s left-to-right sum, which the compiled walk loop computes
too: a region's decisions and the events read off its exit sites do not
depend on the host's BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from .errors import ParameterError

Site = tuple[int, ...]


def _check_unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if not np.isfinite(norm) or abs(norm - 1.0) > 1e-12:
        raise ParameterError(f"expected a unit vector, got norm {norm!r}")
    return v


def _sites(x, what: str) -> np.ndarray:
    """x as a C-ordered int64 copy, or ParameterError if a coordinate is not an
    int64 integer; float arrays of integral values are sites too."""
    a = np.asarray(x)
    if a.dtype == np.int64:
        return np.array(a, order="C")
    with np.errstate(invalid="ignore"):     # NaN and inf fail the comparison
        sites = np.array(a, dtype=np.int64, order="C")
    if not np.array_equal(sites, a):
        raise ParameterError(f"{what} must have integer coordinates, got {x!r}")
    return sites


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def step_vectors(d: int) -> np.ndarray:
    """(2d, d) int64 table of steps in canonical direction order (read-only)."""
    eye = np.eye(d, dtype=np.int64)
    return _frozen(np.concatenate([eye, -eye]))


@cache
def corner_offsets(d: int) -> tuple[Site, ...]:
    """The 2^d corner offsets of a unit hypercube, in bit order."""
    return tuple(tuple((j >> i) & 1 for i in range(d)) for j in range(1 << d))


@cache
def _outward(d: int) -> np.ndarray:
    """(2^d, d) table of the direction leaving corner j of a unit cube
    along axis i: i when bit i of j is set and d + i otherwise.  The inward
    direction, ``(_outward(d) + d) % (2 * d)``, leads to corner
    ``j ^ (1 << i)``.  One read-only table per dimension."""
    bits = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1
    return _frozen(np.arange(d) + d * (1 - bits))


@lru_cache(maxsize=256)
def _corners(anchor: Site) -> tuple[Site, ...]:
    return tuple(tuple(a + o for a, o in zip(anchor, off))
                 for off in corner_offsets(len(anchor)))


def _dot(X, A) -> np.ndarray:
    """``X @ A`` as the left-to-right sum x_1 a_1 + ... + x_d a_d in float64.

    Each product is rounded, then added in order, with no BLAS and no
    fused multiply-add: the walk kernel's sum, bit for bit.  ``X`` is one
    site (d,) or sites (N, d); ``A`` one form (d,) or forms (d, m).
    """
    X = np.asarray(X)
    A = np.asarray(A, dtype=float)
    V = np.multiply.outer(X[..., 0], A[0])
    for i in range(1, len(A)):
        V += np.multiply.outer(X[..., i], A[i])
    return V


@dataclass(frozen=True, eq=False)
class Bounds:
    """The sites x with lo < x @ A < hi in every column of A.

    ``A`` is one linear form of shape (d,) with scalar bounds, or m forms
    of shape (d, m) with m bounds each; ``lo_closed`` and ``hi_closed`` make
    the lower and upper bounds inclusive.  Called on an (N, d) array of
    sites it returns the (N,) membership mask.  Each form's value is
    :func:`_dot`'s, which the walk engine's compiled loop computes alike,
    so both decide every site the same way.  Compared by identity, since
    its fields are arrays.
    """

    A: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        A = np.array(self.A, dtype=float, order="C")    # the walk kernel reads it
        lo = np.array(self.lo, dtype=float)
        hi = np.array(self.hi, dtype=float)
        if A.ndim not in (1, 2) or lo.shape != A.shape[1:] or hi.shape != lo.shape:
            raise ParameterError(f"bounds of shapes {lo.shape} and {hi.shape} do not "
                                 f"match linear forms of shape {A.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        V = _dot(X, self.A)
        ok = ((self.lo <= V) if self.lo_closed else (self.lo < V)) & (
            (V <= self.hi) if self.hi_closed else (V < self.hi))
        return ok if ok.ndim == 1 else ok.all(axis=1)


@dataclass(frozen=True)
class UnitHypercube:
    """The 2^d sites {anchor + sum eps_i e_i, eps in {0,1}^d}."""

    anchor: Site

    @property
    def d(self) -> int:
        return len(self.anchor)

    @property
    def corners(self) -> tuple[Site, ...]:
        """The 2^d corner sites in bit order."""
        return _corners(self.anchor)

    def corner_index(self, site: Site) -> int:
        """Bit index of a corner site (its offset pattern)."""
        j = 0
        for i in range(self.d):
            off = site[i] - self.anchor[i]
            if off not in (0, 1):
                raise ParameterError(f"{site} is not a corner of {self}")
            j |= off << i
        return j

    @property
    def region(self) -> Bounds:
        """The cube as a walk region: anchor_i <= x_i <= anchor_i + 1."""
        a = np.asarray(self.anchor, dtype=float)
        return Bounds(np.eye(self.d), a, a + 1.0, True, True)


def projection_axis(vhat) -> tuple[int, int]:
    """Axis i0 maximizing |vhat . e_i| and the sign making the dot positive.

    For a unit vector the chosen dot is at least 1/sqrt(d); ties go to the
    smallest axis index.
    """
    vhat = _check_unit(vhat)
    i0 = int(np.argmax(np.abs(vhat)))
    return i0, (1 if vhat[i0] > 0 else -1)


@dataclass(frozen=True)
class TiltedBox:
    """Box tilted along an asymptotic direction vhat, length L, width L^beta."""

    center: Site
    beta: float
    L: float
    vhat: tuple[float, ...]
    i0: int = field(init=False)
    sign: int = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ParameterError("beta must lie in (0, 1)")
        if self.L <= 0:
            raise ParameterError("L must be positive")
        i0, sign = projection_axis(self.vhat)
        object.__setattr__(self, "i0", i0)
        object.__setattr__(self, "sign", sign)

    @property
    def region(self) -> Bounds:
        """The box as a walk region, all bounds open: -L^beta < t < L along
        the long axis, t = sign (y - center)_i0, and |q_j| < L^beta across
        it, q_j = (y - center)_j - (v_j / v_i0) (y - center)_i0.  A diagonal
        or axis-aligned vhat gives integer forms, decided exactly."""
        d, i0, width = len(self.center), self.i0, self.L ** self.beta
        v = np.asarray(self.vhat, dtype=float)
        A = np.eye(d)
        A[i0] = -v / v[i0]
        A[i0, i0] = self.sign
        c = _dot(self.center, A)
        lo, hi = c - width, c + width
        hi[i0] = c[i0] + self.L
        return Bounds(A, lo, hi, False, False)

    def is_front_batch(self, Y: np.ndarray) -> np.ndarray:
        """Front-boundary test for an (N, d) array of exit sites.

        Matches the displayed boundary ((y-x).e_i0 = L) whenever L is an
        integer; the >= form also classifies exits correctly at fractional
        L, where the long coordinate lands strictly beyond L.
        """
        Y = np.asarray(Y, dtype=float)
        t = self.sign * (Y[:, self.i0] - self.center[self.i0])
        return ~self.region(Y) & (t >= self.L)


def rotation_onto_e1(ell) -> np.ndarray:
    """Rotation sending e_1 to ell, identity on the complement of their span.

    For ell = -e_1 the span is degenerate; the rotation by pi in the
    (e_1, e_2) plane is used.
    """
    ell = _check_unit(ell)
    d = len(ell)
    u = np.zeros(d)
    u[0] = 1.0
    c = float(ell[0])
    resid = ell - c * u
    s = float(np.linalg.norm(resid))
    if s < 1e-14:
        if c > 0:
            return np.eye(d)
        R = np.eye(d)
        if d < 2:
            raise ParameterError("cannot rotate e_1 onto -e_1 in dimension 1")
        R[0, 0] = R[1, 1] = -1.0
        return R
    w = resid / s
    R = (np.eye(d)
         + s * (np.outer(w, u) - np.outer(u, w))
         + (c - 1.0) * (np.outer(u, u) + np.outer(w, w)))
    return R

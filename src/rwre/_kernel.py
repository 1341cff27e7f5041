"""Compiled loop of the walk engines for the closed-form laws.

One C function runs the walk loop of ``walk._walk`` for ``UniformDrift``,
``Expl``, ``TrapSym`` and ``TrapTransient``, with one shared field or one
field per walker.  Each step fuses site keying, the site uniforms, the
law's transition vector, ``normalize_rows`` and the inverse-CDF choice;
the loop counts visits, evaluates a ``lattice.Bounds`` region and compacts
the stopped walkers in order, writing each one's status, final site, exit
step and visit count.  A region with no forms is the whole lattice, which
the fixed-length runs use.  The library is compiled with the system
``gcc`` on first use, cached under ``$XDG_CACHE_HOME/rwre`` (default
``~/.cache/rwre``, else the temporary directory) in a file named after the
source's SHA-256, and loaded with ``ctypes``.  Without a compiler, or when
the build or load fails, a warning is issued once and the engines step
with numpy.

The step sequences equal those of ``walk._step_batch`` by construction.
Integer hashing and the uniforms are exact; the transition vectors are
evaluated in numpy's order with its scalar-power fast paths, so they can
differ from numpy's only through ``pow`` and the row sum, by a few ulps.
A step is handed back to numpy whenever such a difference could matter:
when a walk uniform lies within ``GUARD_MARGIN`` of one of its row's
cumulative sums, or a row is near or beyond what ``normalize_rows``
rejects.  The kernel then moves no walker at that step.

A walk in a trap keeps returning to the few sites it has just left, so
the kernel keeps their rows: a direct-mapped table of (site, cumulative
row) entries, indexed by a hash of the site, in slots of
``TABLE_PER_WALKER`` entries per seed of a per-walker field or one slot of
``TABLE_SHARED`` for a shared field.  A site found there skips keying,
the uniforms, ``pow`` and the normalization; any other row is derived and
then stored, but only when it passed both hand-back checks above, so a
row that goes to numpy goes every time.  The walk uniform and its
``GUARD_MARGIN`` test still run on every step, on the stored doubles,
which are the ones the derivation computes: the steps stay identical.
Above ``TABLE_CAP`` entries in all (7.3 MB for walks on Z^2), the
entries per slot are halved, and a field with more seeds than that runs
without a table.  ``UniformDrift``, whose row is the same at every site,
has none.  The table belongs to one engine call; nothing carries over
between calls.

Region decisions equal ``Bounds.__call__``'s the same way.  A form (column
of ``A``) with integer coefficients is evaluated exactly; a float form's
value can differ from numpy's by a few ulps, so a walker whose value lies
within ``REGION_MARGIN`` (relative to the size of its terms) of a bound
hands the whole step's region evaluation back to numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile
import warnings

import numpy as np

from .environment import (PROB_SUM_TOL, Expl, TrapSym, TrapTransient,
                          UniformDrift)
from .lattice import Bounds

# Cumulative sums differ from numpy's by a few ulps (~1e-15); a walk uniform
# this much farther away is decided alike by both, and a nearer one falls
# on about 2^-37 of row-steps.
GUARD_MARGIN = 2.0 ** -40
# A float form's value of x @ A differs from numpy's by at most 2d ulps of
# sum |x_i A_i|; one this much farther (relative to that sum) from a bound
# is placed alike by both.
REGION_MARGIN = 2.0 ** -40
MAX_DIRS = 64
# Entries of the site-row table per slot: a per-walker field has one slot
# per seed, a shared field one slot.  Above TABLE_CAP entries in all, the
# entries per slot are halved; below one, the run has no table.
TABLE_PER_WALKER = 64
TABLE_SHARED = 2 ** 14
TABLE_CAP = 2 ** 17
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

SOURCE = f"#define MAX_DIRS {MAX_DIRS}\n" + r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL

enum { UNIFORM_DRIFT = 0, EXPL = 1, TRAP_SYM = 2, TRAP_TRANSIENT = 3 };

/* one word of the site-row table: a flag, a coordinate or a cumulative sum */
typedef union {
    int64_t i;
    double v;
} word_t;

typedef struct {
    int32_t law, d, dim, nvars;
    double param;          /* Expl: eps; trap laws: the exponent of U_0 */
    double sum_tol;        /* normalize_rows' bound on |sum - 1| */
    double cum[MAX_DIRS];  /* UniformDrift: numpy's cumulative row */
    const uint64_t *base;  /* base keys: one shared, or one per walker */
    int64_t nbase;
    int32_t per_walker;
    int32_t bits;          /* log2 of the table's entries per slot */
    word_t *table;         /* site-row table (see row()), or NULL */
} field_t;

static inline uint64_t mix64(uint64_t z)
{
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline uint64_t fold(uint64_t h, uint64_t w)
{
    return mix64((h ^ w) + GOLDEN);
}

static inline double uniform(uint64_t key, int64_t index)
{
    uint64_t v = mix64(key + ((uint64_t)index + 1) * GOLDEN);
    return (double)((v >> 11) + 1) * 0x1p-53;
}

/* numpy's array ** scalar: these exponents bypass pow */
static inline double power(double u, double e)
{
    if (e == 2.0) return u * u;
    if (e == 0.5) return sqrt(u);
    if (e == 1.0) return u;
    if (e == -1.0) return 1.0 / u;
    return pow(u, e);
}

static inline int max1(int a)
{
    return a > 1 ? a : 1;
}

/* Unnormalized transition vector of one site, evaluated in numpy's order.
   Returns 0 when an entry obtained by a subtraction lies within margin of
   zero, where numpy's sign check could decide otherwise. */
static int pvec(const field_t *f, const double *U, double *p, double margin)
{
    int d = f->d;
    int j;
    switch (f->law) {
    case EXPL: {
        double T = (double)(2 * d + 1) * power(U[0], -6.0 * d);
        double invT = 1.0 / T;
        int i0 = (int)(U[1] * 2.0 * (double)d);
        int pos_has;
        double po, ne;
        if (i0 > 2 * d - 1) i0 = 2 * d - 1;
        pos_has = i0 < d;
        po = (1.0 - f->param - (pos_has ? invT : 0.0)) / (double)max1(d - pos_has);
        ne = (f->param - (pos_has ? 0.0 : invT)) / (double)max1(d - !pos_has);
        for (j = 0; j < d; j++) {
            p[j] = po;
            p[d + j] = ne;
        }
        p[i0] = invT;
        for (j = 0; j < 2 * d; j++)
            if (j != i0 && p[j] < margin) return 0;
        return 1;
    }
    case TRAP_SYM: {
        double T = 0.5 * power(U[0], f->param);
        double hard = T / (double)d, easy = (1.0 - T) / (double)d;
        for (j = 0; j < d; j++) {
            int plus = U[1 + j] <= 0.5;
            p[j] = plus ? hard : easy;
            p[d + j] = plus ? easy : hard;
        }
        return 1;
    }
    default: { /* TRAP_TRANSIENT on Z^{d+1} */
        int D = d + 1;
        double T = 0.5 * power(U[0], f->param);
        double C = (double)d + 3.0 * T;
        double hard = T / C, easy = (1.0 - T) / C;
        for (j = 0; j < d; j++) {
            int plus = U[1 + j] <= 0.5;
            p[j] = plus ? hard : easy;
            p[D + j] = plus ? easy : hard;
        }
        p[d] = 2.0 * T / C;
        p[D + d] = T / C;
        return 1;
    }
    }
}

/* Cumulative row of site x for the base key of slot (the walker's seed,
   or 0 for a shared field) into cum, or 0 when numpy must take the step.
   The table holds, per slot, 2^bits direct-mapped entries of {filled, x,
   cumulative row}, indexed by a hash of x.  Only rows that pass both
   checks below are stored, so a hit returns the very doubles the
   derivation would.  Kept out of line: inlined into choose(), it slows
   the UniformDrift loop, which never calls it, by 5 %. */
static __attribute__((noinline)) int row(const field_t *f, int64_t slot,
                                         const int64_t *x, double *cum,
                                         double margin)
{
    int dim = f->dim, K = 2 * dim, j;
    double p[MAX_DIRS], U[MAX_DIRS + 1];
    double s = 0.0, acc = 0.0;
    uint64_t h = f->base[slot];
    word_t *e = NULL;
    if (f->table) {
        int64_t at = slot << f->bits;
        if (f->bits) {
            uint64_t g = 0;
            for (j = 0; j < dim; j++)
                g = (g ^ (uint64_t)x[j]) * GOLDEN;
            at |= (int64_t)(g >> (64 - f->bits));
        }
        e = f->table + at * (1 + dim + K);
        if (e[0].i) {
            for (j = 0; j < dim && e[1 + j].i == x[j]; j++)
                ;
            if (j == dim) {
                for (j = 0; j < K; j++)
                    cum[j] = e[1 + dim + j].v;
                return 1;
            }
        }
    }
    for (j = 0; j < dim; j++)
        h = fold(h, (uint64_t)x[j]);
    for (j = 0; j < f->nvars; j++)
        U[j] = uniform(h, j);
    if (!pvec(f, U, p, margin)) return 0;
    for (j = 0; j < K; j++)
        s += p[j];
    /* these laws' rows sum to 1 within ulps: a row anywhere near
       normalize_rows' bound goes to numpy, which decides it */
    if (!(fabs(s - 1.0) <= 0.5 * f->sum_tol)) return 0;
    for (j = 0; j < K; j++) {
        acc = j ? acc + p[j] / s : p[j] / s;
        cum[j] = acc;
    }
    if (e) {
        e[0].i = 1;
        for (j = 0; j < dim; j++)
            e[1 + j].i = x[j];
        for (j = 0; j < K; j++)
            e[1 + dim + j].v = cum[j];
    }
    return 1;
}

/* Step index of a walker (seed slot) at site x with walk uniform u, or -1
   when numpy must take this step. */
static int choose(const field_t *f, int64_t slot, const int64_t *x, double u,
                  double margin)
{
    int K = 2 * f->dim;
    double cum[MAX_DIRS];
    const double *c = f->cum;
    int j, k = 0;
    if (f->law != UNIFORM_DRIFT) {
        if (!row(f, slot, x, cum, margin)) return -1;
        c = cum;
    }
    for (j = 0; j < K; j++) {
        if (fabs(u - c[j]) < margin) return -1;
        k += c[j] < u;
    }
    return k < K ? k : K - 1;
}

/* Choose one step for each of the rows walkers at step t into choice.
   Returns 1, 0 when numpy must take this step, or -1 for a walker index
   outside the field's base keys. */
static int choose_rows(const field_t *f, const int64_t *walkers,
                       const uint64_t *keys, int64_t rows, const int64_t *pos,
                       int64_t t, uint8_t *choice, double margin)
{
    int64_t i;
    for (i = 0; i < rows; i++) {
        int64_t slot = 0;
        int c;
        if (f->per_walker) {
            if (walkers[i] < 0 || walkers[i] >= f->nbase) return -1;
            slot = walkers[i];
        }
        c = choose(f, slot, pos + i * f->dim, uniform(keys[i], t), margin);
        if (c < 0) return 0;
        choice[i] = (uint8_t)c;
    }
    return 1;
}

static void move_rows(int dim, int64_t rows, int64_t *pos, const uint8_t *choice)
{
    int64_t i;
    for (i = 0; i < rows; i++) {
        int c = choice[i];
        pos[i * dim + c % dim] += c < dim ? 1 : -1;
    }
}

/* A stopping region lo < x.a_j < hi (<= where closed) for its m forms a_j
   (none: the whole lattice), and the outputs of the walk that runs in it,
   indexed by walker. */
typedef struct {
    int32_t m, lo_closed, hi_closed, exited;
    const double *forms;    /* m rows of dim coefficients */
    const double *lo, *hi;
    const int32_t *exact;   /* 1 where a form's coefficients are integers */
    int64_t n;              /* walkers of the run */
    uint8_t *status;
    int64_t *final, *steps_taken;
    int64_t *visits;        /* NULL when visits are not counted */
    const int64_t *target;
} until_t;

/* 1 inside, 0 outside, or -1 when numpy must decide.  An integer form has
   coefficients of at most 2^20, so at sites with coordinates below 2^26 in
   at most 32 dimensions its value is an integer below 2^51, exact in both;
   a float form's dot product differs from numpy's by at most 2 dim ulps of
   sum |x_i a_i|, so a value farther than margin times that sum (plus one)
   from both bounds is decided alike by both. */
static int region(const until_t *r, int dim, const int64_t *x, double margin)
{
    int i, j, unsure = 0, small = 1;
    for (i = 0; i < dim; i++)
        small &= x[i] < (1 << 26) && x[i] > -(1 << 26);
    for (j = 0; j < r->m; j++) {
        const double *a = r->forms + j * dim;
        double v = 0.0, lo = r->lo[j], hi = r->hi[j];
        if (r->exact[j] && small) {
            for (i = 0; i < dim; i++)
                v += (double)x[i] * a[i];
        } else {
            double s = 0.0, tol;
            for (i = 0; i < dim; i++) {
                double p = (double)x[i] * a[i];
                v += p;
                s += fabs(p);
            }
            tol = margin * (1.0 + s);
            if (fabs(v - lo) < tol || fabs(v - hi) < tol) {
                unsure = 1;
                continue;
            }
        }
        if (r->lo_closed ? !(lo <= v) : !(lo < v)) return 0;
        if (r->hi_closed ? !(v <= hi) : !(v < hi)) return 0;
    }
    return unsure ? -1 : 1;
}

static void count_visits(const until_t *r, int dim, const int64_t *walkers,
                         int64_t rows, const int64_t *pos)
{
    int64_t i;
    int j;
    for (i = 0; i < rows; i++) {
        for (j = 0; j < dim && pos[i * dim + j] == r->target[j]; j++)
            ;
        if (j == dim) r->visits[walkers[i]]++;
    }
}

/* Run the rows live walkers (ids in walkers, keys and positions compacted
   alike) from state io = {t, rows, settled} until all have left the region,
   step horizon is reached or numpy must take over, writing each stopped
   walker's outputs and compacting the rest in order.  settled says whether
   the region has been evaluated at the positions of step t; a region with
   no forms is the whole lattice, which no walker leaves, so settling it
   only counts the start's visits.  Returns 0 with io holding the state
   reached: settled is 0 when numpy must evaluate the region at step t,
   else step t is numpy's if t < horizon and walkers are left.  Returns -1
   for a walker index out of range. */
int64_t rwre_until(const field_t *f, const until_t *r, int64_t *walkers,
                   uint64_t *keys, int64_t *pos, int64_t *io, int64_t horizon,
                   uint8_t *choice, double margin, double region_margin)
{
    int dim = f->dim;
    int64_t t = io[0], rows = io[1], settled = io[2], i;
    int code;
    for (i = 0; i < rows; i++)
        if (walkers[i] < 0 || walkers[i] >= r->n) return -1;
    for (;;) {
        if (!settled && r->m) {
            int64_t kept = 0;
            for (i = 0; i < rows; i++) {
                int in = region(r, dim, pos + i * dim, region_margin);
                if (in < 0) goto out;
                choice[i] = (uint8_t)in;
            }
            for (i = 0; i < rows; i++) {
                int64_t w = walkers[i], *x = pos + i * dim;
                int j;
                if (!choice[i]) {
                    r->status[w] = (uint8_t)r->exited;
                    for (j = 0; j < dim; j++)
                        r->final[w * dim + j] = x[j];
                    r->steps_taken[w] = t;
                    continue;
                }
                if (kept != i) {
                    walkers[kept] = w;
                    keys[kept] = keys[i];
                    for (j = 0; j < dim; j++)
                        pos[kept * dim + j] = x[j];
                }
                kept++;
            }
            rows = kept;
        }
        /* the start counts as a visit only inside the region */
        if (!settled && t == 0 && r->visits)
            count_visits(r, dim, walkers, rows, pos);
        settled = 1;
        if (rows == 0 || t >= horizon) goto out;
        code = choose_rows(f, walkers, keys, rows, pos, t, choice, margin);
        if (code < 0) return -1;
        if (code == 0) goto out;
        move_rows(dim, rows, pos, choice);
        t++;
        if (r->visits) count_visits(r, dim, walkers, rows, pos);
        settled = 0;
    }
out:
    io[0] = t;
    io[1] = rows;
    io[2] = settled;
    return 0;
}
"""

# law type -> (the kernel's law code, the law's parameter in the kernel)
_LAWS = {UniformDrift: (0, lambda law: 0.0),
         Expl: (1, lambda law: law.eps),
         TrapSym: (2, lambda law: 1.0 / law._texp),
         TrapTransient: (3, lambda law: float(1 << law.d))}


class _Field(ctypes.Structure):
    _fields_ = [("law", ctypes.c_int32), ("d", ctypes.c_int32),
                ("dim", ctypes.c_int32), ("nvars", ctypes.c_int32),
                ("param", ctypes.c_double), ("sum_tol", ctypes.c_double),
                ("cum", ctypes.c_double * MAX_DIRS),
                ("base", ctypes.c_void_p), ("nbase", ctypes.c_int64),
                ("per_walker", ctypes.c_int32), ("bits", ctypes.c_int32),
                ("table", ctypes.c_void_p)]


class Plan:
    """An environment's field in the kernel's layout, with what it points to."""

    def __init__(self, lib, env, code: int, param: float):
        self.lib = lib
        self.dim = env.dim
        self.base = np.array(env._base, dtype=np.uint64, ndmin=1)
        per_walker = np.ndim(env.master_seed) > 0
        self.field = _Field(law=code, d=env.law.d, dim=env.dim,
                            nvars=env.law.nvars, param=param,
                            sum_tol=PROB_SUM_TOL, base=self.base.ctypes.data,
                            nbase=len(self.base), per_walker=int(per_walker))
        # the site-row table: one word of flag, dim of site and 2 dim of
        # cumulative row per entry, zero (empty) until the kernel fills it
        self.table = None
        if code == 0:
            P = env.transitions_batch(np.zeros((1, env.dim), dtype=np.int64))
            self.field.cum[:2 * env.dim] = np.cumsum(P, axis=1)[0].tolist()
        else:
            slots = len(self.base) if per_walker else 1
            per_slot = TABLE_PER_WALKER if per_walker else TABLE_SHARED
            while per_slot and slots * per_slot > TABLE_CAP:
                per_slot //= 2
            if per_slot:
                bits = per_slot.bit_length() - 1
                self.table = np.zeros((slots << bits, 1 + 3 * env.dim),
                                      dtype=np.int64)
                self.field.bits = bits
                self.field.table = self.table.ctypes.data
        self.address = ctypes.addressof(self.field)


def plan(env) -> Plan | None:
    """The kernel's view of ``env``, or None when numpy must step it."""
    entry = _LAWS.get(type(env.law))
    if entry is None or 2 * env.dim > MAX_DIRS:
        return None
    lib = _library()
    if lib is None:
        return None
    code, param = entry
    return Plan(lib, env, code, param(env.law))


def _check(a: np.ndarray, dtype, shape, name: str) -> None:
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} "
                         f"array of shape {shape}")


class _Until(ctypes.Structure):
    _fields_ = [("m", ctypes.c_int32), ("lo_closed", ctypes.c_int32),
                ("hi_closed", ctypes.c_int32), ("exited", ctypes.c_int32),
                ("forms", ctypes.c_void_p), ("lo", ctypes.c_void_p),
                ("hi", ctypes.c_void_p), ("exact", ctypes.c_void_p),
                ("n", ctypes.c_int64), ("status", ctypes.c_void_p),
                ("final", ctypes.c_void_p), ("steps_taken", ctypes.c_void_p),
                ("visits", ctypes.c_void_p), ("target", ctypes.c_void_p)]


class Until:
    """The compiled loop of one walk run: its field, its region (a
    ``lattice.Bounds`` of the walks' dimension, or None for the whole
    lattice) and the outputs it writes, per walker."""

    def __init__(self, plan: Plan, region: Bounds | None, exited: int,
                 status: np.ndarray, final: np.ndarray, steps_taken: np.ndarray,
                 visits: np.ndarray | None, target: np.ndarray | None):
        n, dim = len(status), plan.dim
        if region is None:
            region = Bounds(np.zeros((dim, 0)), np.zeros(0), np.zeros(0),
                            False, False)
        _check(status, np.uint8, (n,), "status")
        _check(final, np.int64, (n, dim), "final")
        _check(steps_taken, np.int64, (n,), "steps_taken")
        if visits is not None:
            _check(visits, np.int64, (n,), "visits")
            _check(target, np.int64, (dim,), "target")
        self.plan = plan
        self.forms = np.ascontiguousarray(region.A.reshape(len(region.A), -1).T)
        self.lo = np.ascontiguousarray(region.lo.reshape(-1))
        self.hi = np.ascontiguousarray(region.hi.reshape(-1))
        _check(self.forms, np.float64, (len(self.lo), dim), "region forms")
        self.exact = np.array([np.all(f == np.round(f))
                               and np.all(np.abs(f) <= 2 ** 20) for f in self.forms],
                              dtype=np.int32)
        # the struct points into these arrays: keep them alive with it
        self.outputs = (status, final, steps_taken, visits, target)
        self.io = np.zeros(3, dtype=np.int64)
        ptr = (lambda a: None if a is None else a.ctypes.data)
        self.region = _Until(m=len(self.forms), lo_closed=int(region.lo_closed),
                             hi_closed=int(region.hi_closed), exited=exited,
                             forms=ptr(self.forms), lo=ptr(self.lo), hi=ptr(self.hi),
                             exact=ptr(self.exact), n=n, status=ptr(status),
                             final=ptr(final), steps_taken=ptr(steps_taken),
                             visits=ptr(visits), target=ptr(target))

    def __call__(self, pos: np.ndarray, keys: np.ndarray, walkers: np.ndarray,
                 t: int, settled: bool, horizon: int) -> tuple[int, int, bool]:
        """Run the live rows from step ``t`` as far as the kernel can.

        ``pos``, ``keys`` and the walker ids ``walkers`` are compacted in
        place; ``settled`` says whether the region has already been
        evaluated at step ``t``.  Returns the live rows left, the step
        reached and whether the region is settled there.  Unless every
        walker has stopped or step ``horizon`` is reached, numpy must take
        over there: evaluate the region if it is not settled, else take
        the step.
        """
        rows = len(pos)
        _check(pos, np.int64, (rows, self.plan.dim), "pos")
        _check(keys, np.uint64, (rows,), "keys")
        _check(walkers, np.int64, (rows,), "walkers")
        self.io[:] = (t, rows, settled)
        choice = np.empty(rows, dtype=np.uint8)
        code = self.plan.lib.rwre_until(
            self.plan.address, ctypes.addressof(self.region), walkers.ctypes.data,
            keys.ctypes.data, pos.ctypes.data, self.io.ctypes.data, horizon,
            choice.ctypes.data, GUARD_MARGIN, REGION_MARGIN)
        if code < 0:
            raise IndexError("walker index outside the run or the environment's seeds")
        t, rows, settled = self.io.tolist()
        return rows, t, bool(settled)


_LIB = None      # the loaded kernel; False once building or loading failed


def _library():
    global _LIB
    if _LIB is None:
        try:
            _LIB = _load(_cached_build())
        except OSError as exc:
            warnings.warn(f"rwre: compiled step kernel unavailable ({exc}); "
                          "walks step with numpy", RuntimeWarning, stacklevel=4)
            _LIB = False
    return _LIB or None


def _compiler() -> str | None:
    return shutil.which("gcc")


def _cache_dir() -> pathlib.Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    for path in (pathlib.Path(root) / "rwre",
                 pathlib.Path(tempfile.gettempdir()) / "rwre"):
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        if os.access(path, os.W_OK):
            return path
    raise OSError("no writable cache directory")


def _cached_build() -> pathlib.Path:
    tag = hashlib.sha256((SOURCE + " ".join(CFLAGS)).encode()).hexdigest()
    path = _cache_dir() / f"kernel-{tag}.so"
    if not path.exists():
        build(path)
    return path


def build(path, flags=CFLAGS) -> pathlib.Path:
    """Compile ``SOURCE`` into the shared library ``path``.

    The library is built in a temporary directory beside ``path`` and
    moved into place, so processes building at once do not collide.
    """
    cc = _compiler()
    if cc is None:
        raise FileNotFoundError("no gcc on PATH")
    path = pathlib.Path(path)
    with tempfile.TemporaryDirectory(dir=path.parent, prefix=".build-") as tmp:
        src = os.path.join(tmp, "kernel.c")
        out = os.path.join(tmp, "kernel.so")
        with open(src, "w", encoding="utf-8") as f:
            f.write(SOURCE)
        try:
            subprocess.run([cc, *flags, "-o", out, src, "-lm"], check=True,
                           capture_output=True, text=True)
        except subprocess.CalledProcessError as exc:
            raise OSError(f"{cc} failed: {exc.stderr.strip()[-500:]}") from exc
        os.replace(out, path)
    return path


def _load(path):
    lib = ctypes.CDLL(str(path))
    ptr, i64, dbl = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.rwre_until.argtypes = [ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr, dbl, dbl]
    lib.rwre_until.restype = i64
    return lib

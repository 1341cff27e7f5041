"""Compiled loop of the walk engines for the closed-form laws.

One C function runs the walk loop of ``walk._walk`` for ``UniformDrift``,
``Expl``, ``TrapSym`` and ``TrapTransient``, with one shared field or one
field per walker.  Each step fuses site keying, the site uniforms, the
law's transition vector, ``normalize_rows`` and the inverse-CDF choice;
the loop counts visits, evaluates a ``lattice.Bounds`` region and compacts
the stopped walkers in order, writing each one's status, final site, exit
step and visit count.  A region with no forms is the whole lattice, which
the fixed-length runs use.  The loop is written once, with the lattice
dimension as a parameter of always-inline functions, and ``rwre_until``
runs it through an instance for dimension 2, where every walk of the
criteria and the benchmark runs and the compiler unrolls every loop over
the dimension, and one generic instance for every other dimension; the
instances make the same float operations in the same order, so they take
the same steps.  The library is compiled with the system
``gcc`` on first use, cached under ``$XDG_CACHE_HOME/rwre`` (default
``~/.cache/rwre``, else the temporary directory) in a file named after the
source's SHA-256, and loaded with ``ctypes``.  Without a compiler, or when
the build or load fails, a warning is issued once and the engines step
with numpy.

A field's compiled state is the C struct ``field_t``: the law, the base
keys, the step hand-back margin and the site-row table (below).  The
``Environment`` keeps it, as a :class:`Field`, from its first run on, so
every later run on the same field starts from the rows the earlier ones
stored.  As an ``Environment`` and its law are frozen, it is built once,
under the ``GUARD_MARGIN`` and ``TABLE_*`` values of that first run.  A
run's state is the C struct ``run_t``: the field it reads, the region's
forms, the walkers' output arrays, their rows (ids, keys and sites) and
the loop state (step and live rows).  :func:`loop` builds it as a
:class:`Loop`, which holds its ctypes mirror and the arrays it points to,
or returns None when numpy must step the environment.  ``rwre_until`` takes the run
and the step to stop at; between calls, numpy steps the rows that
:meth:`Loop.rows` hands it, in place.  Each call, like each pass of
``walk._walk``, starts by evaluating the region where it starts.

A run copies nothing up front in Python: the first call fills the rows'
ids and keys from the caller's keys, which it only reads.  Walkers that
share one start are settled once, at that call: one region test and one
visit test for all of them, after which the start is written into every
row.  Stopped rows are compacted away in order in the pass that
evaluates the region, so every return, a hand-back included, leaves
numpy only live rows.  Where walkers stop at random, often (a cube left
within a few steps), a mispredicted branch per row costs more than the
pass, so that pass, the only one, takes no branch on a row's site, in
blocks of ``SETTLE_BLOCK`` rows (in the C source), and the visit count
adds 0 or 1 per row.  Rows before a pass's first stop stay where they
are, which is most of the pass where walkers stop rarely (a slab's
levels).

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
row that goes to numpy goes every time.  Which rows miss is random: 18 %
of the 3.2 M lookups of the benchmark's ``annealed_trap`` pass and 13.8 %
of c2's 2 * 10^8, where a mispredicted branch on hit or miss costs more
than the lookup.  So a step takes its rows in blocks of ``SETTLE_BLOCK``
(in the C source; fewer above dimension 2, so that a block's rows fit
its buffer) and makes three passes over each: it looks every row up and
copies its entry's row into the block's buffer, listing the row as
missed without a branch; it derives the missed rows, each unless an
earlier miss of the block has just stored its site; then it draws every
row's walk uniform, applies the ``GUARD_MARGIN`` test and chooses the
step from the buffer, which a later miss's store cannot change.  The
test runs on every step, on the stored doubles, which are the ones the
derivation computes: the steps stay identical.  A step handed back to
numpy may already have stored some of its rows, which is harmless, as
each is the derived row.  Above ``TABLE_CAP`` entries in all (7.3 MB for
walks on Z^2), the entries per slot are halved, and a field with more
seeds than that runs without a table.  ``UniformDrift``, whose row is the
same at every site, has none and chooses each step from it.  A row
depends only on the field and the site, so a table outlives the run that
filled it: the field keeps it for every later run.

Region decisions equal ``Bounds.__call__``'s exactly: each form's value
is the left-to-right sum of ``lattice._dot``, which the C loop computes in
the same order with no fused multiply-add (``-ffp-contract=off``), so the
kernel decides every region itself.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile
import threading
import warnings

import numpy as np

from .environment import (PROB_SUM_TOL, Expl, TrapSym, TrapTransient,
                          UniformDrift)
from .lattice import Bounds

# Cumulative sums differ from numpy's by a few ulps (~1e-15); a walk uniform
# this much farther away is decided alike by both, and a nearer one falls
# on about 2^-37 of row-steps.
GUARD_MARGIN = 2.0 ** -40
MAX_DIRS = 64
# Entries of the site-row table per slot: a per-walker field has one slot
# per seed, a shared field one slot.  Above TABLE_CAP entries in all, the
# entries per slot are halved; below one, the run has no table.
TABLE_PER_WALKER = 64
TABLE_SHARED = 2 ** 14
TABLE_CAP = 2 ** 17
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

SOURCE = f"#define MAX_DIRS {MAX_DIRS}\n#define SUM_TOL {PROB_SUM_TOL!r}\n" + r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define SETTLE_BLOCK 256    /* rows per block of a region pass without branches */

enum { UNIFORM_DRIFT = 0, EXPL = 1, TRAP = 2 };

/* one word of the site-row table: a flag, a coordinate or a cumulative sum */
typedef union {
    int64_t i;
    double v;
} word_t;

/* A field, kept across runs: the law, its base keys (one shared, or one
   per walker), the step hand-back margin and the site-row table, whose
   rows that margin decides. */
typedef struct {
    int32_t law, d, dim, nvars;
    double param;          /* Expl: eps; trap laws: the exponent of U_0 */
    double margin;
    double cum[MAX_DIRS];  /* UniformDrift: numpy's cumulative row */
    const uint64_t *base;
    int64_t nbase;
    int32_t per_walker;
    int32_t bits;          /* log2 of the table's entries per slot */
    word_t *table;         /* site-row table (see entry()), or NULL */
} field_t;

/* The state of one compiled walk run on a field.  Its stopping region
   lo < x.a_j < hi (<= where closed) for its m forms a_j (none: the whole
   lattice).  The outputs of its n walkers, indexed by walker.  Its rows:
   their walker ids, keys and sites (walkers, row_keys, pos), which the
   first call fills from the caller's keys (read only) and the shared
   start, if any.  The loop state {t, rows} that rwre_until resumes
   from. */
typedef struct {
    const field_t *field;
    int32_t m, lo_closed, hi_closed, exited;
    const double *forms;    /* dim rows of m coefficients: x.a_j sums column j */
    const double *lo, *hi;
    int64_t n;              /* walkers of the run */
    uint8_t *status;
    int64_t *final, *steps_taken;
    int64_t *visits;        /* NULL when visits are not counted */
    const int64_t *target;
    const int64_t *start;   /* the walkers' shared start, or NULL */
    const uint64_t *keys;   /* n walk keys */
    int64_t *walkers;       /* n: the rows' walker ids */
    uint64_t *row_keys;     /* n: the rows' keys */
    int64_t *pos;           /* n x dim: the rows' sites */
    uint8_t *choice;        /* n: each row's step */
    int64_t t, rows;
} run_t;

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
    if (e == 1.0) return u;
    return pow(u, e);
}

/* The functions below that take dim are written once for every lattice
   dimension and inlined into each caller, so that rwre_until's instance
   for dim 2 sees dim as a constant and unrolls every loop over it.
   The instances make the same float operations in the same order. */
#define INLINE static inline __attribute__((always_inline))

/* Unnormalized transition vector over 2 dim directions of one site,
   evaluated in numpy's order.  Returns 0 when an entry obtained by a
   subtraction lies within margin of zero, where numpy's sign check could
   decide otherwise. */
INLINE int pvec(const field_t *f, int dim, const double *U, double *p, double margin)
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
        po = (1.0 - f->param - (pos_has ? invT : 0.0)) / (double)(d - pos_has);
        ne = (f->param - (pos_has ? 0.0 : invT)) / (double)(d - !pos_has);
        for (j = 0; j < d; j++) {
            p[j] = po;
            p[d + j] = ne;
        }
        p[i0] = invT;
        for (j = 0; j < 2 * d; j++)
            if (j != i0 && p[j] < margin) return 0;
        return 1;
    }
    default: { /* TRAP: TrapSym, or TrapTransient on Z^{d+1} when dim > d */
        double T = 0.5 * power(U[0], f->param);
        double C = dim > d ? (double)d + 3.0 * T : (double)d;
        double hard = T / C, easy = (1.0 - T) / C;
        for (j = 0; j < d; j++) {
            int plus = U[1 + j] <= 0.5;
            p[j] = plus ? hard : easy;
            p[dim + j] = plus ? easy : hard;
        }
        if (dim > d) {
            p[d] = 2.0 * T / C;
            p[dim + d] = hard;
        }
        return 1;
    }
    }
}

/* The site-row table entry of site x for slot (the walker's seed, or 0
   for a shared field), or NULL without a table.  The table holds, per
   slot, 2^bits direct-mapped entries of {filled, x, cumulative row},
   indexed by a hash of x. */
INLINE word_t *entry(const field_t *f, int dim, int64_t slot, const int64_t *x)
{
    int64_t at = slot << f->bits;
    int j;
    if (!f->table) return NULL;
    if (f->bits) {
        uint64_t g = 0;
        for (j = 0; j < dim; j++)
            g = (g ^ (uint64_t)x[j]) * GOLDEN;
        at |= (int64_t)(g >> (64 - f->bits));
    }
    return f->table + at * (1 + 3 * dim);
}

/* 1 if entry e holds the row of site x, else 0, without a branch */
INLINE int holds(const word_t *e, int dim, const int64_t *x)
{
    int j, same = e[0].i != 0;
    for (j = 0; j < dim; j++)
        same &= e[1 + j].i == x[j];
    return same;
}

/* Derive the cumulative row of site x for slot into cum and store it in
   entry e (NULL: none), or return 0 when numpy must take the step.  Only
   rows that pass both checks below are stored, so an entry holds the very
   doubles the derivation computes. */
INLINE int derive(const field_t *f, int dim, int64_t slot, const int64_t *x,
                  word_t *e, double *cum, double margin)
{
    int K = 2 * dim, j;
    double p[MAX_DIRS], U[MAX_DIRS + 1];
    double s = 0.0, acc = 0.0;
    uint64_t h = f->base[slot];
    for (j = 0; j < dim; j++)
        h = fold(h, (uint64_t)x[j]);
    for (j = 0; j < f->nvars; j++)
        U[j] = uniform(h, j);
    if (!pvec(f, dim, U, p, margin)) return 0;
    for (j = 0; j < K; j++)
        s += p[j];
    /* these laws' rows sum to 1 within ulps: a row anywhere near
       normalize_rows' bound goes to numpy, which decides it */
    if (!(fabs(s - 1.0) <= 0.5 * SUM_TOL)) return 0;
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

/* Step index for walk uniform u on the K cumulative sums c, or -1 when u
   lies within margin of one of them and numpy must take this step. */
INLINE int pick(const double *c, int K, double u, double margin)
{
    int j, k = 0;
    for (j = 0; j < K; j++) {
        if (fabs(u - c[j]) < margin) return -1;
        k += c[j] < u;
    }
    return k < K ? k : K - 1;
}

/* Choose one step for each of the rows at step t into choice.  Returns
   1, or 0 when numpy must take this step.  UniformDrift's row is f->cum.
   The other laws' rows miss the table at random (about one in five on
   c2's walks), where a mispredicted branch per row would cost more than
   the lookup, so they go in blocks of SETTLE_BLOCK rows (fewer where a
   row has more than 4 sums, so that cums holds a block at any dim), in
   three passes: look every row up, copying its entry's row into cums and
   listing the row as missed unless the entry holds its site, without a
   branch on which; derive each missed row, unless an earlier miss of the
   block has just stored its site; then choose every row's step from
   cums, which a later miss's store cannot change. */
INLINE int choose_rows(const field_t *f, int dim, const int64_t *walkers,
                       const uint64_t *keys, int64_t rows, const int64_t *pos,
                       int64_t t, uint8_t *choice, double margin)
{
    int K = 2 * dim, j, g, missed[SETTLE_BLOCK];
    int64_t block = K <= 4 ? SETTLE_BLOCK : SETTLE_BLOCK * 4 / K, b, i;
    double cums[SETTLE_BLOCK * 4];
    if (f->law == UNIFORM_DRIFT) {
        for (i = 0; i < rows; i++) {
            int c = pick(f->cum, K, uniform(keys[i], t), margin);
            if (c < 0) return 0;
            choice[i] = (uint8_t)c;
        }
        return 1;
    }
    for (b = 0; b < rows; b += block) {
        int n = (int)(rows - b < block ? rows - b : block);
        for (i = g = 0; i < n; i++) {           /* look up */
            const int64_t *x = pos + (b + i) * dim;
            const word_t *e = entry(f, dim, f->per_walker ? walkers[b + i] : 0, x);
            int hit = 0;
            if (e) {
                hit = holds(e, dim, x);
                for (j = 0; j < K; j++)
                    cums[i * K + j] = e[1 + dim + j].v;
            }
            missed[g] = (int)i;
            g += !hit;
        }
        for (j = 0; j < g; j++) {               /* derive */
            int64_t row = b + missed[j], slot = f->per_walker ? walkers[row] : 0;
            const int64_t *x = pos + row * dim;
            word_t *e = entry(f, dim, slot, x);
            double *cum = cums + missed[j] * K;
            int k;
            if (e && holds(e, dim, x)) {
                for (k = 0; k < K; k++)
                    cum[k] = e[1 + dim + k].v;
            } else if (!derive(f, dim, slot, x, e, cum, margin)) {
                return 0;
            }
        }
        for (i = 0; i < n; i++) {               /* choose */
            int c = pick(cums + i * K, K, uniform(keys[b + i], t), margin);
            if (c < 0) return 0;
            choice[b + i] = (uint8_t)c;
        }
    }
    return 1;
}

INLINE void move_rows(int dim, int64_t rows, int64_t *pos, const uint8_t *choice)
{
    int64_t i;
    for (i = 0; i < rows; i++) {
        int c = choice[i];
        pos[i * dim + c % dim] += c < dim ? 1 : -1;
    }
}

/* 1 inside, 0 outside, without a branch on x.  Each form's value is
   summed left to right, as lattice._dot sums it. */
INLINE int region(const run_t *r, int dim, const int64_t *x)
{
    int i, j, in = 1;
    for (j = 0; j < r->m; j++) {
        double v = 0.0, lo = r->lo[j], hi = r->hi[j];
        for (i = 0; i < dim; i++)
            v += (double)x[i] * r->forms[i * r->m + j];
        in &= (r->lo_closed ? lo <= v : lo < v) & (r->hi_closed ? v <= hi : v < hi);
    }
    return in;
}

INLINE int at_target(const run_t *r, int dim, const int64_t *x)
{
    int j, at = 1;
    for (j = 0; j < dim; j++)
        at &= x[j] == r->target[j];
    return at;
}

/* Visits fall at random in a walk that leaves within a few steps, where a
   mispredicted branch per row would cost more than the rest of the pass:
   each row adds 0 or 1. */
INLINE void count_visits(const run_t *r, int dim, int64_t rows)
{
    int64_t i;
    for (i = 0; i < rows; i++)
        r->visits[r->walkers[i]] += at_target(r, dim, r->pos + i * dim);
}

/* Write the outputs of walker w, stopped at site x at step t. */
INLINE void stop(const run_t *r, int dim, int64_t w, const int64_t *x, int64_t t)
{
    int j;
    r->status[w] = (uint8_t)r->exited;
    for (j = 0; j < dim; j++)
        r->final[w * dim + j] = x[j];
    r->steps_taken[w] = t;
}

INLINE void move_row(run_t *r, int dim, int64_t to, int64_t from)
{
    int j;
    r->walkers[to] = r->walkers[from];
    r->row_keys[to] = r->row_keys[from];
    for (j = 0; j < dim; j++)
        r->pos[to * dim + j] = r->pos[from * dim + j];
}

/* Stop the rows outside the region at step t and compact the others in
   order; returns the rows kept.  Rows stop at random where a cube is left
   within a few steps, and a mispredicted branch per row would cost more
   than the pass, so the pass takes no branch on a row's region: the rows
   are tested in blocks, each listing its stopped rows and flagging the
   others, then writing the stopped rows' outputs and moving the others
   down.  Rows before the pass's first stop stay where they are, so a
   pass moves only the rows after it: where rows stop rarely (a slab's
   levels), most passes move none, and the others part of the rows. */
INLINE int64_t settle_blocks(run_t *r, int dim, int64_t rows, int64_t t)
{
    int64_t b, i, kept = 0, stopped[SETTLE_BLOCK];
    uint8_t in[SETTLE_BLOCK];
    for (b = 0; b < rows; b += SETTLE_BLOCK) {
        int64_t end = rows - b < SETTLE_BLOCK ? rows : b + SETTLE_BLOCK, g = 0;
        for (i = b; i < end; i++) {
            int ok = region(r, dim, r->pos + i * dim);
            in[i - b] = (uint8_t)ok;
            stopped[g] = i;
            g += !ok;
        }
        if (!g && kept == b) {
            kept = end;
            continue;
        }
        for (i = 0; i < g; i++)
            stop(r, dim, r->walkers[stopped[i]], r->pos + stopped[i] * dim, t);
        i = b;
        if (kept == b)          /* no row stopped before this block */
            kept = i = stopped[0];
        for (; i < end; i++) {
            move_row(r, dim, kept, i);
            kept += in[i - b];
        }
    }
    return kept;
}

/* The loop of rwre_until for walks of dimension dim. */
INLINE int64_t until(run_t *r, int dim, int64_t horizon)
{
    const field_t *f = r->field;
    int64_t t = r->t, rows = r->rows, i;
    int64_t *pos = r->pos;
    int first = t == 0;
    if (rows > r->n || (f->per_walker && r->n > f->nbase)) return -1;
    if (first) {
        for (i = 0; i < rows; i++) {
            r->walkers[i] = i;
            r->row_keys[i] = r->keys[i];
        }
    }
    /* a shared start is settled once for all the walkers: one region test
       and one visit test, then its site is written into every row */
    if (first && r->start) {
        const int64_t *x = r->start;
        int j;
        if (r->m && !region(r, dim, x)) {
            for (i = 0; i < rows; i++)
                stop(r, dim, i, x, 0);
            rows = 0;
        }
        for (i = 0; i < rows; i++)
            for (j = 0; j < dim; j++)
                pos[i * dim + j] = x[j];
        if (r->visits && at_target(r, dim, x))
            for (i = 0; i < rows; i++)
                r->visits[i]++;
    } else {
        if (r->m)
            rows = settle_blocks(r, dim, rows, t);
        /* the start counts as a visit only inside the region */
        if (first && r->visits)
            count_visits(r, dim, rows);
    }
    while (rows && t < horizon) {
        if (!choose_rows(f, dim, r->walkers, r->row_keys, rows, pos, t, r->choice,
                         f->margin))
            break;
        move_rows(dim, rows, pos, r->choice);
        t++;
        if (r->visits)
            count_visits(r, dim, rows);
        if (r->m)
            rows = settle_blocks(r, dim, rows, t);
    }
    r->t = t;
    r->rows = rows;
    return 0;
}

/* Run the run's live rows from its state {t, rows} until all have left
   the region, step horizon is reached or numpy must take a step, writing
   each stopped walker's outputs and compacting the rest in order.  Every
   call, the first included, evaluates the region at step t (none for no
   forms), and the one at t = 0, which is the first, fills the rows,
   counts the start's visits and settles a shared start once.  Returns 0 with the state
   reached: step t is numpy's if t < horizon and walkers are left.
   Returns -1 for more rows than walkers of the run, or more walkers than
   the base keys of a per-walker field.  Dim 2 runs its own instance of
   the loop. */
int64_t rwre_until(run_t *r, int64_t horizon)
{
    if (r->field->dim == 2)
        return until(r, 2, horizon);
    return until(r, r->field->dim, horizon);
}
"""

# law type -> (the kernel's law code, the law's parameter in the kernel)
_LAWS = {UniformDrift: (0, lambda law: 0.0),
         Expl: (1, lambda law: law.eps),
         TrapSym: (2, lambda law: 1.0 / law._texp),
         TrapTransient: (2, lambda law: float(1 << law.d))}


# field_t's and run_t's fields in order, as (ctypes type, names)
_FIELD_FIELDS = [(ctypes.c_int32, "law d dim nvars"),
                 (ctypes.c_double, "param margin"),
                 (ctypes.c_double * MAX_DIRS, "cum"), (ctypes.c_void_p, "base"),
                 (ctypes.c_int64, "nbase"), (ctypes.c_int32, "per_walker bits"),
                 (ctypes.c_void_p, "table")]
_RUN_FIELDS = [(ctypes.c_void_p, "field"),
               (ctypes.c_int32, "m lo_closed hi_closed exited"),
               (ctypes.c_void_p, "forms lo hi"), (ctypes.c_int64, "n"),
               (ctypes.c_void_p, "status final steps_taken visits target start keys "
                                 "walkers row_keys pos choice"),
               (ctypes.c_int64, "t rows")]


class _Field(ctypes.Structure):
    _fields_ = [(name, ctype) for ctype, names in _FIELD_FIELDS for name in names.split()]


class _Run(ctypes.Structure):
    _fields_ = [(name, ctype) for ctype, names in _RUN_FIELDS for name in names.split()]


def _check(a: np.ndarray, dtype, shape, name: str) -> None:
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} "
                         f"array of shape {shape}")


def _address(a: np.ndarray | None) -> int | None:
    """The address of ``a``'s data, or None for None: ``a.ctypes.data``,
    which costs about 1.3 us a call, in about 0.4 us where ``a`` is a
    writable C-contiguous array of at least one byte; a run points at a
    dozen."""
    if a is None:
        return None
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):     # read-only, strided or empty
        return a.ctypes.data


class Field:
    """The compiled state of one environment's field, which every run on it
    reads: its ``field_t`` and the base keys and site-row table that the
    struct points to, and the lock that lets one run at a time use the
    table."""

    def __init__(self, env, code: int, param: float):
        dim = env.dim
        self.base = np.array(env._base, dtype=np.uint64, ndmin=1)
        per_walker = np.ndim(env.master_seed) > 0
        self.struct = _Field(law=code, d=env.law.d, dim=dim, nvars=env.law.nvars,
                             param=param, margin=GUARD_MARGIN,
                             base=self.base.ctypes.data, nbase=len(self.base),
                             per_walker=int(per_walker))
        self.address = ctypes.addressof(self.struct)
        self.lock = threading.Lock()
        # the site-row table: one word of flag, dim of site and 2 dim of
        # cumulative row per entry, zero (empty) until the kernel fills it
        self.table = None
        if code == 0:
            P = env.transitions_batch(np.zeros((1, dim), dtype=np.int64))
            self.struct.cum[:2 * dim] = np.cumsum(P, axis=1)[0].tolist()
        else:
            slots = len(self.base) if per_walker else 1
            per_slot = TABLE_PER_WALKER if per_walker else TABLE_SHARED
            while per_slot and slots * per_slot > TABLE_CAP:
                per_slot //= 2
            if per_slot:
                bits = per_slot.bit_length() - 1
                self.table = np.zeros((slots << bits, 1 + 3 * dim), dtype=np.int64)
                self.struct.bits = bits
                self.struct.table = self.table.ctypes.data


def _field(env, code: int, param: float) -> Field:
    """``env``'s kept :class:`Field`, built on its first run."""
    field = env._loop_field
    if field is None:
        field = Field(env, code, param)
        object.__setattr__(env, "_loop_field", field)
    return field


class Loop:
    """The compiled loop of one walk run on a kept field: its ``run_t`` and
    the arrays that the struct points to, which live as long as the loop.

    ``starts`` is the walkers' shared (dim,) start, which the kernel
    settles once, or their (n, dim) starts, which become the rows' sites
    and are moved in place; ``keys`` is only read.
    """

    def __init__(self, lib, field: Field, region: Bounds | None, exited: int,
                 status: np.ndarray, final: np.ndarray, steps_taken: np.ndarray,
                 visits: np.ndarray | None, target: np.ndarray | None,
                 starts: np.ndarray, keys: np.ndarray):
        n, dim = len(status), field.struct.dim
        _check(status, np.uint8, (n,), "status")
        _check(final, np.int64, (n, dim), "final")
        _check(steps_taken, np.int64, (n,), "steps_taken")
        _check(keys, np.uint64, (n,), "keys")
        if visits is not None:
            _check(visits, np.int64, (n,), "visits")
            _check(target, np.int64, (dim,), "target")
        if starts.ndim == 1:
            _check(starts, np.int64, (dim,), "start")
            start, pos = starts, np.empty((n, dim), dtype=np.int64)
        else:
            _check(starts, np.int64, (n, dim), "starts")
            start, pos = None, starts
        walkers = np.empty(n, dtype=np.int64)
        row_keys = np.empty(n, dtype=np.uint64)
        choice = np.empty(n, dtype=np.uint8)
        self.lib, self.field = lib, field
        self.walkers, self.row_keys, self.pos = walkers, row_keys, pos
        self.run = _Run(field=field.address, exited=exited, n=n, status=_address(status),
                        final=_address(final), steps_taken=_address(steps_taken),
                        visits=_address(visits), target=_address(target), start=_address(start),
                        keys=_address(keys), walkers=_address(walkers), row_keys=_address(row_keys),
                        pos=_address(pos), choice=_address(choice), rows=n)
        if region is not None:
            # a Bounds holds its m forms as the columns of a (dim, m) array
            # (a (dim,) one for m = 1) and its bounds as arrays of shape (m,)
            bounds = region.A.shape[1:]
            _check(region.A, np.float64, (dim,) + bounds, "region forms")
            _check(region.lo, np.float64, bounds, "region lower bounds")
            _check(region.hi, np.float64, bounds, "region upper bounds")
            run = self.run
            run.m, run.lo_closed, run.hi_closed = (region.lo.size, region.lo_closed,
                                                   region.hi_closed)
            run.forms, run.lo, run.hi = (_address(region.A), _address(region.lo),
                                         _address(region.hi))
        self.arrays = (region, status, final, steps_taken, visits, target, start, keys,
                       choice)

    def __call__(self, t: int, horizon: int) -> int:
        """Evaluate the region at step ``t`` and run the live rows from
        there as far as the kernel can.

        Returns the step reached, where the region has been evaluated.
        Unless every walker has stopped or step ``horizon`` is reached,
        numpy must take that step, on :meth:`rows`.
        """
        run = self.run
        run.t = t
        # the call releases the interpreter lock, and the runs on a field
        # share its table: one at a time
        with self.field.lock:
            code = self.lib.rwre_until(run, horizon)
        if code < 0:
            raise IndexError("more rows than walkers, or more walkers than the "
                             "environment's seeds")
        return run.t

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live rows' walker ids, keys and sites, in order; the sites
        are a view, which a numpy step moves in place."""
        rows = self.run.rows
        return self.walkers[:rows], self.row_keys[:rows], self.pos[:rows]


def loop(env, region: Bounds | None, exited: int, status: np.ndarray,
         final: np.ndarray, steps_taken: np.ndarray, visits: np.ndarray | None,
         target: np.ndarray | None, starts: np.ndarray, keys: np.ndarray) -> Loop | None:
    """The compiled loop of one walk run on ``env`` in ``region`` (None: the
    whole lattice) from ``starts`` with walk ``keys``, writing each
    walker's outputs into the arrays passed, or None when numpy must step
    ``env``."""
    entry = _LAWS.get(type(env.law))
    if entry is None or 2 * env.dim > MAX_DIRS:
        return None
    lib = _library()
    if lib is None:
        return None
    code, param = entry
    return Loop(lib, _field(env, code, param(env.law)), region, exited, status,
                final, steps_taken, visits, target, starts, keys)


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
    i64 = ctypes.c_int64
    lib.rwre_until.argtypes = [ctypes.POINTER(_Run), i64]
    lib.rwre_until.restype = i64
    return lib

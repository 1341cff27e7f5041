"""Counter-based deterministic random streams.

Every random quantity in this package is a pure function of a 64-bit key
and a draw index.  Keys are built by chaining a SplitMix64-style avalanche
finalizer over the master seed, a law/purpose tag and the signed lattice
coordinates, so the same (seed, site) pair always yields the same variates
without storing any environment state.  The finalizer and the key folds
come in a scalar (python int) and a vectorized (numpy uint64) form that
agree bit for bit; the tests cross-check the vector paths against scalar
oracles of the site key and the stream uniform.

Many keys at once are derived in one vector pass, never by a Python loop
over the scalar functions: :func:`derive_keys` folds the scalar prefix once
and then every index, :func:`base_keys` folds a tag onto many master seeds,
and :func:`site_keys_from_base` chains coordinates onto a scalar base or a
per-row base array.  Each equals its scalar counterpart bit for bit.  All
uniforms come from one broadcast draw of keys against draw indices; a numpy
walk step makes one such draw for the site uniforms and the walk uniform of
all its walkers.  The vector paths mix in place on the arrays they have just
made, and only the public :func:`mix64_np` copies its argument first.

The vector paths' constants are 0-d uint64 (and float64) arrays, not numpy
scalars or python ints.  At the widths a walk step works on, a numpy call
costs more than its arithmetic, and an operand's type sets much of that
cost: on a 2-vCPU Intel Xeon VM with numpy 2.4.6, ``z >> s`` on two keys
takes 0.36 us with a 0-d array ``s``, 0.59 us with an ``np.uint64`` scalar
and 0.74 us with a python int, and one SplitMix mix of two keys 4.5 us
against 8.6 us with scalars (of 10^4 keys, 37 against 45 us).  The
arithmetic, and so every bit, is the same.

Note: numpy uint64 *array* arithmetic wraps silently, which is exactly
what we want; only scalar numpy ops would warn, and the scalar paths here
use plain python ints instead.  So a key taken out of a vector result and
passed to a scalar path (``derive_key``, ``Environment(law, seed)``, a CSV
column) must first become a python int: ``keys.tolist()`` or ``int(k)``.
"""

from __future__ import annotations

from functools import cache

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _u64(v: int) -> np.ndarray:
    return np.array(v, dtype=np.uint64)


_GOLDEN = _u64(GOLDEN)
_M1 = _u64(0xBF58476D1CE4E5B9)
_M2 = _u64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (_u64(s) for s in (30, 27, 31, 11))
_ONE = _u64(1)
_INV_2_53 = np.array(2.0 ** -53)


def mix64(z: int) -> int:
    """SplitMix64 finalizer (scalar, exact 64-bit arithmetic)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def mix64_np(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (wrapping arithmetic)."""
    return _mix_np_inplace(z.astype(np.uint64, copy=True))


def _mix_np_inplace(z: np.ndarray) -> np.ndarray:
    """:func:`mix64_np` in place, on a uint64 array the caller has just made."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def fold(h: int, word: int) -> int:
    """Absorb one 64-bit word into a running key (order-sensitive)."""
    return mix64(((h ^ (word & MASK64)) + GOLDEN) & MASK64)


def _fold_np(h: np.ndarray) -> np.ndarray:
    """:func:`fold` in place on h, which holds the keys xor the words (a
    uint64 array the caller has just made)."""
    h += _GOLDEN
    return _mix_np_inplace(h)


def string_tag(s: str) -> int:
    """FNV-1a 64-bit hash of a string; stable across runs and platforms."""
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def derive_key(master: int, *words: int | str) -> int:
    """Derive a sub-key from a master seed and a sequence of words/tags."""
    h = mix64(master & MASK64)
    for w in words:
        h = fold(h, string_tag(w) if isinstance(w, str) else int(w))
    return h


def derive_keys(master: int, *words: int | str, n: int) -> np.ndarray:
    """``[derive_key(master, *words, i) for i in range(n)]`` as a uint64 array."""
    h = np.arange(n, dtype=np.uint64)
    h ^= _u64(derive_key(master, *words))
    return _fold_np(h)


def base_key(master: int, tag: int) -> int:
    """Master seed and law tag folded once; site keys chain coordinates on."""
    return fold(mix64(master & MASK64), tag)


def base_keys(masters: np.ndarray, tag: int) -> np.ndarray:
    """Vectorized :func:`base_key` over a uint64 array of master seeds."""
    h = mix64_np(np.asarray(masters, dtype=np.uint64))
    h ^= _u64(tag)
    return _fold_np(h)


def site_keys_from_base(base, coords: np.ndarray) -> np.ndarray:
    """Vectorized site keys for an (N, d) int array, d >= 1, given a folded base.

    ``base`` is one key (python int or 0-d uint64 array) shared by every
    row, or a uint64 array of N per-row keys, e.g. from :func:`base_keys`.
    """
    # int64 coordinates read as uint64 words, as fold's ``word & MASK64``
    words = np.asarray(coords).astype(np.int64, copy=False).view(np.uint64)
    h = _fold_np(words[:, 0] ^ np.asarray(base, dtype=np.uint64))
    for j in range(1, words.shape[1]):
        h ^= words[:, j]
        _fold_np(h)
    return h


def stream_uniforms(keys, index) -> np.ndarray:
    """Draws ``index`` of the streams ``keys``, broadcast against each other
    (``keys[:, None]`` against ``np.arange(k)``: k draws per key); in (0, 1]."""
    idx = np.array(index, dtype=np.uint64, ndmin=1)     # an array: wraps silently
    idx += _ONE
    idx *= _GOLDEN
    return _uniforms(keys + idx)


def _uniforms(v: np.ndarray) -> np.ndarray:
    """The uniforms of the counters v = key + (index + 1) * GOLDEN, made in
    place on v (a uint64 array the caller has just made)."""
    _mix_np_inplace(v)
    v >>= _S11
    v += _ONE
    return np.multiply(v, _INV_2_53, dtype=np.float64)


@cache
def _offsets(n: int) -> np.ndarray:
    """The counter offsets ``(index + 1) * GOLDEN`` of draws 0..n-1 (read-only)."""
    off = (np.arange(n, dtype=np.uint64) + _ONE) * _GOLDEN
    off.flags.writeable = False
    return off


def _offset(index: int) -> np.ndarray:
    """The counter offset of draw ``index``, as a 0-d uint64 array."""
    return _u64((index + 1) * GOLDEN & MASK64)


def stream_uniform_block(key: int, n: int) -> np.ndarray:
    """First ``n`` uniforms of a single stream, as an array."""
    return stream_uniforms(key & MASK64, np.arange(n))

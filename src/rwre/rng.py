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

Note: numpy uint64 *array* arithmetic wraps silently, which is exactly
what we want; only scalar numpy ops would warn, and the scalar paths here
use plain python ints instead.  So a key taken out of a vector result and
passed to a scalar path (``derive_key``, ``Environment(law, seed)``, a CSV
column) must first become a python int: ``keys.tolist()`` or ``int(k)``.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_U64_GOLDEN = np.uint64(GOLDEN)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(s) for s in (30, 27, 31, 11))
_ONE = np.uint64(1)
_INV_2_53 = 2.0 ** -53


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


def _fold_np(h: np.ndarray, w) -> np.ndarray:
    """:func:`fold` of the words w into the keys h, in place on h (a uint64
    array the caller has just made)."""
    h ^= w
    h += _U64_GOLDEN
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
    h = np.full(n, derive_key(master, *words), dtype=np.uint64)
    return _fold_np(h, np.arange(n, dtype=np.uint64))


def base_key(master: int, tag: int) -> int:
    """Master seed and law tag folded once; site keys chain coordinates on."""
    return fold(mix64(master & MASK64), tag)


def base_keys(masters: np.ndarray, tag: int) -> np.ndarray:
    """Vectorized :func:`base_key` over a uint64 array of master seeds."""
    h = mix64_np(np.asarray(masters, dtype=np.uint64))
    return _fold_np(h, np.uint64(tag))


def site_keys_from_base(base, coords: np.ndarray) -> np.ndarray:
    """Vectorized site keys for an (N, d) int array, given a folded base.

    ``base`` is one key (python int) shared by every row, or a uint64 array
    of N per-row keys, e.g. from :func:`base_keys`.
    """
    coords = np.asarray(coords)
    words = coords.astype(np.int64, copy=False).astype(np.uint64)
    h = np.full(coords.shape[0], base, dtype=np.uint64)
    for j in range(coords.shape[1]):
        _fold_np(h, words[:, j])
    return h


def stream_uniforms(keys, index) -> np.ndarray:
    """Draws ``index`` of the streams ``keys``, broadcast against each other
    (``keys[:, None]`` against ``np.arange(k)``: k draws per key); in (0, 1]."""
    idx = np.array(index, dtype=np.uint64, ndmin=1)     # an array: wraps silently
    v = _mix_np_inplace(keys + (idx + _ONE) * _U64_GOLDEN)
    v >>= _S11
    v += _ONE
    return np.multiply(v, _INV_2_53, dtype=np.float64)


def stream_uniform_block(key: int, n: int) -> np.ndarray:
    """First ``n`` uniforms of a single stream, as an array."""
    return stream_uniforms(key & MASK64, np.arange(n))

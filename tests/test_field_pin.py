"""Byte pins of the numpy field layer.

The SHA-256 digests below were recorded from the numpy field layer before
its call-count rewrite: any change to how site keys, uniforms, law rows,
normalization or the inverse-CDF choice are computed must leave every row,
choice and position bit-identical, so these digests never move.
"""

import hashlib

import numpy as np
import pytest

from rwre import rng, walk
from rwre.environment import (Dirichlet, Environment, Expl, TableMixture,
                              TrapSym, TrapTransient, UniformDrift)
from rwre.lattice import step_vectors

# the six laws, and two whose eight-entry rows numpy sums pairwise
LAWS = [UniformDrift(2, 0.3), Expl(2, 0.2), TrapSym(2), TrapTransient(1),
        Dirichlet((1.0, 2.0, 0.5, 1.5)),
        TableMixture(((0.3, (0.7, 0.1, 0.1, 0.1)), (0.7, (0.25,) * 4))),
        Expl(4, 0.2), TrapTransient(3)]
WIDTHS = (1, 2, 257)


def _cases(law):
    """(env, sites, idx, keys) for each seed kind and width: sites with
    negative and large coordinates, per-walker fields read through shuffled
    live ids and in row order."""
    for W in WIDTHS:
        u = rng.stream_uniform_block(rng.derive_key(W, "pin_sites"), W * law.dim)
        sites = (np.floor(u * 2e6) - 1.5e6).astype(np.int64).reshape(W, law.dim)
        sites[0] = -(2 ** 62) + np.arange(law.dim)
        keys = walk.walk_keys(W, W)
        yield Environment(law, 17), sites, None, keys
        seeds = rng.derive_keys(W, "pin_fields", n=2 * W)
        perm = np.argsort(rng.stream_uniform_block(rng.derive_key(W, "pin_live"), 2 * W))
        for idx in (perm[:W], None):
            yield Environment(law, seeds), sites, idx, keys


def _digest(parts) -> str:
    h = hashlib.sha256()
    for a in parts:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _rows(law) -> str:
    return _digest(env.transitions_batch(sites, idx)
                   for env, sites, idx, _ in _cases(law))


def _steps(law) -> str:
    sv = step_vectors(law.dim)
    parts = []
    for env, sites, idx, keys in _cases(law):
        for t in (0, 1, 2 ** 40):
            pos = sites.copy()
            choice = walk._step_batch(env, pos, keys, t, sv, idx)
            parts += [np.asarray(choice, dtype=np.int64), pos]
    return _digest(parts)


PINNED = {
    "uniform_drift:d=2:s=0.3:a=1": (
        "1ce4c828038bc7819c91bed97b38e147efa4a9e880b92152b9318d4c026d7002",
        "748abe9ddbfddbbf81d5f4b89915c16dc704fa964422a0125f63600d989766a9"),
    "expl:d=2:eps=0.2": (
        "e865ce4aa6fe9dbb761354626c561bd8252e70f381ac8e1a95d3edb3258eb18e",
        "2172c4161efb5fa1377560b895306a802c28d199abe4b5d0a6c7edf0161e8311"),
    "trap_sym:d=2:t=0.25": (
        "92d719f27ae4b1bdec735e45d74853bad0ebc33b29d4df0f0f4b2a920e0b6e01",
        "a73399047270ece68455d9d5e974c88014dfd0e06750371fbc9eed6010fdf002"),
    "trap_transient:d=1": (
        "d09ff260b67112304fee7abb8a02a22a917e459a9c04ea4cd7741303615d892a",
        "8ba50023c65c3958bd192827575e3df35f79474900b18a39423220bdcb9c50d6"),
    "dirichlet:1.0,2.0,0.5,1.5": (
        "50895f370c8b4373746d8f331ea790704cdbcec3fde05f7810956cf3d5224e2c",
        "2fabc04afe70d31fc5293572d2b2d382c6a72e7d3d0fd4367aee0a939e454917"),
    "table_mixture:0.3:0.7,0.1,0.1,0.1|0.7:0.25,0.25,0.25,0.25": (
        "5e8a86a67264d6d8a72b7d21dffa8d152c0b5d9657ef93bcb94f41791ef3d4e1",
        "3665aa87829c3f1a1dc8117829541ee873e8e6bcdcf0fd3c4b1ad1df9b47015c"),
    "expl:d=4:eps=0.2": (
        "230cdffa60423d21f1c04981255696cbf539ab83d0b63fb4c71f909465fd5b28",
        "da2bc6260c266865a56d410e7da860d972eef4bca3a2415a325b97de0fa3310f"),
    "trap_transient:d=3": (
        "2cc59216bd6d2c58f0ccb88b2f87ed96e91efd8ae2b90e84fea5ae4065b3e1b9",
        "0a81f5253b9be50a3c3e9de1c1988b544c5b7609911ab6ddfa30ed8667ba5eff"),
}


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.tag)
def test_field_rows_and_steps_are_pinned(law):
    rows, steps = PINNED[law.tag]
    assert _rows(law) == rows
    assert _steps(law) == steps

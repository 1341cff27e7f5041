import numpy as np

from rwre import rng


def test_scalar_vector_mix_agree():
    rs = np.random.RandomState(0)
    zs = rs.randint(0, 2 ** 63, size=200).astype(np.uint64)
    vec = rng.mix64_np(zs)
    for z, v in zip(zs, vec):
        assert rng.mix64(int(z)) == int(v)


def test_site_keys_scalar_vector_agree():
    coords = np.array([[0, 0], [3, -5], [-5, 3], [1000000, -999999]])
    kv = rng.site_keys_from_base(rng.base_key(42, 7), coords)
    for row, k in zip(coords, kv):
        assert rng.site_key(42, 7, tuple(row)) == int(k)
    # per-row bases: one master seed per row, negative coordinates included
    masters = [0, 42, 2 ** 64 - 1, 12345]
    kv = rng.site_keys_from_base(rng.base_keys(masters, 7), coords)
    for m, row, k in zip(masters, coords, kv):
        assert rng.site_key(m, 7, tuple(row)) == int(k)


def test_derive_keys_scalar_vector_agree():
    for master in (0, 42, 2 ** 64 - 1):
        for words in (("walk",), (7,), ("c3", "uniform"), (5, 9)):
            for n in (0, 1, 1000):
                keys = rng.derive_keys(master, *words, n=n)
                assert keys.dtype == np.uint64 and keys.shape == (n,)
                assert keys.tolist() == [rng.derive_key(master, *words, i)
                                         for i in range(n)]


def test_keys_distinct_for_distinct_sites():
    coords = np.array([[i, j] for i in range(-20, 20) for j in range(-20, 20)])
    keys = rng.site_keys_from_base(rng.base_key(9, 1), coords)
    assert len(set(int(k) for k in keys)) == len(coords)


def test_order_sensitivity():
    assert rng.site_key(1, 2, (3, 4)) != rng.site_key(1, 2, (4, 3))
    assert rng.derive_key(1, "a", "b") != rng.derive_key(1, "b", "a")


def test_stream_uniforms_match_block():
    key = rng.derive_key(5, "stream")
    blk = rng.stream_uniform_block(key, 50)
    for i in range(50):
        assert rng.stream_uniform(key, i) == blk[i]
    karr = np.array([key], dtype=np.uint64)
    for i in range(50):
        assert rng.stream_uniforms(karr, i)[0] == blk[i]


def test_uniforms_in_unit_interval_and_flat():
    u = rng.stream_uniform_block(rng.derive_key(3, "flat"), 200_000)
    assert np.all(u > 0) and np.all(u <= 1)
    assert abs(u.mean() - 0.5) < 4 / np.sqrt(len(u))
    assert abs(u.var() - 1 / 12) < 0.001


def test_string_tag_stable():
    # pinned so key derivations never drift between runs/platforms
    assert rng.string_tag("") == 0xCBF29CE484222325
    assert rng.string_tag("a") == 0xAF63DC4C8601EC8C

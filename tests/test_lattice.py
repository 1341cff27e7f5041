import numpy as np
import pytest

from rwre import criteria as cr, lattice as lat


# --- hypercubes ------------------------------------------------------------

def test_unit_hypercube_structure():
    cube = lat.UnitHypercube((0, 0, 0))
    assert len(cube.corners) == 8
    anchor = np.array(cube.anchor)
    for c in cube.corners:
        assert np.max(np.abs(np.array(c) - anchor)) <= 1
    j = cube.corner_index((1, 0, 1))
    assert j == 0b101
    assert sorted(lat._outward(3)[j]) == sorted([0, 3 + 1, 2])
    # the region: corners inside; exterior neighbours, negative offsets and
    # far sites outside
    for d in (1, 2, 3):
        cube = lat.UnitHypercube((2, -3, 0)[:d])
        corners = np.array(cube.corners, dtype=np.int64)
        assert cube.region(corners).all()
        outer = (corners[:, None, :] + lat.step_vectors(d)[None]).reshape(-1, d)
        outer = outer[~(outer[:, None, :] == corners[None]).all(axis=2).any(axis=1)]
        assert len(outer) == d << d and not cube.region(outer).any()
        anchor = np.array(cube.anchor, dtype=np.int64)
        far = np.array([anchor - 1, anchor + 2, anchor - (1 << 40)])
        assert not cube.region(far).any()


@pytest.mark.parametrize("site", [(2, 0, 1), (0, -1, 0)], ids=["beyond", "below"])
def test_corner_index_refuses_a_site_off_the_cube(site):
    with pytest.raises(ValueError, match="is not a corner of"):
        lat.UnitHypercube((0, 0, 0)).corner_index(site)


def test_boundary_partition_by_corner():
    # every site at L1 distance 1 from the cube is reached by exactly one
    # (corner, exit direction) pair: d exits per corner, d 2^d in all
    for d in (1, 2, 3):
        cube = lat.UnitHypercube((0,) * d)
        corners = set(cube.corners)
        sv = lat.step_vectors(d)
        exits = [tuple(int(c) for c in np.add(x, sv[k])) for x in cube.corners
                 for k in lat._outward(d)[cube.corner_index(x)]]
        outer = {tuple(int(c) for c in np.add(x, s)) for x in corners
                 for s in sv} - corners
        assert len(exits) == len(set(exits)) == d * (1 << d)
        assert set(exits) == outer


# --- projections -----------------------------------------------------------

def test_projection_axis_lower_bound():
    rs = np.random.RandomState(3)
    for _ in range(100):
        d = rs.randint(2, 7)
        v = rs.standard_normal(d)
        v /= np.linalg.norm(v)
        i0, sign = lat.projection_axis(v)
        assert sign * v[i0] >= 1 / np.sqrt(d) - 1e-12


# --- rotations and slabs ---------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 5])
def test_rotation_onto_minus_e1(d):
    # the degenerate span: a rotation by pi in the (e_1, e_2) plane
    e1 = np.eye(d)[0]
    R = lat.rotation_onto_e1(-e1)
    assert np.array_equal(R @ e1, -e1)
    assert np.array_equal(R.T @ R, np.eye(d))


def test_rotation_onto_minus_e1_needs_a_second_axis():
    with pytest.raises(ValueError, match="dimension 1"):
        lat.rotation_onto_e1([-1.0])


def test_rotation_orthogonal_and_maps_e1():
    rs = np.random.RandomState(4)
    for _ in range(50):
        d = rs.randint(2, 7)
        ell = rs.standard_normal(d)
        ell /= np.linalg.norm(ell)
        R = lat.rotation_onto_e1(ell)
        assert np.max(np.abs(R.T @ R - np.eye(d))) < 1e-10
        e1 = np.zeros(d)
        e1[0] = 1.0
        assert np.max(np.abs(R @ e1 - ell)) < 1e-10
        # identity on the orthogonal complement of span{e_1, ell}
        w = rs.standard_normal(d)
        w -= w @ e1 * e1
        proj = ell - ell[0] * e1
        n = np.linalg.norm(proj)
        if n > 1e-9:
            w -= (w @ proj / n ** 2) * proj
            assert np.max(np.abs(R @ w - w)) < 1e-9


def test_slab_box_membership():
    # the box predicate of the polynomial-condition probe, all bounds open
    box = cr._box_region(lat.rotation_onto_e1([1.0, 0.0]), L=4.0, Lp=2.0, Lt=3.0)
    sites = np.array([(0, 0), (3, 2), (-1, -2), (4, 0), (-2, 0), (0, 3)])
    assert box(sites).tolist() == [True, True, True, False, False, False]
    # d = 1 has no transverse coordinates
    line = cr._box_region(lat.rotation_onto_e1([1.0]), L=4.0, Lp=2.0, Lt=3.0)
    assert line(np.array([[-1], [3], [4], [-2]])).tolist() == [True, True,
                                                               False, False]


def test_slab_inclusive_bounds():
    # the slab predicate of the direct back-exit estimator
    slab = cr._slab_region(np.array([1.0, 0.0]), b=1.0, L=4.0)
    sites = np.array([(4, 9), (-4, 0), (5, 0), (-5, 0)])
    assert slab(sites).tolist() == [True, True, False, False]


# The predicates the walk regions replaced, kept as oracles: each region
# must return the same mask, bit for bit, as the closure it stands for.  A
# form's value is the left-to-right sum of rounded products, which is what
# a region decides by; numpy's X @ A goes to the host's BLAS, whose order
# and fused multiply-adds can move a value at an exact tie by one ulp.

def in_order(X, A):
    """(N, m) values of the forms A (d,) or (d, m) at the sites X, each
    the sum x_1 a_1 + ... + x_d a_d taken left to right."""
    X = np.asarray(X, dtype=float)
    A = np.asarray(A, dtype=float).reshape(X.shape[1], -1)
    V = X[:, :1] * A[:1]
    for i in range(1, X.shape[1]):
        V = V + X[:, i:i + 1] * A[i:i + 1]
    return V


def slab_inside(ell, b, L):
    def inside(X):
        t = in_order(X, ell)[:, 0]
        return (-b * L <= t) & (t <= L)
    return inside


def level_inside(ell, lev, L):
    def inside(X):
        t = in_order(X, ell)[:, 0]
        return (lev < t) & (t <= L)
    return inside


def box_inside(R, L, Lp, Lt):
    def inside(X):
        W = in_order(X, R)
        return ((-Lp < W[:, 0]) & (W[:, 0] < L)
                & (np.abs(W[:, 1:]).max(axis=1, initial=0.0) < Lt))
    return inside


def cube_contains(anchor):
    def inside(X):
        off = (np.asarray(X, dtype=np.int64)
               - np.asarray(anchor, dtype=np.int64)).view(np.uint64)
        ok = off[:, 0] <= 1
        for i in range(1, len(anchor)):
            ok &= off[:, i] <= 1
        return ok
    return inside


def _region_pairs(d):
    """(region, oracle, forms, bound values) for slabs, splitting levels,
    boxes and cubes (one off the origin) in dimension d."""
    rs = np.random.RandomState(d)
    ells = [np.eye(d)[0], np.ones(d) / np.sqrt(d), rs.standard_normal(d)]
    if d >= 2:      # 0.6 x + 0.8 y hits integers up to rounding
        ells.append(np.array([0.6, 0.8] + [0.0] * (d - 2)))
    out = []
    for ell in ells:
        ell = ell / np.linalg.norm(ell)
        R = lat.rotation_onto_e1(ell) if d >= 2 or ell[0] > 0 else None
        for L in (7.0, 8.0, 4.5):
            lev = -L * 2 / 3
            out.append((cr._slab_region(ell, 1.0, L), slab_inside(ell, 1.0, L),
                        ell, (-L, L)))
            out.append((lat.Bounds(ell, lev, L, False, True),
                        level_inside(ell, lev, L), ell, (lev, L)))
            if R is not None:
                Lp, Lt = 1.125 * L, 4.0 * L
                out.append((cr._box_region(R, L, Lp, Lt), box_inside(R, L, Lp, Lt),
                            R, (-Lp, L, -Lt, Lt)))
    for anchor in ((0,) * d, (3, -7, 1)[:d]):
        out.append((lat.UnitHypercube(anchor).region, cube_contains(anchor),
                    np.eye(d), tuple(anchor) + tuple(a + 1 for a in anchor)))
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_regions_equal_the_predicates_they_replace(d):
    rs = np.random.RandomState(10 + d)
    if d < 3:
        grid = np.stack(np.meshgrid(*[np.arange(-40, 41)] * d, indexing="ij"),
                        -1).reshape(-1, d)
    else:
        grid = rs.randint(-40, 41, size=(200_000, d))
    for region, oracle, A, bounds in _region_pairs(d):
        # random sites, and every site of the grid whose value of some form
        # lies within one step of some bound
        V = in_order(grid, A)
        near = np.zeros(len(grid), dtype=bool)
        for b in bounds:
            near |= (np.abs(V - b) <= 1.0).any(axis=1)
        assert near.any()
        X = np.concatenate([rs.randint(-60, 61, size=(5000, d)), grid[near]])
        assert np.array_equal(region(X), oracle(X))
        assert region(X[:1]).shape == (1,) and region(X[:0]).shape == (0,)


def scalar_form(x, a):
    """A form's value at one site: float(x_i) * a_i, added in order."""
    v = 0.0
    for xi, ai in zip(x, a):
        v += float(xi) * ai
    return v


def test_bounds_decide_exact_ties_by_the_left_to_right_sum():
    # every site of the 81 x 81 grid where 0.6 x + 0.8 y equals 7, -7, 8,
    # -8, 3 or -3 exactly: a region with such a bound, on this form alone
    # or beside another, must place it as the scalar sum does
    ell, other = [0.6, 0.8], [-0.8, 0.6]
    grid = [(x, y) for x in range(-40, 41) for y in range(-40, 41)]
    ties = {b: [x for x in grid if scalar_form(x, ell) == b]
            for b in (7.0, -7.0, 8.0, -8.0, 3.0, -3.0)}
    assert all(ties.values())

    def placed(v, lo, hi, lo_closed, hi_closed):
        return (lo <= v if lo_closed else lo < v) and (v <= hi if hi_closed else v < hi)

    for lo, hi in ((-7.0, 7.0), (-8.0, 8.0), (-3.0, 7.0), (-8.0, 3.0)):
        sites = ties[lo] + ties[hi]
        X = np.array(sites, dtype=np.int64)
        for lo_closed in (False, True):
            for hi_closed in (False, True):
                one = lat.Bounds(ell, lo, hi, lo_closed, hi_closed)
                want = [placed(scalar_form(x, ell), lo, hi, lo_closed, hi_closed)
                        for x in sites]
                assert one(X).tolist() == want, (lo, hi, lo_closed, hi_closed)
                two = lat.Bounds(np.array([ell, other]).T, [lo, -100.0], [hi, 100.0],
                                 lo_closed, hi_closed)
                assert two(X).tolist() == want


def test_bounds_reject_mismatched_shapes():
    with pytest.raises(ValueError, match="do not match"):
        lat.Bounds(np.eye(2), [0.0], [1.0, 1.0], True, True)
    with pytest.raises(ValueError, match="do not match"):
        lat.Bounds(np.ones(2), [0.0], 1.0, True, True)


# --- tilted boxes ----------------------------------------------------------

def test_tilted_box_axis_bounds_exact():
    box = lat.TiltedBox((0, 0), beta=0.5, L=9.0, vhat=(1.0, 0.0))
    # width L^beta = 3, all bounds open
    sites = np.array([(8, 0), (9, 0), (-3, 0), (-2, 0), (0, 2), (0, 3)])
    assert box.region(sites).tolist() == [True, False, False, True, True, False]
    exits = np.array([(9, 1), (-4, 0), (0, 3)])
    assert box.is_front_batch(exits).tolist() == [True, False, False]


def test_tilted_box_elem_geom_property():
    # inside the box and ahead along vhat implies L-inf distance <= (1+sqrt d) L^beta
    rs = np.random.RandomState(5)
    for _ in range(300):
        d = rs.randint(2, 5)
        v = rs.standard_normal(d)
        v /= np.linalg.norm(v)
        L = rs.uniform(4, 40)
        beta = rs.uniform(0.3, 0.9)
        x1 = tuple(int(c) for c in rs.randint(-5, 5, size=d))
        box = lat.TiltedBox(x1, beta, L, tuple(v))
        x2 = tuple(int(c) for c in np.array(x1) + rs.randint(-int(L), int(L), size=d))
        inside = box.region(np.array([x2]))[0]
        if inside and np.dot(np.array(x1) - np.array(x2), v) >= 0:
            bound = (1 + np.sqrt(d)) * L ** beta
            assert np.max(np.abs(np.array(x1) - np.array(x2))) <= bound + 1e-9


def tilted_box_contains(box):
    """The box's membership as a formula of the offset from the center."""
    def inside(Y):
        v = np.asarray(box.vhat, dtype=float)
        U = np.asarray(Y, dtype=float) - np.asarray(box.center, dtype=float)
        t = box.sign * U[:, box.i0]
        q = U - (U[:, box.i0] / v[box.i0])[:, None] * v
        width = box.L ** box.beta
        return (-width < t) & (t < box.L) & (np.abs(q).max(axis=1) < width)
    return inside


def test_tilted_box_region_equals_the_offset_formula():
    # every site of the boxes' neighbourhoods, except those whose transverse
    # offset lies within rounding of the width, where the formula's answer
    # depends on its own order of operations; diagonal and axis-aligned
    # boxes have integer forms, so their region is exact everywhere
    rs = np.random.RandomState(6)
    for k in range(60):
        d = 2 + k % 2
        v = (rs.standard_normal(d) if k % 3 else
             rs.choice([-1.0, 0.0, 1.0], size=d) if k % 2 else np.ones(d))
        if not v.any():
            v[0] = 1.0
        v = v / np.linalg.norm(v)
        box = lat.TiltedBox(tuple(int(c) for c in rs.randint(-5, 6, size=d)),
                            rs.uniform(0.3, 0.9), rs.uniform(2.0, 12.0), tuple(v))
        span = np.arange(-16, 17)
        Y = (np.stack(np.meshgrid(*[span] * d, indexing="ij"), -1).reshape(-1, d)
             + np.asarray(box.center))
        got, want = box.region(Y), tilted_box_contains(box)(Y)
        U = Y - np.asarray(box.center)
        q = U - (U[:, box.i0] / v[box.i0])[:, None] * v
        edge = np.abs(np.abs(q).max(axis=1) - box.L ** box.beta) < 1e-9
        assert np.array_equal(got[~edge], want[~edge]), box
        assert got.any() and not got.all()
        r = v / v[box.i0]
        if np.array_equal(r, np.round(r)):      # integer forms: exact offsets
            t = box.sign * U[:, box.i0]
            q = U - U[:, [box.i0]] * r.astype(np.int64)
            width = box.L ** box.beta
            exact = (-width < t) & (t < box.L) & (np.abs(q).max(axis=1) < width)
            assert np.array_equal(got, exact), box


def test_tilted_box_rejects_bad_params():
    with pytest.raises(ValueError):
        lat.TiltedBox((0, 0), beta=1.5, L=4.0, vhat=(1.0, 0.0))
    with pytest.raises(ValueError):
        lat.TiltedBox((0, 0), beta=0.5, L=-1.0, vhat=(1.0, 0.0))


def test_basis_rejects_non_unit():
    # directions must be unit vectors
    for vhat in ((1.0, 1.0), (0.0, 0.0)):
        with pytest.raises(ValueError):
            lat.TiltedBox((0, 0), beta=0.5, L=4.0, vhat=vhat)
        with pytest.raises(ValueError):
            lat.rotation_onto_e1(vhat)

"""Inner products, norms and the H^-1 realization."""

import numpy as np
import pytest

from stackheat.errors import EmptyRegionError
from stackheat.grids import Region, SpaceTimeField, SpatialGrid, TimeGrid
from stackheat.products import (h10_diff, h10_norm, hminus1_norm, l2_q, neg_laplacian_solve,
                                qmid_field, qmid_trace)


def make_grids(n=40, k=20):
    return SpatialGrid(n), TimeGrid(k, 1.0)


def test_l2q_zero_argument():
    grid, tgrid = make_grids()
    zero = SpaceTimeField.zeros(grid, tgrid)
    g = SpaceTimeField.from_function(grid, tgrid, lambda x, t: np.cos(x) + t)
    assert l2_q(zero, g) == 0.0


def test_l2q_constant():
    grid, tgrid = make_grids()
    one = SpaceTimeField.from_function(grid, tgrid, lambda x, t: np.ones_like(x))
    assert l2_q(one, one) == pytest.approx(1.0, rel=1e-12)


def test_l2_region_empty_after_clipping():
    with pytest.raises(EmptyRegionError):
        Region(0.41, 0.42).interior_mask(SpatialGrid(4))


def test_h10_norm_of_hat():
    grid = SpatialGrid(99)
    u = np.sin(np.pi * grid.interior_nodes())
    # |sin(pi x)|_{H10}^2 = pi^2/2 on (0,1)
    assert h10_norm(u, grid) ** 2 == pytest.approx(np.pi ** 2 / 2, rel=1e-3)


def test_hminus1_eigenfunction_identity():
    errs = []
    for n in (40, 80):
        grid = SpatialGrid(n)
        u = np.sin(np.pi * grid.interior_nodes())
        errs.append(abs(hminus1_norm(u, grid) - 1.0 / (np.pi * np.sqrt(2.0))))
    assert errs[0] < 1e-3
    assert errs[1] < errs[0] / 3.5


def test_neg_laplacian_solve_exact_for_quadratic():
    grid = SpatialGrid(30)
    x = grid.interior_nodes()
    # -z'' = 2 with zero boundary -> z = x(1-x)
    z = neg_laplacian_solve(np.full(grid.n_interior, 2.0), grid)
    assert np.allclose(z, x * (1 - x), atol=1e-12)


def _right_hand_sides(n):
    rng = np.random.default_rng(n)
    yield rng.standard_normal(n)
    yield np.full(n, -0.0)
    yield rng.choice([0.0, -0.0], n)                                     # mixed signed zeros
    yield rng.choice([5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, -0.0], n)
    yield rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 3, n)        # 1e-12 to 1e3
    u = rng.standard_normal(n)
    u[rng.random(n) < 0.5] = -0.0
    yield u


@pytest.mark.parametrize("n", [2, 3, 30, 50, 200])
def test_neg_laplacian_solve_matches_banded_reference_bitwise(n):
    from scipy.linalg import solve_banded

    grid = SpatialGrid(n)
    ab = np.zeros((3, n))
    ab[0, 1:] = -1.0
    ab[1, :] = 2.0
    ab[2, :-1] = -1.0
    for u in _right_hand_sides(n):
        ref = solve_banded((1, 1), ab / grid.dx ** 2, u)
        u_before = u.copy()
        got = neg_laplacian_solve(u, grid)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()   # signed zeros included
        assert u.tobytes() == u_before.tobytes()
    for bad in (np.inf, -np.inf, np.nan):
        u[0] = bad
        with pytest.raises(ValueError):
            neg_laplacian_solve(u, grid)


@pytest.mark.parametrize("u", [
    [0.7],
    [-0.0],
    [0.0, 1.0, -0.0],
    [-0.0, 2.0, 0.0],
    [5e-324, -5e-324, 2.2250738585072014e-308, 1e-310],
    [1e300, -1e300, 1e300, 3.0],
    [-1e300, 0.0, 0.0, -0.0, 1e300],
])
def test_h10_diff_has_the_bits_of_padded_np_diff(u):
    u = np.array(u)
    ref = np.diff(u, prepend=0.0, append=0.0)
    got = h10_diff(u)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()   # signed zeros included


@pytest.mark.parametrize("layout", ["stacked", "strided", "march"])
@pytest.mark.parametrize("masked", [False, True])
def test_qmid_pairings_of_a_block_equal_lone_calls_bit_for_bit(layout, masked):
    # a block of 9 columns laid out stacked (C-contiguous, as the verification
    # hands them out), every other column of a stack, or ("march") a view of
    # an (n_levels, n_interior, width) array with the columns innermost
    grid, tgrid = make_grids(n=30, k=33)
    rng = np.random.default_rng(4)
    shape = (tgrid.n_levels, grid.n_interior)
    mask = Region(0.2, 0.7).interior_mask(grid) if masked else None
    f, g = (rng.standard_normal((18,) + shape) for _ in range(2))
    if layout == "strided":
        f, g = f[::2], g[::2]
    else:
        f, g = f[:9], g[:9]
        if layout == "march":
            f, g = (np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0) for a in (f, g))
    for block, lone in ((qmid_field(f, g, grid, tgrid.dt, mask=mask),
                         [qmid_field(a.copy(), b.copy(), grid, tgrid.dt, mask=mask)
                          for a, b in zip(f, g)]),
                        (qmid_field(f, f, grid, tgrid.dt, mask=mask),
                         [qmid_field(a.copy(), a.copy(), grid, tgrid.dt, mask=mask) for a in f]),
                        (qmid_trace(f[..., 0], g[..., 0], tgrid.dt),
                         [qmid_trace(a[:, 0].copy(), b[:, 0].copy(), tgrid.dt)
                          for a, b in zip(f, g)])):
        assert isinstance(lone[0], float)
        assert block.tobytes() == np.array(lone).tobytes()

"""Inner products, norms and the H^-1 realization."""

import numpy as np
import pytest

from stackheat.errors import EmptyRegionError
from stackheat.grids import Region, SpaceTimeField, SpatialGrid, TimeGrid
from stackheat.products import (h10_norm, hminus1_norm, l2_q, qmid_field, qmid_field_inplace,
                                qmid_trace)

from _instruments import banded_lift


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


def test_hminus1_norm_exact_for_quadratic():
    grid = SpatialGrid(30)
    x = grid.interior_nodes()
    # -z'' = 2 with zero boundary -> z = x(1-x), and the second difference is exact on it
    got = hminus1_norm(np.full(grid.n_interior, 2.0), grid)
    assert got == pytest.approx(h10_norm(x * (1 - x), grid), rel=1e-12)


def _right_hand_sides(n):
    rng = np.random.default_rng(n)
    yield rng.standard_normal(n)
    yield np.full(n, -0.0)
    yield rng.choice([0.0, -0.0], n)                                     # mixed signed zeros
    yield rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 3, n)        # 1e-12 to 1e3
    u = rng.standard_normal(n)
    u[rng.random(n) < 0.5] = -0.0
    yield u


@pytest.mark.parametrize("n", [2, 3, 30, 50, 200])
def test_hminus1_norm_agrees_with_banded_reference(n):
    grid = SpatialGrid(n)
    for u in _right_hand_sides(n):
        u_before = u.copy()
        got = hminus1_norm(u, grid)
        assert u.tobytes() == u_before.tobytes()
        if not u.any():
            assert got == 0.0
            continue
        ref = h10_norm(banded_lift(u, grid), grid)
        assert abs(got - ref) <= 1e-12 * ref
    for bad in (np.inf, -np.inf, np.nan):
        u[0] = bad
        with pytest.raises(ValueError):
            hminus1_norm(u, grid)


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


@pytest.mark.parametrize("width", [1, 7, 25])
@pytest.mark.parametrize("masked", [False, True])
def test_qmid_field_inplace_equals_qmid_field_bit_for_bit(width, masked):
    # the in-place pairing of a block, level-major or (masked) node-major on
    # the mask's nodes as verify lays a region's controls out, has the bits
    # of qmid_field, special values included: column j holds -0.0, a
    # subnormal, +-inf or nan at a few places, and the scratch starts as nan
    grid, tgrid = make_grids(n=30, k=33)
    rng = np.random.default_rng(6)
    f = rng.standard_normal((width, tgrid.n_levels, grid.n_interior))
    special = [-0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, -0.0]
    for j, column in enumerate(f.reshape(width, -1)):
        column[rng.choice(column.size, 3, replace=False)] = special[j % len(special)]
    f[0, :, :3] = -0.0   # a column with whole rows of -0.0, and its last rows subnormal
    f[0, -2:] = 1e-320
    scratch = np.full(f.size, np.nan)
    mask, levels, block = None, -2, f.copy()
    if masked:
        mask, levels = Region(0.2, 0.7).interior_mask(grid), -1
        block = np.take(np.swapaxes(f, -1, -2), np.flatnonzero(mask), axis=-2)
    with np.errstate(all="ignore"):
        ref = qmid_field(f, f, grid, tgrid.dt, mask=mask)
        got = qmid_field_inplace(block, scratch, grid, tgrid.dt, levels)
    assert got.shape == (width,) and block.flags.c_contiguous
    assert got.tobytes() == ref.tobytes()
    if width > 1:   # finite columns and non-finite ones both occur
        assert np.isfinite(ref).any() and not np.isfinite(ref).all()

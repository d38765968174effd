"""Inner products, norms and the H^-1 realization."""

import numpy as np
import pytest

from stackheat.errors import EmptyRegionError
from stackheat.grids import (LEFT, RIGHT, BoundarySet, BoundaryTrace, Region,
                             SpaceTimeField, SpatialGrid, TimeGrid)
from stackheat.products import (h10_norm, hminus1_norm, l2_boundary, l2_q,
                                l2_region, neg_laplacian_solve)


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


def test_l2_region_constant_area():
    grid, tgrid = make_grids(n=50)
    one = SpaceTimeField.from_function(grid, tgrid, lambda x, t: np.ones_like(x))
    val = l2_region(one, one, Region(0.4, 0.8))
    assert abs(val - 0.4) < 2 * grid.dx


def test_l2_region_empty_after_clipping():
    grid, tgrid = SpatialGrid(4), TimeGrid(4, 1.0)
    one = SpaceTimeField.from_function(grid, tgrid, lambda x, t: np.ones_like(x))
    with pytest.raises(EmptyRegionError):
        l2_region(one, one, Region(0.41, 0.42))


def test_l2_boundary_weights():
    grid, tgrid = make_grids()
    u = BoundaryTrace(tgrid, LEFT, np.ones(tgrid.n_levels))
    bset = BoundarySet.from_sides(LEFT, weight=2.0)
    assert l2_boundary(u, u, bset) == pytest.approx(2.0, rel=1e-12)
    off = BoundarySet.from_sides(RIGHT)
    assert l2_boundary(u, u, off) == 0.0


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


@pytest.mark.parametrize("n", [2, 3, 30])
def test_neg_laplacian_solve_matches_banded_reference_bitwise(n):
    from scipy.linalg import solve_banded

    grid = SpatialGrid(n)
    u = np.random.default_rng(n).standard_normal(n)
    ab = np.zeros((3, n))
    ab[0, 1:] = -1.0
    ab[1, :] = 2.0
    ab[2, :-1] = -1.0
    ref = solve_banded((1, 1), ab / grid.dx ** 2, u)
    u_before = u.copy()
    assert np.array_equal(neg_laplacian_solve(u, grid), ref)
    assert np.array_equal(u, u_before)
    u[0] = np.inf
    with pytest.raises(ValueError):
        neg_laplacian_solve(u, grid)

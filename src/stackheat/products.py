"""Inner products, norms and quadratures on the discrete grids.

Two families of time quadrature coexist on purpose:

* trapezoid quadrature (``l2_q``, ``l2_region``, ``l2_boundary``) for norms,
  stopping criteria and reporting;
* the scheme-consistent midpoint quadrature (``qmid_*``), which pairs step
  averages of nodal sequences.  The Crank-Nicolson scheme satisfies an exact
  summation-by-parts identity in this pairing, which is what makes the
  discrete optimality systems exactly stationary and the HUM Gram operator
  exactly symmetric.

The H^-1 norm is realized through the exact inverse of the discrete Dirichlet
Laplacian (one tridiagonal solve), consistent with the duality used by HUM.
"""

from __future__ import annotations

import numpy as np

from .grids import BoundarySet, BoundaryTrace, Region, SpaceTimeField, SpatialGrid, check_same_grids
from .heat import _tridiagonal_solve, favg, trapezoid_time_weights


def _space_weights(grid: SpatialGrid) -> np.ndarray:
    w = np.full(grid.n_nodes, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    return w


def l2_q(f: SpaceTimeField, g: SpaceTimeField) -> float:
    """Tensor trapezoid approximation of the space-time integral of f*g."""
    check_same_grids(f, g)
    wt = trapezoid_time_weights(f.tgrid.n_levels) * f.tgrid.dt
    wx = _space_weights(f.grid)
    return float(np.einsum("k,i,ki->", wt, wx, f.values * g.values))


def l2_region(f: SpaceTimeField, g: SpaceTimeField, region: Region) -> float:
    """Trapezoid-in-time integral of f*g restricted to the region's nodes.

    Characteristic-function quadrature: every interior node inside the region
    carries the full dx weight, no partial cells.
    """
    check_same_grids(f, g)
    mask = region.interior_mask(f.grid)
    wt = trapezoid_time_weights(f.tgrid.n_levels) * f.tgrid.dt
    prod = (f.interior * g.interior)[:, mask].sum(axis=1) * f.grid.dx
    return float(wt @ prod)


def l2_boundary(u: BoundaryTrace, w: BoundaryTrace, bset: BoundarySet) -> float:
    """Endpoint sum weighted by the boundary-set weights, trapezoid in time."""
    if u.tgrid != w.tgrid:
        raise ValueError("traces live on different time grids")
    if u.side != w.side:
        raise ValueError(f"traces live on different sides: {u.side!r} vs {w.side!r}")
    weight = bset.weight(u.side)
    wt = trapezoid_time_weights(u.tgrid.n_levels) * u.tgrid.dt
    return float(weight * (wt @ (u.values * w.values)))


def h10_inner(u: np.ndarray, v: np.ndarray, grid: SpatialGrid) -> float:
    """H^1_0 inner product of interior vectors (implicit zero boundary)."""
    du = np.diff(u, prepend=0.0, append=0.0)
    dv = np.diff(v, prepend=0.0, append=0.0)
    return float((du @ dv) / grid.dx)


def h10_norm(u: np.ndarray, grid: SpatialGrid) -> float:
    return float(np.sqrt(max(h10_inner(u, u, grid), 0.0)))


def neg_laplacian_solve(u: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Solve -D z = u on the interior nodes (homogeneous Dirichlet)."""
    u = np.array(u, dtype=float)  # a copy: gtsv overwrites its right-hand side
    if not np.isfinite(u).all():
        raise ValueError("right-hand side contains non-finite entries")
    n, h2 = grid.n_interior, grid.dx ** 2
    off = np.full(n - 1, -1.0) / h2
    return _tridiagonal_solve(off, np.full(n, 2.0) / h2, off, u)


def hminus1_norm(u: np.ndarray, grid: SpatialGrid) -> float:
    """Dual norm via the discrete Laplacian inverse: |u|_{-1} = |z|_{1,0}, -Dz = u."""
    z = neg_laplacian_solve(u, grid)
    return h10_norm(z, grid)


# --- scheme-consistent midpoint quadratures -------------------------------

def qmid_field(f: np.ndarray, g: np.ndarray, grid: SpatialGrid, dt: float,
               mask: np.ndarray | None = None) -> float:
    """Midpoint pairing dt*dx * sum_k favg(f)*favg(g) over interior nodes.

    ``f`` and ``g`` are interior nodal arrays of shape (n_levels, n_interior);
    both are treated as forward-in-time sequences.
    """
    fa, ga = favg(f), favg(g)
    prod = fa * ga
    if mask is not None:
        prod = prod[:, mask]
    return float(dt * grid.dx * prod.sum())


def qmid_trace(u: np.ndarray, w: np.ndarray, dt: float) -> float:
    """Midpoint pairing of two endpoint time traces (counting measure)."""
    return float(dt * (favg(u) * favg(w)).sum())


def l2q_norm_interior(f: np.ndarray, grid: SpatialGrid, dt: float) -> float:
    """Plain nodal L2(Q) norm of an interior array; used for stopping tests."""
    return float(np.sqrt(dt * grid.dx * (f * f).sum()))

"""Theta-scheme solvers for the 1D heat equation with Dirichlet data.

Space is discretized by second-order central differences on the uniform grid,
time by the one-parameter theta scheme (theta = 1/2 Crank-Nicolson, theta = 1
implicit Euler); both are unconditionally stable on [1/2, 1].  Dirichlet data
enters through the boundary rows of the stencil (ghost-free), so the interior
update for a step k -> k+1 reads

    (I - theta*dt*D) y^{k+1} = (I + (1-theta)*dt*D) y^k
        + dt * favg(source)^k + (dt/dx^2) * favg(boundary)^k at the edge rows

with D the interior discrete Laplacian and favg the scheme's forward-in-time
average theta*z^{k+1} + (1-theta)*z^k.  The backward solver is the exact time
reversal of the forward one, so backward-solving reversed data reproduces the
reversed forward solution to machine precision.

Each time step is one direct call of LAPACK ``gtsv``, the routine that
``scipy.linalg.solve_banded((1, 1), ...)`` calls for a tridiagonal matrix, so
results match that route bit for bit without its per-call overhead.  The raw
marches take trailing batch axes: ``gtsv`` solves every column of a step at
once, and each column equals its single-column march bit for bit.  Instead of
checking every step's data, a march checks its result once and rejects
non-finite values (non-finite data or overflow) with ``ValueError``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import GridMismatchError
from .grids import LEFT, RIGHT, BoundaryTrace, SpaceTimeField, SpatialGrid, TimeGrid

_GTSV, = get_lapack_funcs(("gtsv",), (np.empty(0),))


def favg(z: np.ndarray, theta: float) -> np.ndarray:
    """Step average of a forward-in-time nodal sequence (levels 0..K -> K midpoints)."""
    return theta * z[1:] + (1.0 - theta) * z[:-1]


def bavg(z: np.ndarray, theta: float) -> np.ndarray:
    """Step average of a backward-in-time nodal sequence (implicit level first)."""
    return theta * z[:-1] + (1.0 - theta) * z[1:]


def trapezoid_time_weights(n_levels: int) -> np.ndarray:
    w = np.ones(n_levels)
    w[0] = w[-1] = 0.5
    return w


def _check_theta(theta: float):
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta_scheme must lie in [1/2, 1], got {theta}")


def _tridiagonal_solve(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system with LAPACK ``gtsv``; ``rhs`` is (n,) or (n, nrhs).

    ``rhs`` may be overwritten.  Every caller's matrix is strictly diagonally
    dominant, so ``gtsv`` never meets a zero pivot; callers check finiteness.
    """
    return _GTSV(sub, diag, sup, rhs, overwrite_b=True)[3]


def _explicit_apply(y: np.ndarray, r: float) -> np.ndarray:
    """(I + (1-theta)*dt*D) y for an interior vector with zero extension.

    ``r`` is (1-theta)*dt/dx^2; ``y`` may carry trailing batch axes.
    """
    out = (1.0 - 2.0 * r) * y
    out[1:] += r * y[:-1]
    out[:-1] += r * y[1:]
    return out


def march(grid: SpatialGrid, tgrid: TimeGrid, y0: np.ndarray,
          source: np.ndarray | None = None,
          left: np.ndarray | None = None,
          right: np.ndarray | None = None,
          theta: float = 0.5) -> np.ndarray:
    """Raw forward march on interior arrays; returns (n_levels, n_interior, *B).

    ``y0`` has shape (n_interior, *B), ``source`` (n_levels, n_interior, *B)
    and ``left``/``right``, the Dirichlet boundary values per level,
    (n_levels, *B).  The trailing batch axes ``B`` are optional: an input
    without them (or with length-1 axes) is shared by every column.  This is
    the hot path shared by the public solvers and the coupled-system engines.
    """
    _check_theta(theta)
    n, klev = grid.n_interior, tgrid.n_levels
    inputs = ((y0, 1), (source, 2), (left, 1), (right, 1))
    batch = np.broadcast_shapes(*(np.shape(a)[core:] for a, core in inputs if a is not None))

    def lift(a, core):
        """``a`` with missing batch axes inserted, so it broadcasts over ``batch``."""
        a = np.asarray(a, dtype=float)
        return a.reshape(a.shape[:core] + (1,) * (len(batch) - (a.ndim - core)) + a.shape[core:])

    scale = tgrid.dt / grid.dx ** 2
    r = theta * tgrid.dt / grid.dx ** 2
    r_explicit = (1.0 - theta) * tgrid.dt / grid.dx ** 2
    sub = np.full(n - 1, -r)
    diag = np.full(n, 1.0 + 2.0 * r)

    y = np.empty((klev, n) + batch)
    if y.size == 0:
        return y   # no column to march; gtsv given no right-hand side corrupts memory
    y[0] = lift(y0, 1)
    src_mid = None if source is None else tgrid.dt * favg(lift(source, 2), theta)
    left_mid = None if left is None else scale * favg(lift(left, 1), theta)
    right_mid = None if right is None else scale * favg(lift(right, 1), theta)

    for k in range(klev - 1):
        rhs = _explicit_apply(y[k], r_explicit)
        if src_mid is not None:
            rhs = rhs + src_mid[k]
        if left_mid is not None:
            rhs[0] += left_mid[k]
        if right_mid is not None:
            rhs[-1] += right_mid[k]
        y[k + 1] = _tridiagonal_solve(sub, diag, sub, rhs)
    if not np.isfinite(y).all():
        raise ValueError("march produced non-finite values: non-finite data or overflow")
    return y


def march_backward(grid: SpatialGrid, tgrid: TimeGrid, terminal: np.ndarray,
                   source: np.ndarray | None = None,
                   left: np.ndarray | None = None,
                   right: np.ndarray | None = None,
                   theta: float = 0.5) -> np.ndarray:
    """Raw backward march (-q_t - Dq = f): forward march on reversed data."""
    rev = march(
        grid, tgrid, terminal,
        source=None if source is None else source[::-1],
        left=None if left is None else left[::-1],
        right=None if right is None else right[::-1],
        theta=theta,
    )
    return rev[::-1].copy()


def _validate_inputs(grid, tgrid, initial, source, left, right):
    initial = np.asarray(initial, dtype=float)
    if initial.shape == (grid.n_nodes,):
        initial = initial[1:-1]
    if initial.shape != (grid.n_interior,):
        raise GridMismatchError(
            f"initial/terminal datum has shape {initial.shape}, expected ({grid.n_interior},)"
        )
    if not np.all(np.isfinite(initial)):
        raise ValueError("initial/terminal datum contains non-finite entries")
    src = None
    if source is not None:
        if source.grid != grid or source.tgrid != tgrid:
            raise GridMismatchError("source field lives on a different grid")
        src = source.interior
    traces = {}
    for side, tr in ((LEFT, left), (RIGHT, right)):
        if tr is None:
            continue
        if tr.tgrid != tgrid:
            raise GridMismatchError(f"{side} trace lives on a different time grid")
        if tr.side != side:
            raise ValueError(f"trace tagged {tr.side!r} passed as the {side} datum")
        traces[side] = tr.values
    return initial, src, traces


def _assemble_field(grid, tgrid, interior, traces) -> SpaceTimeField:
    vals = np.zeros((tgrid.n_levels, grid.n_nodes))
    vals[:, 1:-1] = interior
    if LEFT in traces:
        vals[:, 0] = traces[LEFT]
    if RIGHT in traces:
        vals[:, -1] = traces[RIGHT]
    return SpaceTimeField(grid, tgrid, vals)


def solve_forward(grid: SpatialGrid, tgrid: TimeGrid, y0,
                  source: SpaceTimeField | None = None,
                  left: BoundaryTrace | None = None,
                  right: BoundaryTrace | None = None,
                  theta: float = 0.5) -> SpaceTimeField:
    """Solve y_t - y_xx = source with Dirichlet traces and initial datum y0.

    Level 0 of the result equals ``y0`` extended by the boundary data; the
    boundary rows carry the given traces at every level.
    """
    y0, src, traces = _validate_inputs(grid, tgrid, y0, source, left, right)
    interior = march(grid, tgrid, y0, src,
                     traces.get(LEFT), traces.get(RIGHT), theta)
    return _assemble_field(grid, tgrid, interior, traces)


def solve_backward(grid: SpatialGrid, tgrid: TimeGrid, terminal,
                   source: SpaceTimeField | None = None,
                   left: BoundaryTrace | None = None,
                   right: BoundaryTrace | None = None,
                   theta: float = 0.5) -> SpaceTimeField:
    """Solve -q_t - q_xx = source backward from the terminal datum.

    Identical to ``solve_forward`` under the reversal t -> T - t; level
    ``n_steps`` of the result equals the terminal datum.
    """
    qT, src, traces = _validate_inputs(grid, tgrid, terminal, source, left, right)
    interior = march_backward(grid, tgrid, qT, src,
                              traces.get(LEFT), traces.get(RIGHT), theta)
    return _assemble_field(grid, tgrid, interior, traces)


def normal_derivative(field: SpaceTimeField, side: str) -> BoundaryTrace:
    """Outward normal derivative at one endpoint, second-order one-sided stencil.

    Exact on quadratics.  At the left endpoint the outward normal is -x, at
    the right it is +x.
    """
    if field.grid.n_nodes < 4:
        raise ValueError("normal derivative needs at least 3 interior nodes")
    v = field.values
    dx = field.grid.dx
    if side == LEFT:
        vals = (3.0 * v[:, 0] - 4.0 * v[:, 1] + v[:, 2]) / (2.0 * dx)
    elif side == RIGHT:
        vals = (3.0 * v[:, -1] - 4.0 * v[:, -2] + v[:, -3]) / (2.0 * dx)
    else:
        raise ValueError(f"unknown side {side!r}")
    return BoundaryTrace(field.tgrid, side, vals)


def normal_derivative_o1(interior: np.ndarray, grid: SpatialGrid, side: str) -> np.ndarray:
    """First-order outward normal derivative of a homogeneous-Dirichlet field.

    This stencil (-u_1/dx at the left, -u_n/dx at the right) is the exact
    transpose of the Dirichlet boundary injection of the theta scheme, so the
    coupled optimality and adjoint systems built with it satisfy the discrete
    duality identities to machine precision.  ``interior`` has shape
    (n_interior,) or (n_levels, n_interior, *B) with optional trailing batch
    axes ``B``; the stencil reads the space axis, so the result has shape
    () or (n_levels, *B).
    """
    u = np.asarray(interior)
    col = 0 if side == LEFT else -1
    return -(u[col] if u.ndim == 1 else u[:, col]) / grid.dx

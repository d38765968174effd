"""Crank-Nicolson solvers for the 1D heat equation with Dirichlet data.

Space is discretized by second-order central differences on the uniform grid,
time by the Crank-Nicolson scheme, which is unconditionally stable.  Dirichlet
data enters through the boundary rows of the stencil (ghost-free), so the
interior update for a step k -> k+1 reads

    (I - dt/2*D) y^{k+1} = (I + dt/2*D) y^k
        + dt * favg(source)^k + (dt/dx^2) * favg(boundary)^k at the edge rows

with D the interior discrete Laplacian and favg the midpoint average
(z^{k+1} + z^k)/2.  The feedback laws, the HUM Gram operator and the probe
pair time levels with the midpoint quadrature, which is the scheme's exact
duality.  The backward solver is the exact time reversal of the forward one,
so backward-solving reversed data reproduces the reversed forward solution to
machine precision.

There are two raw marches with one contract.  ``march`` takes each time step
as one direct call of LAPACK ``gtsv``, the routine that
``scipy.linalg.solve_banded((1, 1), ...)`` calls for a tridiagonal matrix, so
its results match that route bit for bit; it is the reference the tests
compare against.  ``modal_march`` uses that D is diagonalized exactly by the
orthonormal DST-I matrix S (the fast-Poisson idea of Buzbee, Golub & Nielson,
SIAM J. Numer. Anal. 7, 1970): it transforms the datum and the step sources
once, runs one scalar recurrence per mode and transforms back, so a march costs
two matrix products and K vector updates instead of K tridiagonal solves.  It
agrees with ``march`` to round-off, and every solver of the package
(``solve_forward``/``solve_backward`` and the coupled systems) runs it.

Both take trailing batch axes, and each column equals its single-column march
bit for bit.  Instead of checking every step's data, a march checks its result
once and rejects non-finite values (non-finite data or overflow) with
``ValueError``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import GridMismatchError
from .grids import LEFT, RIGHT, BoundaryTrace, SpaceTimeField, SpatialGrid, TimeGrid

_GTSV, = get_lapack_funcs(("gtsv",), (np.empty(0),))


def favg(z: np.ndarray) -> np.ndarray:
    """Midpoint average of a nodal sequence in time (levels 0..K -> K midpoints)."""
    return 0.5 * z[1:] + 0.5 * z[:-1]


def trapezoid_time_weights(n_levels: int) -> np.ndarray:
    w = np.ones(n_levels)
    w[0] = w[-1] = 0.5
    return w


def _tridiagonal_solve(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system with LAPACK ``gtsv``; ``rhs`` is (n,) or (n, nrhs).

    ``rhs`` may be overwritten.  Every caller's matrix is strictly diagonally
    dominant, so ``gtsv`` never meets a zero pivot; callers check finiteness.
    """
    return _GTSV(sub, diag, sup, rhs, overwrite_b=True)[3]


def _explicit_apply(y: np.ndarray, r: float) -> np.ndarray:
    """(I + dt/2*D) y for an interior vector with zero extension.

    ``r`` is dt/(2 dx^2); ``y`` may carry trailing batch axes.
    """
    out = (1.0 - 2.0 * r) * y
    out[1:] += r * y[:-1]
    out[:-1] += r * y[1:]
    return out


def _batch_shape(y0, source, left, right) -> tuple:
    """Broadcast shape of the trailing batch axes of a march's inputs."""
    inputs = ((y0, 1), (source, 2), (left, 1), (right, 1))
    return np.broadcast_shapes(*(np.shape(a)[core:] for a, core in inputs if a is not None))


def _lift(a, core: int, batch: tuple) -> np.ndarray:
    """``a`` with missing batch axes inserted, so it broadcasts over ``batch``."""
    a = np.asarray(a, dtype=float)
    return a.reshape(a.shape[:core] + (1,) * (len(batch) - (a.ndim - core)) + a.shape[core:])


def march(grid: SpatialGrid, tgrid: TimeGrid, y0: np.ndarray,
          source: np.ndarray | None = None,
          left: np.ndarray | None = None,
          right: np.ndarray | None = None) -> np.ndarray:
    """Raw forward march on interior arrays; returns (n_levels, n_interior, *B).

    ``y0`` has shape (n_interior, *B), ``source`` (n_levels, n_interior, *B)
    and ``left``/``right``, the Dirichlet boundary values per level,
    (n_levels, *B).  The trailing batch axes ``B`` are optional: an input
    without them (or with length-1 axes) is shared by every column.  This is
    the hot path shared by the public solvers and the coupled-system engines.
    """
    n, klev = grid.n_interior, tgrid.n_levels
    batch = _batch_shape(y0, source, left, right)
    scale = tgrid.dt / grid.dx ** 2
    r = 0.5 * tgrid.dt / grid.dx ** 2
    sub = np.full(n - 1, -r)
    diag = np.full(n, 1.0 + 2.0 * r)

    y = np.empty((klev, n) + batch)
    if y.size == 0:
        return y   # no column to march; gtsv given no right-hand side corrupts memory
    y[0] = _lift(y0, 1, batch)
    src_mid = None if source is None else tgrid.dt * favg(_lift(source, 2, batch))
    left_mid = None if left is None else scale * favg(_lift(left, 1, batch))
    right_mid = None if right is None else scale * favg(_lift(right, 1, batch))

    for k in range(klev - 1):
        rhs = _explicit_apply(y[k], r)
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


def _reversed(forward, grid, tgrid, terminal, source, left, right) -> np.ndarray:
    """Backward march (-q_t - Dq = f) as the ``forward`` march of time-reversed data."""
    rev = forward(
        grid, tgrid, terminal,
        source=None if source is None else source[::-1],
        left=None if left is None else left[::-1],
        right=None if right is None else right[::-1],
    )
    return rev[::-1].copy()


def march_backward(grid: SpatialGrid, tgrid: TimeGrid, terminal: np.ndarray,
                   source: np.ndarray | None = None,
                   left: np.ndarray | None = None,
                   right: np.ndarray | None = None) -> np.ndarray:
    """Raw backward march (-q_t - Dq = f): forward march on reversed data."""
    return _reversed(march, grid, tgrid, terminal, source, left, right)


@functools.lru_cache(maxsize=16)
def _modal_basis(grid: SpatialGrid, tgrid: TimeGrid) -> tuple:
    """(S, lam, c): the orthonormal DST-I matrix and the per-mode step factors.

    S is symmetric and S D S = -diag(mu) / dx^2 with mu_j = 4 sin^2(j pi / (2(n+1))),
    so a step of the scheme is z^{k+1} = lam * z^k + c * (S h^k) per mode, with
    lam = (1 - r mu / 2) / (1 + r mu / 2), c = 1 / (1 + r mu / 2) and
    r = dt/dx^2.  The arrays are shared by every caller, hence read-only.
    """
    n = grid.n_interior
    j = np.arange(1, n + 1)
    # sin(jk pi/(n+1)) has period 2(n+1) in jk; reducing first keeps the argument
    # below 2 pi, so its rounding error does not grow like n^2
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) % (2 * (n + 1)) * (np.pi / (n + 1)))
    rmu = tgrid.dt / grid.dx ** 2 * 4.0 * np.sin(j * (np.pi / (2 * (n + 1)))) ** 2
    lam = (1.0 - 0.5 * rmu) / (1.0 + 0.5 * rmu)
    c = 1.0 / (1.0 + 0.5 * rmu)
    for a in (s, lam, c):
        a.setflags(write=False)
    return s, lam, c


def modal_march(grid: SpatialGrid, tgrid: TimeGrid, y0: np.ndarray,
                source: np.ndarray | None = None,
                left: np.ndarray | None = None,
                right: np.ndarray | None = None) -> np.ndarray:
    """``march`` in the sine eigenbasis of D: same arguments, result and errors.

    The datum and the step sources (the right-hand side of ``march`` without
    its explicit part) are transformed by S, each mode runs its scalar
    recurrence, and the levels are transformed back; level 0 is the datum
    itself, since S S y0 equals y0 only to round-off.  The result agrees with
    ``march`` to round-off.  Each column's transforms are one
    (n_levels, n) @ (n, n) product of the shape a lone march multiplies, on
    strided views of unit inner stride that BLAS reads and writes without a
    copy, and the recurrence is elementwise, so a column equals its lone
    march bit for bit.
    """
    n, klev = grid.n_interior, tgrid.n_levels
    batch = _batch_shape(y0, source, left, right)
    if math.prod(batch) == 0:
        return np.empty((klev, n) + batch)
    s, lam, c = _modal_basis(grid, tgrid)
    scale = tgrid.dt / grid.dx ** 2
    # z is laid out (level, *batch, space), so each level is one contiguous block
    bat = tuple(range(1, 1 + len(batch)))
    y0 = _lift(y0, 1, batch).transpose(bat + (0,))
    z = np.zeros((klev,) + batch + (n,))
    z[0] = y0
    if source is not None:
        h = tgrid.dt * favg(_lift(source, 2, batch))
        z[1:] = h.transpose((0,) + tuple(a + 1 for a in bat) + (1,))
    if left is not None:
        z[1:, ..., 0] += scale * favg(_lift(left, 1, batch))
    if right is not None:
        z[1:, ..., -1] += scale * favg(_lift(right, 1, batch))
    per_column = bat + (0, len(bat) + 1)
    w = np.empty_like(z)
    np.matmul(z.transpose(per_column), s, out=w.transpose(per_column))
    w[1:] *= c
    for prev, cur in zip(w, w[1:]):
        cur += lam * prev
    np.matmul(w.transpose(per_column), s, out=z.transpose(per_column))
    z[0] = y0
    if not np.isfinite(z).all():
        raise ValueError("march produced non-finite values: non-finite data or overflow")
    return np.ascontiguousarray(z.transpose((0, len(bat) + 1) + bat))


def modal_march_backward(grid: SpatialGrid, tgrid: TimeGrid, terminal: np.ndarray,
                         source: np.ndarray | None = None,
                         left: np.ndarray | None = None,
                         right: np.ndarray | None = None) -> np.ndarray:
    """``march_backward`` through ``modal_march``: the same reversal of its data."""
    return _reversed(modal_march, grid, tgrid, terminal, source, left, right)


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
                  right: BoundaryTrace | None = None) -> SpaceTimeField:
    """Solve y_t - y_xx = source with Dirichlet traces and initial datum y0.

    Level 0 of the result equals ``y0`` extended by the boundary data; the
    boundary rows carry the given traces at every level.
    """
    y0, src, traces = _validate_inputs(grid, tgrid, y0, source, left, right)
    interior = modal_march(grid, tgrid, y0, src,
                           traces.get(LEFT), traces.get(RIGHT))
    return _assemble_field(grid, tgrid, interior, traces)


def solve_backward(grid: SpatialGrid, tgrid: TimeGrid, terminal,
                   source: SpaceTimeField | None = None,
                   left: BoundaryTrace | None = None,
                   right: BoundaryTrace | None = None) -> SpaceTimeField:
    """Solve -q_t - q_xx = source backward from the terminal datum.

    Identical to ``solve_forward`` under the reversal t -> T - t; level
    ``n_steps`` of the result equals the terminal datum.
    """
    qT, src, traces = _validate_inputs(grid, tgrid, terminal, source, left, right)
    interior = modal_march_backward(grid, tgrid, qT, src,
                                    traces.get(LEFT), traces.get(RIGHT))
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
    transpose of the Dirichlet boundary injection of the scheme, so the
    coupled optimality and adjoint systems built with it satisfy the discrete
    duality identities to machine precision.  ``interior`` has shape
    (n_interior,) or (n_levels, n_interior, *B) with optional trailing batch
    axes ``B``; the stencil reads the space axis, so the result has shape
    () or (n_levels, *B).
    """
    u = np.asarray(interior)
    col = 0 if side == LEFT else -1
    return -(u[col] if u.ndim == 1 else u[:, col]) / grid.dx

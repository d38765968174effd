"""The gtsv march: Crank-Nicolson one LAPACK tridiagonal solve per step.

Each step is one direct call of LAPACK ``gtsv``, the routine that
``scipy.linalg.solve_banded((1, 1), ...)`` calls for a tridiagonal matrix, so
the results match that route bit for bit.  It takes the arguments of
``heat.modal_march`` and returns its result to round-off; the tests hold the
modal march to it.
"""

import numpy as np
from scipy.linalg import get_lapack_funcs

from stackheat.grids import SpatialGrid, TimeGrid
from stackheat.heat import favg

_GTSV, = get_lapack_funcs(("gtsv",), (np.empty(0),))


def _tridiagonal_solve(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system with LAPACK ``gtsv``; ``rhs`` is (n,) or (n, nrhs).

    ``rhs`` may be overwritten.  The march's matrix is strictly diagonally
    dominant, so ``gtsv`` never meets a zero pivot; ``march`` checks finiteness.
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


def march(grid: SpatialGrid, tgrid: TimeGrid, y0: np.ndarray,
          source: np.ndarray | None = None,
          left: np.ndarray | None = None,
          right: np.ndarray | None = None) -> np.ndarray:
    """Raw forward march on interior arrays; returns (*B, n_levels, n_interior).

    ``y0`` has shape (*B, n_interior), ``source`` (*B, n_levels, n_interior)
    and ``left``/``right``, the Dirichlet boundary values per level,
    (*B, n_levels).  The leading batch axes ``B`` are optional: an input
    without them (or with length-1 axes) is shared by every column.  Each step
    is one LAPACK ``gtsv`` solve on (n_interior, *B) right-hand sides: the
    inputs are broadcast over the batch with its axes moved last, and the
    result is laid out with them first again.
    """
    n, klev = grid.n_interior, tgrid.n_levels
    inputs = ((y0, 1), (source, 2), (left, 1), (right, 1))
    batch = np.broadcast_shapes(*(np.shape(a)[:-core] for a, core in inputs if a is not None))

    def trailing(a, core):
        """``a`` broadcast over the batch, the batch axes moved after its own."""
        a = np.broadcast_to(a, batch + np.shape(a)[-core:])
        return np.moveaxis(a, range(len(batch)), range(core, core + len(batch)))

    scale = tgrid.dt / grid.dx ** 2
    r = 0.5 * tgrid.dt / grid.dx ** 2
    sub = np.full(n - 1, -r)
    diag = np.full(n, 1.0 + 2.0 * r)

    y = np.empty((klev, n) + batch)
    if y.size == 0:
        # no column to march; gtsv given no right-hand side corrupts memory
        return np.moveaxis(y, (0, 1), (-2, -1))
    y[0] = trailing(y0, 1)
    src_mid = None if source is None else tgrid.dt * favg(trailing(source, 2))
    left_mid = None if left is None else scale * favg(trailing(left, 1))
    right_mid = None if right is None else scale * favg(trailing(right, 1))

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
    return np.ascontiguousarray(np.moveaxis(y, (0, 1), (-2, -1)))


def march_backward(grid: SpatialGrid, tgrid: TimeGrid, terminal: np.ndarray,
                   source: np.ndarray | None = None,
                   left: np.ndarray | None = None,
                   right: np.ndarray | None = None) -> np.ndarray:
    """Raw backward march (-q_t - Dq = f): forward march on reversed data."""
    rev = march(
        grid, tgrid, terminal,
        source=None if source is None else source[..., ::-1, :],
        left=None if left is None else left[..., ::-1],
        right=None if right is None else right[..., ::-1],
    )
    return rev[..., ::-1, :].copy()

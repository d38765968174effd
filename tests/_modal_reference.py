"""The modal march as it allocated before its plan: the bitwise reference.

``modal_march``/``modal_march_backward`` are the modal Crank-Nicolson march
and its reversal with fresh work arrays on every call, copied verbatim from
the version before the march kept per-grid work buffers.  The tests hold
``heat.modal_march`` and ``heat.modal_march_backward`` to them with
``np.array_equal``.
"""

import functools
import math

import numpy as np

from stackheat.errors import NonFiniteError
from stackheat.grids import SpatialGrid, TimeGrid
from stackheat.heat import favg


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
    """Raw forward march on interior arrays; returns (*B, n_levels, n_interior).

    ``y0`` has shape (*B, n_interior), ``source`` (*B, n_levels, n_interior)
    and ``left``/``right``, the Dirichlet boundary values per level,
    (*B, n_levels).  The leading batch axes ``B`` are optional: an input
    without them (or with length-1 axes) is shared by every column.

    The datum and the step sources (the right-hand side of a step without its
    explicit part) are transformed by S, each mode runs its scalar recurrence,
    and the levels are transformed back; level 0 is the datum itself, since
    S S y0 equals y0 only to round-off.  Each column's transforms are one
    (n_levels, n) @ (n, n) product of the shape a lone march multiplies, on
    strided views of unit inner stride that BLAS reads and writes without a
    copy, and the recurrence is elementwise, so a column equals its lone
    march bit for bit.
    """
    n, klev = grid.n_interior, tgrid.n_levels
    batch = np.broadcast_shapes(*(np.shape(a)[:-core] for a, core in
                                  ((y0, 1), (source, 2), (left, 1), (right, 1)) if a is not None))
    size = math.prod(batch)
    if size == 0:
        return np.empty(batch + (klev, n))
    s, lam, c = _modal_basis(grid, tgrid)
    scale = tgrid.dt / grid.dx ** 2
    # z is laid out (level, *batch, space), so each level is one contiguous
    # block; ``columns`` is the same memory seen as (*batch, level, space)
    z = np.zeros((klev,) + batch + (n,))
    per_column = tuple(range(1, 1 + len(batch))) + (0, len(batch) + 1)
    columns = z.transpose(per_column)
    z[0] = y0
    if source is not None:
        columns[..., 1:, :] = tgrid.dt * favg(source, -2)
    if left is not None:
        columns[..., 1:, 0] += scale * favg(left, -1)
    if right is not None:
        columns[..., 1:, -1] += scale * favg(right, -1)
    w = np.empty_like(z)
    np.matmul(columns, s, out=w.transpose(per_column))
    w[1:] *= c
    # each level is one row of the modes of every column in turn, so a step
    # is two vector operations whatever the batch
    rows, lam_rows = w.reshape(klev, -1), np.tile(lam, size)
    for prev, cur in zip(rows, rows[1:]):
        cur += lam_rows * prev
    np.matmul(w.transpose(per_column), s, out=columns)
    z[0] = y0
    if not np.isfinite(z).all():
        raise NonFiniteError("march produced non-finite values: non-finite data or overflow")
    return np.ascontiguousarray(columns)


def modal_march_backward(grid: SpatialGrid, tgrid: TimeGrid, terminal: np.ndarray,
                         source: np.ndarray | None = None,
                         left: np.ndarray | None = None,
                         right: np.ndarray | None = None) -> np.ndarray:
    """Raw backward march (-q_t - Dq = f): ``modal_march`` of time-reversed data."""
    rev = modal_march(
        grid, tgrid, terminal,
        source=None if source is None else source[..., ::-1, :],
        left=None if left is None else left[..., ::-1],
        right=None if right is None else right[..., ::-1],
    )
    return rev[..., ::-1, :].copy()

"""Inner products, norms and quadratures on the discrete grids.

Two families of time quadrature coexist on purpose:

* trapezoid quadrature (``l2_q``) for the norms of the field controls that
  ``run`` reports, the disturbance (A/B) and B's follower.  An edge
  follower (A/C/D) is normed by ``runner._follower_norm`` instead, as
  sqrt(dt * sum(v**2)) over all K + 1 levels, both ends at full weight,
  summed over its edge traces;
* the scheme-consistent midpoint quadrature (``qmid_*``), which pairs step
  averages of nodal sequences.  The Crank-Nicolson scheme satisfies an exact
  summation-by-parts identity in this pairing, which is what makes the
  discrete optimality systems exactly stationary and the HUM Gram operator
  exactly symmetric.

The H^1_0 product is the node-difference form.  The H^-1 norm is realized
through the exact inverse of the discrete Dirichlet Laplacian, consistent
with the duality used by HUM: the DST-I matrix S of ``heat._dst``
diagonalizes -D, so the inverse is a diagonal scale of S u, and the norm is
one product with S and one weighted sum of squares.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import SpaceTimeField, SpatialGrid, check_same_grids
from .heat import _dst, favg, trapezoid_time_weights

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


def h10_inner(u: np.ndarray, v: np.ndarray, grid: SpatialGrid) -> float:
    """H^1_0 inner product of interior vectors (implicit zero boundary).

    The node differences have the bits of ``np.diff(u, prepend=0.0,
    append=0.0)`` at a quarter of its cost per call: the probe norms every
    sample.
    """
    pu = np.concatenate(([0.0], u, [0.0]))
    pv = np.concatenate(([0.0], v, [0.0]))
    return float(((pu[1:] - pu[:-1]) @ (pv[1:] - pv[:-1])) / grid.dx)


def h10_norm(u: np.ndarray, grid: SpatialGrid) -> float:
    return float(np.sqrt(max(h10_inner(u, u, grid), 0.0)))


def hminus1_norm(u: np.ndarray, grid: SpatialGrid) -> float:
    """Dual norm via the discrete Laplacian inverse: |u|_{-1} = |z|_{1,0}, -Dz = u.

    With S and mu of ``heat._dst``, S (-D) S = diag(mu) / dx^2, so
    |z|_{1,0}^2 = dx * u.z = dx^3 * sum_j (S u)_j^2 / mu_j.
    """
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("argument contains non-finite entries")
    s, mu = _dst(grid)
    uh = u @ s
    return float(np.sqrt(grid.dx ** 3 * np.sum(uh * uh / mu)))


# --- scheme-consistent midpoint quadratures -------------------------------
#
# Both pairings take leading block axes: a (..., n_levels, n_interior) field or
# a (..., n_levels) trace is a block of columns, each paired on its own, and a
# lone column is the block of none.  Each column's value is the bits of its
# lone pairing, because it sums the same products in the same memory order.

def _column_sums(prod: np.ndarray, core: int):
    """Sum of each column's last ``core`` axes, in C order; a float for a lone column.

    Each column is first made one contiguous row: numpy sums a contiguous row
    pairwise, as a lone ``sum`` does, but a row strided across the columns
    of a block in plain sequence.
    """
    lead, tail = prod.shape[:prod.ndim - core], prod.shape[prod.ndim - core:]
    rows = np.ascontiguousarray(prod).reshape(lead + (math.prod(tail),))  # a block may be empty
    total = rows.sum(axis=-1)
    return total if total.ndim else float(total)


def qmid_field(f: np.ndarray, g: np.ndarray, grid: SpatialGrid, dt: float,
               mask: np.ndarray | None = None):
    """Midpoint pairing dt*dx * sum_k favg(f)*favg(g) over interior nodes.

    ``f`` and ``g`` are interior nodal arrays of shape (..., n_levels,
    n_interior), both treated as forward-in-time sequences; ``mask`` selects
    interior nodes.  Returns a float for one column and an array of the
    leading shape for a block.  Each column sums its products level-major
    without a mask and node-major with one: numpy lays out ``prod[:, mask]``
    as (nodes, levels) in memory, and a lone sum runs in memory order.  So
    a masked pairing first takes the nodes as C-contiguous (..., nodes,
    n_levels) rows.  A self-pairing (``g is f``) averages once.
    """
    pair = (f,) if g is f else (f, g)
    levels = -2
    if mask is not None:
        nodes = np.flatnonzero(mask)
        pair = tuple(np.take(np.swapaxes(a, -1, -2), nodes, axis=-2) for a in pair)
        levels = -1
    avg = [favg(a, levels) for a in pair]
    prod = np.multiply(avg[0], avg[-1], out=avg[0])
    return dt * grid.dx * _column_sums(prod, 2)


def _view(flat: np.ndarray, shape) -> np.ndarray:
    """The leading part of the flat buffer ``flat`` as a C-contiguous array of ``shape``."""
    return flat[:math.prod(shape)].reshape(shape)


def qmid_field_inplace(f: np.ndarray, scratch: np.ndarray, grid: SpatialGrid, dt: float,
                       levels: int = -2) -> np.ndarray:
    """``qmid_field(f, f, grid, dt)`` of a (w, ., .) block, with no temporary of its size.

    ``levels`` is the axis of ``f``'s time levels: -2 for level-major
    columns, -1 for node-major ones, the layout of a masked pairing.  ``f``
    is halved in place, its neighbouring halves are added into the leading
    part of the flat ``scratch`` and squared there, and each column's
    contiguous row is summed: ``favg``'s rounding and ``_column_sums``'
    order, so each column has the bits of ``qmid_field``.
    """
    shape = list(f.shape)
    shape[levels] -= 1
    avg = _view(scratch, shape)
    f *= 0.5
    lead = (slice(None),) * (levels % f.ndim)
    np.add(f[lead + (slice(1, None),)], f[lead + (slice(None, -1),)], out=avg)
    np.multiply(avg, avg, out=avg)
    return dt * grid.dx * _column_sums(avg, 2)


def qmid_trace(u: np.ndarray, w: np.ndarray, dt: float):
    """Midpoint pairing of two endpoint time traces (counting measure).

    ``u`` and ``w`` are (..., n_levels); a float for one trace, an array of
    the leading shape for a block.
    """
    return dt * _column_sums(favg(u, -1) * favg(w, -1), 1)

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

The H^-1 norm is realized through the exact inverse of the discrete Dirichlet
Laplacian, consistent with the duality used by HUM.  That inverse is one
Thomas solve on Python floats with the operations of LAPACK ``gtsv`` (no row
interchange, since the matrix is strictly diagonally dominant), so its result
has the bits of ``scipy.linalg.solve_banded`` without importing scipy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grids import SpaceTimeField, SpatialGrid, check_same_grids
from .heat import favg, trapezoid_time_weights

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


def h10_diff(u: np.ndarray) -> np.ndarray:
    """Node differences of an interior vector with its zero boundary values.

    The bits of ``np.diff(u, prepend=0.0, append=0.0)``, the sign of zero
    included, without building the padded copy.
    """
    d = np.empty(len(u) + 1)
    d[0] = u[0] - 0.0
    d[1:-1] = u[1:] - u[:-1]
    d[-1] = 0.0 - u[-1]
    return d


def h10_dot(du: np.ndarray, dv: np.ndarray, grid: SpatialGrid) -> float:
    """H^1_0 inner product of the vectors whose ``h10_diff`` are du and dv."""
    return float((du @ dv) / grid.dx)


def h10_inner(u: np.ndarray, v: np.ndarray, grid: SpatialGrid) -> float:
    """H^1_0 inner product of interior vectors (implicit zero boundary)."""
    return h10_dot(h10_diff(u), h10_diff(v), grid)


def h10_norm(u: np.ndarray, grid: SpatialGrid) -> float:
    return float(np.sqrt(max(h10_inner(u, u, grid), 0.0)))


@functools.lru_cache(maxsize=None)
def _factors(n: int, dx: float) -> tuple:
    """(off-diagonal, elimination factors, pivots) of -D on n interior nodes.

    ``gtsv``'s elimination without row interchange, done once per grid: the
    factor of row i is off/d[i], and it leaves d[i+1] - factor*off as the
    next pivot.
    """
    h2 = dx ** 2
    off, d = -1.0 / h2, [2.0 / h2] * n
    fact = []
    for i in range(n - 1):
        fact.append(off / d[i])
        d[i + 1] -= fact[i] * off
    return off, tuple(fact), tuple(d)


def neg_laplacian_solve(u: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Solve -D z = u on the interior nodes (homogeneous Dirichlet).

    The forward and back sweeps of ``gtsv`` on Python floats, in its order of
    operations, so the result has its bits; ``- 0.0 * b[i + 2]`` is its
    zeroed fill-in term, which sets the sign of a zero.
    """
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("right-hand side contains non-finite entries")
    n = grid.n_interior
    off, fact, d = _factors(n, grid.dx)
    b = u.tolist()
    x = b[0]
    for i in range(1, n):
        x = b[i] = b[i] - fact[i - 1] * x
    b[-1] /= d[-1]
    b[-2] = (b[-2] - off * b[-1]) / d[-2]   # a grid has n >= 2 interior nodes
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - off * b[i + 1] - 0.0 * b[i + 2]) / d[i]
    return np.fromiter(b, float, n)


def hminus1_norm(u: np.ndarray, grid: SpatialGrid) -> float:
    """Dual norm via the discrete Laplacian inverse: |u|_{-1} = |z|_{1,0}, -Dz = u."""
    z = neg_laplacian_solve(u, grid)
    return h10_norm(z, grid)


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


def qmid_trace(u: np.ndarray, w: np.ndarray, dt: float):
    """Midpoint pairing of two endpoint time traces (counting measure).

    ``u`` and ``w`` are (..., n_levels); a float for one trace, an array of
    the leading shape for a block.
    """
    return dt * _column_sums(favg(u, -1) * favg(w, -1), 1)

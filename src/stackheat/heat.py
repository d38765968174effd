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

The march, ``modal_march``, uses that D is diagonalized exactly by the
orthonormal DST-I matrix S (the fast-Poisson idea of Buzbee, Golub & Nielson,
SIAM J. Numer. Anal. 7, 1970): it transforms the datum and the step sources
once, runs one scalar recurrence per mode (``_recurrence``, the core) and
transforms back, so a march costs two matrix products and K vector updates.
``solve_forward``/``solve_backward`` and every march of explicit controls
run it.  The coupled systems' Picard sweeps (``saddle``, ``hum``) never
leave the modal coefficients: ``_modal_levels`` is the core alone, fed modal
sources and edge values, forward or backward, and they transform back once,
at exit.  ``saddle.verify_saddle`` marches its deviations' responses the
same way, reads them back on the observed nodes only, and marches their
transpose backward for its Lanczos fallback.  The one normal
derivative, ``normal_derivative_o1``, is first order: the exact transpose of
the boundary rows, so the coupled systems keep the duality.

S and the eigenvalues mu of -D it shows are cached per grid (``_dst``);
``products`` and ``hum`` read them too.  Each (grid, tgrid) pair has a plan
(``_Plan``, cached by ``_plan``): S, the step factors, one pair of work
buffers grown to the widest batch marched so far and, per batch shape, the
factors tiled to one level row and a few scratch rows (``_Work``).  A
forward march writes its inputs and modal coefficients into those buffers in
place, forms its boundary averages and each level's product in the scratch
rows and allocates only its result;
``modal_march_backward`` adds one reversed copy.  A ``_modal_levels`` march
has no result array: it forms its inputs in the plan's buffers, runs a
backward recurrence from the last level down, in place, and returns the
levels as a view of the plan's buffer.  A ``_Work`` also carries its plan's
S, dt and dt/dx^2, so ``_modal_levels`` takes no grid and looks up no plan:
a caller that sweeps holds its plan (``saddle._Problem.modal``) and takes
``plan.work(batch)`` for every march.  It keeps no ``_Work``, because a
wider batch replaces the plan's buffers and with them every view.  The bits
of ``modal_march`` rest on the order of operations it states.  Marches on
one grid pair share its buffers, so they must not run at once in threads of
one process; the package starts none.

Every array of a batch of independent columns puts the column axes first: a
march takes ``y0`` (*B, n), ``source`` (*B, n_levels, n) and boundary values
(*B, n_levels), and returns (*B, n_levels, n), each column one C-contiguous
block that equals its single-column march bit for bit.  Instead of checking
every step's data, the march checks its result once and rejects non-finite
values (non-finite data or overflow) with ``NonFiniteError``, a ``ValueError``.
"""

from __future__ import annotations

import collections
import functools
import math

import numpy as np

from .errors import GridMismatchError, NonFiniteError
from .grids import LEFT, RIGHT, BoundaryTrace, SpaceTimeField, SpatialGrid, TimeGrid


def favg(z: np.ndarray, axis: int = 0) -> np.ndarray:
    """Midpoint average of a nodal sequence in time along the levels axis ``axis``.

    Levels 0..K become K midpoints.
    """
    lead = (slice(None),) * (axis % np.ndim(z))
    return 0.5 * z[lead + (slice(1, None),)] + 0.5 * z[lead + (slice(None, -1),)]


def trapezoid_time_weights(n_levels: int) -> np.ndarray:
    w = np.ones(n_levels)
    w[0] = w[-1] = 0.5
    return w


# What a march of one batch shape works in: z/w laid out (level, *batch,
# space), so each level is one contiguous block, and the same memory seen as
# (*batch, level, space) (the ``_columns`` views); ``w_rows`` is w with each
# level one row (the modes of every column in turn), ``steps`` pairs each row
# with the next, ``lam_rows``/``c_rows`` are lam/c tiled to one row and
# ``product`` is a scratch row of that length; ``edge`` (*batch, level) and
# ``edge_avg`` (*batch, level - 1) are scratch for a boundary row and its
# midpoint averages; ``s``, ``dt`` and ``r`` = dt/dx^2 are the plan's, so a
# march given its ``_Work`` needs no grid.
_Work = collections.namedtuple("_Work", "z z_columns w w_columns w_rows steps lam_rows c_rows "
                                        "product edge edge_avg s dt r")


@functools.lru_cache(maxsize=16)
def _dst(grid: SpatialGrid) -> tuple:
    """(S, mu) of ``grid``: the orthonormal DST-I matrix and the eigenvalues of -D it shows.

    S is symmetric, with S D S = -diag(mu) / dx^2 and
    mu_j = 4 sin^2(j pi / (2(n+1))).  Both arrays are read-only.
    """
    n = grid.n_interior
    j = np.arange(1, n + 1)
    # sin(jk pi/(n+1)) has period 2(n+1) in jk; reducing first keeps the argument
    # below 2 pi, so its rounding error does not grow like n^2
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) % (2 * (n + 1)) * (np.pi / (n + 1)))
    mu = 4.0 * np.sin(j * (np.pi / (2 * (n + 1)))) ** 2
    for a in (s, mu):
        a.setflags(write=False)
    return s, mu


class _Plan:
    """What every march on one (grid, tgrid) pair shares: its factors and work buffers.

    ``s`` is the grid's S (``_dst``), so a step of the scheme is
    z^{k+1} = lam * z^k + c * (S h^k) per mode, with
    lam = (1 - r mu / 2) / (1 + r mu / 2), c = 1 / (1 + r mu / 2) and
    r = dt/dx^2.  These arrays are read-only.

    The two work buffers are flat: ``z`` holds a batch's level-major inputs
    (datum and step sources), ``w`` their modal coefficients.  They grow to
    the widest batch marched so far and a narrower batch uses their leading
    part, so the plan retains at most 2 x (widest batch x n_levels x n)
    floats.  ``work`` hands out the ``_Work`` of one batch shape, built once;
    its tiled factors and scratch rows add about 5 x (batch x max(n,
    n_levels)) floats per batch shape.
    """

    def __init__(self, grid: SpatialGrid, tgrid: TimeGrid):
        self.s, mu = _dst(grid)
        self.dt, self.r = tgrid.dt, tgrid.dt / grid.dx ** 2
        # r * (4 sin^2) has the bits of (r * 4) sin^2: a product by 4 is exact
        rmu = self.r * mu
        lam = (1.0 - 0.5 * rmu) / (1.0 + 0.5 * rmu)
        c = 1.0 / (1.0 + 0.5 * rmu)
        for a in (lam, c):
            a.setflags(write=False)
        self.lam, self.c = lam, c
        self.shape = (tgrid.n_levels, grid.n_interior)
        self.z = self.w = np.empty(0)
        self._views = {}

    def work(self, batch: tuple) -> _Work:
        """The views and scratch rows of the batch shape ``batch`` (``_Work``), built once."""
        views = self._views.get(batch)
        if views is None:
            klev, n = self.shape
            size = math.prod(batch)
            need = klev * size * n
            if need > self.z.size:
                self.z, self.w = np.empty(need), np.empty(need)
                self._views.clear()
            per_column = tuple(range(1, 1 + len(batch))) + (0, len(batch) + 1)
            z, w = (buf[:need].reshape((klev,) + batch + (n,)) for buf in (self.z, self.w))
            w_rows = w.reshape(klev, -1)
            views = _Work(z, z.transpose(per_column), w, w.transpose(per_column), w_rows,
                          list(zip(w_rows, w_rows[1:])), np.tile(self.lam, size),
                          np.tile(self.c, size), np.empty(size * n),
                          np.empty(batch + (klev,)), np.empty(batch + (klev - 1,)),
                          self.s, self.dt, self.r)
            self._views[batch] = views
        return views


@functools.lru_cache(maxsize=16)
def _plan(grid: SpatialGrid, tgrid: TimeGrid) -> _Plan:
    """The march plan of one (grid, tgrid) pair, shared by every march on it."""
    return _Plan(grid, tgrid)


def _batch_shape(inputs) -> tuple:
    """Broadcast shape of the leading axes of (array, core axes) pairs; None is absent."""
    shapes = {np.shape(a)[:-core] for a, core in inputs if a is not None} - {()}
    if len(shapes) > 1:
        return np.broadcast_shapes(*shapes)
    return shapes.pop() if shapes else ()


def _recurrence(wk: _Work, backward: bool = False) -> None:
    """The march's core, in place on the modal buffer ``wk.w``: one scalar recurrence per mode.

    Every level but the datum's (level 0, or the last one ``backward``)
    holds a step's modal input S h; it is multiplied by c, and then each
    level in marching order gains lam times the level before it.  Each level
    is one row of the modes of every column in turn, so a step is two vector
    operations whatever the batch, the product formed in the scratch row.
    """
    multiply, add = np.multiply, np.add
    rows = wk.w_rows[:-1] if backward else wk.w_rows[1:]
    multiply(rows, wk.c_rows, out=rows)
    lam_rows, product = wk.lam_rows, wk.product
    if backward:
        for cur, prev in reversed(wk.steps):
            add(cur, multiply(lam_rows, prev, product), cur)
    else:
        for prev, cur in wk.steps:
            add(cur, multiply(lam_rows, prev, product), cur)


def _modal_levels(wk: _Work, datum: np.ndarray | None, source: np.ndarray | None = None,
                  edges: dict | None = None, backward: bool = False) -> np.ndarray:
    """A march on modal coefficients, in the plan's buffers: no product with S.

    ``wk`` is the plan's ``_Work`` of the batch shape; it carries S, dt and
    dt/dx^2, so the march reads no grid and looks up no plan.  ``datum`` is
    the modal initial (or, ``backward``, terminal) datum (*B, n), None for zero;
    ``source`` the modal source per level (*B, n_levels, n), None for none;
    ``edges`` maps a side to its Dirichlet values per level (*B, n_levels).
    A step's modal input is dt * favg(source) plus, per edge,
    (dt/dx^2) * favg(values) times the edge's column of S (a rank-one
    update, formed in ``wk.z_columns``).  So ``source`` may itself be
    ``wk.z_columns``, the scratch the caller forms it in.  The recurrence
    runs in place (``_recurrence``); a backward march runs it from the last
    level down, so both directions return their levels in time order.

    Returns ``wk.w_columns``, the (*B, n_levels, n) modal levels: a view of
    the plan's buffer, valid until the next march on the grid pair.  Like
    ``modal_march`` it rejects non-finite values with ``NonFiniteError``.
    """
    levels = wk.w_columns
    inputs = levels[..., :-1, :] if backward else levels[..., 1:, :]
    if source is None:
        inputs[...] = 0.0
    else:
        half = np.multiply(source, 0.5, out=wk.z_columns)
        np.add(half[..., 1:, :], half[..., :-1, :], out=inputs)
        inputs *= wk.dt
    if edges:
        rank = wk.z_columns[..., 1:, :]
        for side, values in edges.items():
            half = np.multiply(values, 0.5, out=wk.edge)
            avg = np.add(half[..., 1:], half[..., :-1], out=wk.edge_avg)
            avg *= wk.r
            # S is symmetric: the edge's column of S is its row
            np.multiply(avg[..., None], wk.s[0 if side == LEFT else -1], out=rank)
            np.add(inputs, rank, out=inputs)
    levels[..., -1 if backward else 0, :] = 0.0 if datum is None else datum
    _recurrence(wk, backward)
    if not np.isfinite(wk.w).all():
        raise NonFiniteError("march produced non-finite values: non-finite data or overflow")
    return levels


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
    explicit part) are written into the plan's input buffer (``_Plan``) and
    transformed by S into its modal buffer, each mode runs its scalar
    recurrence there, and the levels are transformed back straight into the
    result, the one array a march allocates at full size; level 0 is the
    datum itself, since S S y0 equals y0 only to round-off.  The bits rest on
    this order of operations: a step source is dt * (0.5 s^{k+1} + 0.5 s^k)
    (every level halved into the modal buffer, then neighbouring halves
    added into the input buffer), then an edge row gains
    (dt/dx^2) * (0.5 b^{k+1} + 0.5 b^k), formed in scratch rows; the modal
    level k+1 is (S h^k) * c before ``cur + lam * prev`` adds the previous
    level, the product formed in a scratch row.  A sum or product of two
    values rounds the same in either order, so only the grouping matters.
    Each column's transforms are one (n_levels, n) @ (n, n) product of the
    shape a lone march multiplies, on strided views of unit inner stride
    that BLAS reads and writes without a copy, and the recurrence is
    elementwise, so a column equals its lone march bit for bit.

    Marches on one grid pair share the plan's buffers, so two must not run
    at once in threads of one process (the package starts none).
    """
    n, klev = grid.n_interior, tgrid.n_levels
    batch = _batch_shape(((y0, 1), (source, 2), (left, 1), (right, 1)))
    out = np.empty(batch + (klev, n))
    if out.size == 0:
        return out
    wk = _plan(grid, tgrid).work(batch)
    z, columns, w_columns = wk.z, wk.z_columns, wk.w_columns
    z[0] = y0
    if source is None:
        z[1:] = 0.0
    else:
        # dt * favg(source), rounded as favg rounds it: every level halved into
        # w (free until the transform), neighbouring halves added into z
        half = np.multiply(source, 0.5, out=w_columns)
        inputs = np.add(half[..., 1:, :], half[..., :-1, :], out=columns[..., 1:, :])
        inputs *= wk.dt
    for side, values in ((0, left), (-1, right)):
        if values is not None:
            # (dt/dx^2) * favg(values), formed in the plan's scratch rows
            half = np.multiply(values, 0.5, out=wk.edge)
            avg = np.add(half[..., 1:], half[..., :-1], out=wk.edge_avg)
            avg *= wk.r
            row = columns[..., 1:, side]
            np.add(row, avg, out=row)
    np.matmul(columns, wk.s, out=w_columns)
    _recurrence(wk)
    np.matmul(w_columns, wk.s, out=out)
    out[..., 0, :] = y0
    if not np.isfinite(out).all():
        raise NonFiniteError("march produced non-finite values: non-finite data or overflow")
    return out


def modal_march_backward(grid: SpatialGrid, tgrid: TimeGrid, terminal: np.ndarray,
                         source: np.ndarray | None = None,
                         left: np.ndarray | None = None,
                         right: np.ndarray | None = None) -> np.ndarray:
    """Raw backward march (-q_t - Dq = f): ``modal_march`` of time-reversed data.

    The levels come back in natural order by one reversed copy: marching them
    in that order instead moves bits, since a product row's rounding depends
    on its position.
    """
    rev = modal_march(
        grid, tgrid, terminal,
        source=None if source is None else source[..., ::-1, :],
        left=None if left is None else left[..., ::-1],
        right=None if right is None else right[..., ::-1],
    )
    return rev[..., ::-1, :].copy()


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


def normal_derivative_o1(interior: np.ndarray, grid: SpatialGrid, side: str) -> np.ndarray:
    """First-order outward normal derivative of a homogeneous-Dirichlet field.

    This stencil (-u_1/dx at the left, -u_n/dx at the right) is the exact
    transpose of the Dirichlet boundary injection of the scheme, so the
    coupled optimality and adjoint systems built with it satisfy the discrete
    duality identities to machine precision.  ``interior`` has shape
    (*B, n_interior), a vector or a field with optional batch axes; the
    stencil reads the last (space) axis, so the result has shape (*B,).
    """
    return -interior[..., 0 if side == LEFT else -1] / grid.dx

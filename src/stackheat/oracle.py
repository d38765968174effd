"""Dense space-time assembly of the coupled systems, for tiny grids.

Stacks every unknown level of the state and adjoint(s) into one vector and
solves the coupled linear system directly.  This is the independent oracle
the fixed-point solvers are tested against: both must produce the same
discrete solution to near machine precision.  Cost grows like the cube of
n_interior * n_steps, so keep it to desk-size grids.  The same assembly of
the observability adjoint pair, which no command runs, is test code
(``dense_adjoint_solve`` in ``tests/_instruments.py``).
"""

from __future__ import annotations

import numpy as np

from .grids import LEFT
from .saddle import _leader_array, _Problem, build_problem
from .scenario import RobustParams, ScenarioConfig


def _dense_matrices(grid, tgrid):
    n = grid.n_interior
    lap = np.zeros((n, n))
    idx = np.arange(n)
    lap[idx, idx] = -2.0
    lap[idx[:-1], idx[:-1] + 1] = 1.0
    lap[idx[1:], idx[1:] - 1] = 1.0
    lap /= grid.dx ** 2
    m_plus = np.eye(n) - 0.5 * tgrid.dt * lap
    m_minus = np.eye(n) + 0.5 * tgrid.dt * lap
    return m_plus, m_minus


def _smooth_stencil(n_levels: int) -> np.ndarray:
    """Matrix of the (1/4, 1/2, 1/4) time smoothing with halved end rows."""
    s = np.zeros((n_levels, n_levels))
    for j in range(n_levels):
        if j == 0:
            s[0, 0] = s[0, 1] = 0.25
        elif j == n_levels - 1:
            s[j, j - 1] = s[j, j] = 0.25
        else:
            s[j, j - 1] = s[j, j + 1] = 0.25
            s[j, j] = 0.5
    return s


def _coupling_blocks(prob: _Problem) -> tuple:
    """Dense blocks of the adjoint -> forward coupling, shared by both systems.

    Returns (sources, feedbacks).  ``sources`` lists (block, n x n matrix M)
    of the distributed coupling, forward source = M @ adjoint.  ``feedbacks``
    lists (block, edge row, time matrix F) with boundary_value^j =
    sum_l F[j, l] * adjoint^l[edge row]: rho^2 * (-R[edge]/dx) / ell^2 in A,
    rho^2 * rho_star^{-2} * smooth(-R[edge]/dx) / (ell^2 * trapezoid) in C/D.
    """
    cfg, params = prob.cfg, prob.params
    n, klev, dx = cfg.grid.n_interior, cfg.tgrid.n_levels, cfg.grid.dx
    c = cfg.configuration
    sources = []
    if c == "A":
        sources.append((0, np.eye(n) / params.gamma ** 2))
    elif c == "B":
        d = np.zeros(n)
        d[prob.b1_mask] -= 1.0 / params.ell ** 2
        d[prob.b2_mask] += 1.0 / params.gamma ** 2
        sources.append((0, np.diag(d)))
    feedbacks = []
    for block, (side, rho, ell) in enumerate(prob.follower_edges):
        scale = -(rho ** 2) / (ell ** 2 * dx)
        if c == "A":
            fmat = np.eye(klev) * scale
        else:
            fmat = scale * (prob.g2inv / prob.wtrap)[:, None] * _smooth_stencil(klev)
        feedbacks.append((block if c == "D" else 0, 0 if side == LEFT else n - 1, fmat))
    return sources, feedbacks


def dense_optimality_solve(cfg: ScenarioConfig, leader, params: RobustParams):
    """Direct solve of the follower optimality system; returns interior arrays.

    Output: (state levels 0..K, adjoints tuple of levels 0..K), matching the
    layout of the Picard solver.
    """
    prob = build_problem(cfg, params)
    grid, tgrid = cfg.grid, cfg.tgrid
    n, K = grid.n_interior, tgrid.n_steps
    klev = K + 1
    dt, dx = tgrid.dt, grid.dx
    m_plus, m_minus = _dense_matrices(grid, tgrid)
    c = cfg.configuration
    n_adj = prob.n_adjoints
    leader_arr = _leader_array(prob, leader)

    ny = K * n                      # state unknowns: levels 1..K
    na = K * n                      # adjoint unknowns per block: levels 0..K-1
    dim = ny + n_adj * na
    A = np.zeros((dim, dim))
    rhs = np.zeros(dim)

    def ys(k):
        """Slice of state level k (1..K)."""
        return slice((k - 1) * n, k * n)

    def qs(block, k):
        """Slice of adjoint block level k (0..K-1)."""
        return slice(ny + block * na + k * n, ny + block * na + (k + 1) * n)

    src_mats, fb = _coupling_blocks(prob)
    bscale = dt / dx ** 2

    # state equations, one block row per step k = 0..K-1
    for k in range(K):
        rows = slice(k * n, (k + 1) * n)
        A[rows, ys(k + 1)] += m_plus
        if k >= 1:
            A[rows, ys(k)] -= m_minus
        else:
            rhs[rows] += m_minus @ cfg.y0
        for block, mat in src_mats:
            for j in (k, k + 1):
                if j <= K - 1:
                    A[rows, qs(block, j)] -= 0.5 * dt * mat
        for block, row, fmat in fb:
            for j in (k, k + 1):
                coeff = 0.5 * bscale
                for l in range(klev):
                    if fmat[j, l] == 0.0:
                        continue
                    if l <= K - 1:
                        A[k * n + row, qs(block, l)][row] -= coeff * fmat[j, l]
                    # l == K: adjoint terminal level is zero, no contribution
        if leader_arr is not None:
            if c == "A":
                rhs[rows] += 0.5 * dt * (leader_arr[k] + leader_arr[k + 1])
            else:
                row = 0 if prob.leader_side == LEFT else n - 1
                rhs[k * n + row] += 0.5 * bscale * (leader_arr[k] + leader_arr[k + 1])

    # adjoint equations, block i, step k = 0..K-1 (backward)
    for block in range(n_adj):
        mask = prob.obs_masks[block]
        target = prob.targets[block]
        sel = np.diag(mask.astype(float))
        for k in range(K):
            rows = slice(ny + block * na + k * n, ny + block * na + (k + 1) * n)
            A[rows, qs(block, k)] += m_plus
            if k + 1 <= K - 1:
                A[rows, qs(block, k + 1)] -= m_minus
            for j in (k, k + 1):
                if j >= 1:
                    A[rows, ys(j)] -= 0.5 * dt * sel
                else:
                    rhs[rows] += 0.5 * dt * sel @ cfg.y0
                rhs[rows] -= 0.5 * dt * (mask * target[j])

    sol = np.linalg.solve(A, rhs)
    state = np.vstack([cfg.y0[None, :], sol[:ny].reshape(K, n)])
    adjoints = []
    for block in range(n_adj):
        q = sol[ny + block * na: ny + (block + 1) * na].reshape(K, n)
        adjoints.append(np.vstack([q, np.zeros((1, n))]))
    return state, tuple(adjoints)

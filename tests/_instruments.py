"""Verification instruments that only the tests call.

``gradient_check`` holds the assembled HUM gradient to central differences
of the penalized functional, ``observation_pairing`` is the quadratic
observation form that the Gram operator must equal, and ``gateaux_check``
holds difference quotients of the control-to-state map to its linearized
solve.  Each runs on the package's private raw solves, as the package's own
stages do.  ``reference_write_csv`` is the CSV writer that formats an
ndarray one ``%``-format per row, the reference of ``csvio``'s vectorized
formatter; it returns the hash (``sha256_of``) and size of the file read
back.  ``l2q_norm_interior`` is the nodal L2(Q) norm that a Picard column's
correction (``saddle._picard_columns``) must equal bit for bit.
``to_coords``/``to_physical`` convert interior vectors to and from the
H^1_0 coordinates that ``hum._gram`` and ``hum.GramBasis`` work in.
``dense_adjoint_solve`` is the direct solve of the observability adjoint
pair on a tiny grid, the oracle ``solve_adjoint`` is held to.
``march_count`` counts the marches made inside a ``with`` block: every
march, of any batch, runs ``heat._recurrence`` once.

The ``reference_*`` functions are the Picard coupling in physical space:
every sweep marches explicit sources (``_Problem.forcing`` of the feedback,
the masked tracking residuals, theta on the observation regions) through
``heat.modal_march``/``modal_march_backward``, four products with S per
sweep.  They share the package's ``_Problem`` coupling methods and its
``_picard_columns`` loop, and the package's sweeps on DST modal
coefficients are held to them at round-off.  ``reference_pairs_hat`` runs
the pairs behind ``hum._pairs_hat``'s modal data and ``finish``.
``physical_leader`` reads the leader off a physical phi; ``reference_gram``
feeds it to the equilibrium and lifts the terminal state by a banded solve
of the Dirichlet Laplacian, and ``observation_pairing`` reads the
observation with it, sharing no code with the probe's modal read.

``reference_direction_values`` is ``verify_saddle``'s values as it scored
them in space: the cost of every player at the equilibrium and at each point
x +- step d of its directions, each deviated control marched whole through
``_Problem.state`` and scored by ``evaluate_functional_raw`` (C/D by the
rho_star-weighted cost), with the tracking term of each state alongside.
The package's responses, read on the observed nodes only, and the curvature
d'Hd it reads off the points are held to them at round-off.
"""

import csv
import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from stackheat import heat
from stackheat.csvio import fmt
from stackheat.hum import AdjointPair, GramBasis, HumSettings, _gram
from stackheat.oracle import _coupling_blocks, _dense_matrices
from stackheat.products import h10_inner, h10_norm
from stackheat.saddle import (STATIONARITY_DIRECTIONS, _picard_columns, _tracking_term,
                              build_problem, evaluate_functional_raw)
from stackheat.scenario import RobustParams, ScenarioConfig

# the march pair the references run; the equilibria also take another pair
MARCHES = (heat.modal_march, heat.modal_march_backward)


def l2q_norm_interior(f: np.ndarray, grid, dt: float) -> float:
    """Plain nodal L2(Q) norm of an interior array, sqrt(dt * dx * sum(f * f)).

    A Picard column's correction is the root of the sum of its squares over
    the column's adjoints.
    """
    return float(np.sqrt(dt * grid.dx * (f * f).sum()))


@contextmanager
def march_count():
    """Yield a one-item list that counts the ``heat._recurrence`` calls made in the block."""
    calls = [0]
    real = heat._recurrence

    def counted(wk, backward=False):
        calls[0] += 1
        real(wk, backward)

    heat._recurrence = counted
    try:
        yield calls
    finally:
        heat._recurrence = real


def to_coords(u: np.ndarray, grid) -> np.ndarray:
    """H^1_0 coordinates sqrt(mu / dx) * (S u) of interior vector(s) ``u`` (``heat._dst``)."""
    s, mu = heat._dst(grid)
    return np.sqrt(mu / grid.dx) * (np.asarray(u, dtype=float) @ s)


def to_physical(c: np.ndarray, grid) -> np.ndarray:
    """The interior vector(s) whose H^1_0 coordinates are ``c``: ``to_coords`` inverted."""
    s, mu = heat._dst(grid)
    return (np.asarray(c, dtype=float) / np.sqrt(mu / grid.dx)) @ s


def banded_lift(u: np.ndarray, grid) -> np.ndarray:
    """Solve -D z = u on the interior nodes (homogeneous Dirichlet), banded."""
    ab = np.zeros((3, grid.n_interior))
    ab[0, 1:] = ab[2, :-1] = -1.0
    ab[1] = 2.0
    return solve_banded((1, 1), ab / grid.dx ** 2, u)


def sha256_of(path: str) -> str:
    """Hex sha256 of a file's bytes as read back."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _keep(state, adjoints, cols):
    return state, adjoints


def _zeros_if_none(prob, adjoints, cols) -> tuple:
    """The loop's adjoints, or on its first sweep (``_picard_columns`` passes None) their zeros."""
    if adjoints is not None:
        return adjoints
    shape = (len(cols), prob.cfg.tgrid.n_levels, prob.cfg.grid.n_interior)
    return tuple(np.zeros(shape) for _ in range(prob.n_adjoints))


def reference_adjoint_solve(prob, state: np.ndarray, marches=MARCHES) -> tuple:
    """Backward solve(s) driven by the tracking residual(s): state - target on each region."""
    cfg = prob.cfg
    grid = cfg.grid
    src = np.zeros((len(prob.obs_masks),) + state.shape)
    for residual, mask, target in zip(src, prob.obs_masks, prob.targets):
        np.subtract(state, target, out=residual, where=mask)
    return tuple(marches[1](grid, cfg.tgrid, np.zeros(grid.n_interior), src))


def reference_equilibria(prob, leaders, marches=MARCHES) -> list:
    """``saddle._equilibria`` in physical space: raw equilibria under each stacked leader."""
    cfg = prob.cfg
    width = 1 if leaders is None else len(leaders)

    def forward(adjoints, cols):
        leader = leaders if leaders is None or len(cols) == width else leaders[cols]
        adjoints = _zeros_if_none(prob, adjoints, cols)
        return marches[0](cfg.grid, cfg.tgrid, prob.y0,
                          *prob.forcing(*prob.feedback(adjoints, prob.g2inv), leader))

    return _picard_columns(prob, forward, lambda st: reference_adjoint_solve(prob, st, marches),
                           prob.n_adjoints, width=width, finish=_keep)


def _theta_forcing(prob, phi: np.ndarray) -> tuple:
    """(source, left, right) of the theta march: forcing(feedback(phi)), D's followers as columns."""
    follower, disturbance = prob.feedback((phi,) * prob.n_adjoints, prob.g2inv)
    if prob.n_adjoints > 1:
        follower = tuple(np.multiply.outer(e, v)
                         for v, e in zip(follower, np.eye(prob.n_adjoints)))
    return prob.forcing(follower, disturbance, None)


def _phi_backward(prob, thetas: tuple, terminal: np.ndarray) -> np.ndarray:
    """phi marched backward from ``terminal``, driven by theta on the observation region(s)."""
    cfg = prob.cfg
    src = np.zeros(thetas[0].shape)
    for mask, th in zip(prob.obs_masks, thetas):
        np.add(src, th, out=src, where=mask)
    return MARCHES[1](cfg.grid, cfg.tgrid, terminal, src)


def _theta_forward(prob, phi: np.ndarray) -> tuple:
    """The theta component(s) marched forward from theta(0) = 0 under phi."""
    cfg = prob.cfg
    theta = MARCHES[0](cfg.grid, cfg.tgrid, np.zeros(cfg.grid.n_interior),
                       *_theta_forcing(prob, phi))
    return (theta,) if prob.n_adjoints == 1 else tuple(theta)


def reference_adjoint_pairs(prob, terminals, finish=_keep) -> list:
    """Raw adjoint pairs in physical space: (phi, thetas, ...) per row of ``terminals``."""
    data = np.asarray(terminals, dtype=float)

    def phi(thetas, cols):
        return _phi_backward(prob, _zeros_if_none(prob, thetas, cols), data[cols])

    return _picard_columns(prob, phi, lambda ph: _theta_forward(prob, ph), prob.n_adjoints,
                           width=len(data), finish=finish)


def reference_pairs_hat(prob, terminals, finish) -> list:
    """``hum._pairs_hat`` on the physical coupling: the data and the final fields cross S."""
    s = prob.modal.s

    def modal(phi, thetas, cols):
        return finish(np.matmul(phi, s), tuple(np.matmul(th, s) for th in thetas), cols)

    return reference_adjoint_pairs(prob, np.matmul(terminals, s), modal)


def physical_leader(prob, phi: np.ndarray) -> np.ndarray:
    """The raw leader read off a physical phi: phi on omega (A), -dphi/dn on the leader edge."""
    if prob.leader_side is None:
        return np.where(prob.omega_mask, phi, 0.0)
    return -heat.normal_derivative_o1(phi, prob.cfg.grid, prob.leader_side)


def reference_gram(prob, phi_terminal: np.ndarray) -> np.ndarray:
    """``hum.gram_apply`` in physical space: pair, observation, homogeneous equilibrium, lift."""
    phi = reference_adjoint_pairs(prob, np.asarray(phi_terminal, dtype=float)[None])[0][0]
    state = reference_equilibria(prob.homogeneous, physical_leader(prob, phi)[None])[0][0]
    return banded_lift(state[-1], prob.cfg.grid)

# The gradient agreement is asserted across STEPS.  F_eps is exactly
# quadratic, so the central difference carries no truncation error at any
# step; its step-independence is measured over QUADRATIC_STEPS, chosen large
# enough that the fixed-point solves' round-off floor (about tol/step
# relative) sits below the 1e-10 assertion level.
STEPS = (1e-4, 1e-5, 1e-6)
QUADRATIC_STEPS = (0.5, 0.1, 0.02)
GRADIENT_TOL = 1e-6

# the steps of the Gateaux difference quotients
LAMBDAS = (1.0, 1e-3, 1e-6)


@dataclass
class GradientCheckReport:
    directions: int
    max_relative_error: float
    quadratic_spread: float   # spread of the central difference across QUADRATIC_STEPS
    passed: bool


def gradient_check(cfg: ScenarioConfig, params: RobustParams, settings: HumSettings,
                   phi_terminal: np.ndarray, n_directions: int = 10, seed: int = 0,
                   directions=None) -> GradientCheckReport:
    """Assembled gradient of F_eps against central differences of the scalar.

    ``directions`` overrides the seeded Gaussian sampling; a zero direction
    contributes zero to both sides; at least one direction is required.
    """
    grid = cfg.grid
    eps = settings.epsilon
    a = np.asarray(phi_terminal, dtype=float)
    if directions is None:
        rng = np.random.default_rng(seed)
        directions = [rng.standard_normal(grid.n_interior) for _ in range(n_directions)]
    if len(directions) == 0:
        raise ValueError("the gradient check needs at least one direction, got none")
    basis = GramBasis(cfg, params)
    prob, b = basis.prob, to_physical(basis.b, grid)

    def gram(v):
        return to_physical(_gram(prob, to_coords(v, grid)), grid)

    def fval(v):
        gv = gram(v)
        return 0.5 * h10_inner(v, gv, grid) + h10_inner(b, v, grid) \
            + 0.5 * eps * h10_inner(v, v, grid)

    def central(d, h):
        return (fval(a + h * d) - fval(a - h * d)) / (2 * h)

    grad = gram(a) + b + eps * a
    worst = 0.0
    spread = 0.0
    f0 = None
    for d in directions:
        d = np.asarray(d, dtype=float)
        nrm = h10_norm(d, grid)
        if nrm == 0.0:
            # both sides vanish identically; check the difference at base
            f0 = fval(a) if f0 is None else f0
            worst = max(worst, abs(fval(a) - f0))
            continue
        d = d / nrm
        exact = h10_inner(grad, d, grid)
        scale = max(abs(exact), 1e-300)
        fd = [central(d, h) for h in STEPS]
        worst = max(worst, max(abs(f - exact) for f in fd) / scale)
        fq = [central(d, h) for h in QUADRATIC_STEPS]
        spread = max(spread, (max(fq) - min(fq)) / scale)
    return GradientCheckReport(len(directions), worst, spread, worst <= GRADIENT_TOL)


def observation_pairing(cfg: ScenarioConfig, pa: AdjointPair, pb: AdjointPair) -> float:
    """The quadratic observation form: midpoint quadrature over omega or Gamma.

    Each phi is read in space (``physical_leader``) on omega's nodes (A) or
    the leader edge, weighted by dt * dx (A) or dt: no part of the package's
    modal read enters.
    """
    prob = build_problem(cfg, RobustParams())
    grid, dt = cfg.grid, cfg.tgrid.dt
    fa, fb = (heat.favg(physical_leader(prob, p.phi.interior)) for p in (pa, pb))
    if prob.leader_side is None:
        return float(dt * grid.dx * np.sum(fa[:, prob.omega_mask] * fb[:, prob.omega_mask]))
    return float(dt * np.sum(fa * fb))


@dataclass
class GateauxReport:
    discrepancies: tuple      # relative, per step of LAMBDAS
    noise_floors: tuple       # cancellation floor eps*|y|/(lambda*|y'|)
    max_discrepancy: float
    initial_level_max: float  # max |y'| at level 0 (must vanish)


def gateaux_check(cfg: ScenarioConfig, params: RobustParams, v, psi, direction) -> GateauxReport:
    """Difference quotients of the control-to-state map against the linearized solve.

    Set in configuration A with the zero leader.  The map is affine, so the
    quotient equals the linearized solution up to floating-point
    cancellation; the report carries the theoretical noise floor so the
    step-independence is interpretable.
    """
    if cfg.configuration != "A":
        raise ValueError("the directional-derivative check is set in configuration A")
    prob = build_problem(cfg, params)
    base_traces, psi_base = prob.raw(v, psi)
    dir_traces, psi_dir = prob.raw(*direction)

    y_base = prob.state(base_traces, psi_base, None)
    linearized = prob.homogeneous.state(dir_traces, psi_dir, None)
    lin_norm = max(float(np.max(np.abs(linearized))), 1e-300)
    base_norm = float(np.max(np.abs(y_base)))

    discs, floors = [], []
    for lam in LAMBDAS:
        pert_traces = tuple(b + lam * d for b, d in zip(base_traces, dir_traces))
        y_pert = prob.state(pert_traces, psi_base + lam * psi_dir, None)
        quotient = (y_pert - y_base) / lam
        discs.append(float(np.max(np.abs(quotient - linearized))) / lin_norm)
        floors.append(np.finfo(float).eps * base_norm / (lam * lin_norm))
    return GateauxReport(tuple(discs), tuple(floors), max(discs),
                         float(np.max(np.abs(linearized[0]))))


def reference_write_csv(path: str, header, rows) -> tuple:
    """``csvio.write_csv`` with an ndarray written one ``%.17g`` line per row.

    ``"%.17g" % x`` and ``fmt`` go through the same float-to-string routine
    of Python, so this prints the bytes of the per-value path.  Returns
    (sha256, size) of the file as read back.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            fh.writelines(line % tuple(row) for row in rows.tolist())
        else:
            for row in rows:
                writer.writerow([fmt(v) for v in row])
    return sha256_of(path), os.path.getsize(path)


def dense_adjoint_solve(cfg: ScenarioConfig, phi_terminal: np.ndarray, params: RobustParams):
    """Direct solve of the observability adjoint pair; returns interior arrays.

    Output: (phi levels 0..K, thetas tuple of levels 0..K) with
    phi[K] = phi_terminal and theta[0] = 0.
    """
    prob = build_problem(cfg, params)
    grid, tgrid = cfg.grid, cfg.tgrid
    n, K = grid.n_interior, tgrid.n_steps
    klev = K + 1
    dt, dx = tgrid.dt, grid.dx
    m_plus, m_minus = _dense_matrices(grid, tgrid)
    n_th = prob.n_adjoints
    a = np.asarray(phi_terminal, dtype=float)

    nphi = K * n                    # phi levels 0..K-1
    nth = K * n                     # theta levels 1..K per block
    dim = nphi + n_th * nth
    A = np.zeros((dim, dim))
    rhs = np.zeros(dim)

    def ps(k):
        return slice(k * n, (k + 1) * n)

    def ts(block, k):
        return slice(nphi + block * nth + (k - 1) * n, nphi + block * nth + k * n)

    # phi equations (backward), k = 0..K-1
    for k in range(K):
        rows = ps(k)
        A[rows, ps(k)] += m_plus
        if k + 1 <= K - 1:
            A[rows, ps(k + 1)] -= m_minus
        else:
            rhs[rows] += m_minus @ a
        for block in range(n_th):
            sel = np.diag(prob.obs_masks[block].astype(float))
            for j in (k, k + 1):
                if j >= 1:
                    A[rows, ts(block, j)] -= 0.5 * dt * sel
                # j == 0: theta(0) = 0

    # theta equations (forward), block i, step k = 0..K-1
    src, fb = _coupling_blocks(prob)
    bscale = dt / dx ** 2
    for block in range(n_th):
        for k in range(K):
            rows = slice(nphi + block * nth + k * n, nphi + block * nth + (k + 1) * n)
            A[rows, ts(block, k + 1)] += m_plus
            if k >= 1:
                A[rows, ts(block, k)] -= m_minus
            for bidx, mat in src:
                for j in (k, k + 1):
                    if j <= K - 1:
                        A[rows, ps(j)] -= 0.5 * dt * mat
                    else:
                        rhs[rows] += 0.5 * dt * mat @ a
            for fblock, row, fmat in fb:
                if fblock != block:
                    continue
                for j in (k, k + 1):
                    coeff = 0.5 * bscale
                    for l in range(klev):
                        if fmat[j, l] == 0.0:
                            continue
                        if l <= K - 1:
                            A[nphi + block * nth + k * n + row, ps(l)][row] -= coeff * fmat[j, l]
                        else:
                            rhs[nphi + block * nth + k * n + row] += coeff * fmat[j, l] * a[row]

    sol = np.linalg.solve(A, rhs)
    phi = np.vstack([sol[:nphi].reshape(K, n), a[None, :]])
    thetas = []
    for block in range(n_th):
        th = sol[nphi + block * nth: nphi + (block + 1) * nth].reshape(K, n)
        thetas.append(np.vstack([np.zeros((1, n)), th]))
    return phi, tuple(thetas)


# --- verify_saddle's values, each deviated state marched in space -------------

def reference_direction_values(prob, sol, leader_arr, rng) -> list:
    """``saddle._direction_values`` of every player, with each point's state marched in space.

    The directions are drawn as the package draws them, player by player in
    the same order, and added to the equilibrium's controls: a whole field or
    trace per direction, zero off B's regions.  Returns one (J(x), the
    (count, 2) values at the +step and -step points, each |step d|^2 in the
    player's cost norm, the tracking terms (1 + 2 count,) of x and then of
    each point in the package's order) per player.  A/B score
    ``evaluate_functional_raw`` at the deviated raw controls; C/D the
    rho_star-weighted cost 0.5 ell^2 dt sum(trapezoid weight * u^2) at the
    state of rho_star^-1 times the weighted controls.
    """
    cfg = prob.cfg
    c = cfg.configuration
    klev, n, dt = cfg.tgrid.n_levels, cfg.grid.n_interior, cfg.tgrid.dt
    step = 1e-2

    def midpoint_sq(d, nodes=slice(None)):
        return dt * cfg.grid.dx * float(np.sum(heat.favg(d[:, nodes], 0) ** 2))

    if c in ("A", "B"):
        vbar, psibar = prob.raw(sol.follower, sol.disturbance)
        if c == "A":
            edges = len(vbar)
            players = [
                ((edges, klev), lambda d: (tuple(v + e for v, e in zip(vbar, d)), psibar),
                 lambda d: sum(dt * float(np.sum(heat.favg(e, 0) ** 2)) for e in d)),
                ((klev, n), lambda d: (vbar, psibar + d), midpoint_sq)]
        else:
            b1, b2 = np.flatnonzero(prob.b1_mask), np.flatnonzero(prob.b2_mask)

            def on(nodes, d):
                field = np.zeros((klev, n))
                field[:, nodes] = d
                return field

            players = [
                ((klev, len(b1)), lambda d: (vbar + on(b1, d), psibar), midpoint_sq),
                ((klev, len(b2)), lambda d: (vbar, psibar + on(b2, d)), midpoint_sq)]

        def score(controls):
            f, d = controls
            state = prob.state(f, d, leader_arr)
            return (evaluate_functional_raw(prob, f, d, leader_arr, state=state),
                    _tracking_term(prob, state))

        players = [(shape, lambda d, deviate=deviate: score(deviate(d)), norm)
                   for shape, deviate, norm in players]
    else:
        ubars, _ = prob.raw(sol.follower_weighted)

        def weighted(i, du):
            us = tuple(u + du if j == i else u for j, u in enumerate(ubars))
            state = prob.state(tuple(prob.ginv * u for u in us), None, leader_arr)
            tracking = _tracking_term(prob, state, which=i)
            ell = prob.follower_edges[i][2]
            return tracking + 0.5 * ell ** 2 * float(np.sum(dt * prob.wtrap * us[i] ** 2)), tracking

        players = [((klev,), lambda du, i=i: weighted(i, du),
                    lambda du: float(np.sum(dt * prob.wtrap * du ** 2)))
                   for i in range(len(ubars))]
    count = max(1, STATIONARITY_DIRECTIONS // len(players))
    out = []
    for shape, value, norm in players:
        j0, t0 = value(np.zeros(shape))
        points = []
        for _ in range(count):
            d = step * rng.standard_normal(shape)
            points.append((value(d), value(-d), norm(d)))
        tracking = [t0] + [p[0][1] for p in points] + [p[1][1] for p in points]
        out.append((j0, np.array([[p[0][0], p[1][0]] for p in points]),
                    np.array([p[2] for p in points]), np.array(tracking)))
    return out

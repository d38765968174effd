"""Follower equilibria: Picard iteration on the coupled optimality systems.

For a fixed leader control the follower problem (robust saddle point in A/B,
weighted minimization in C, two-player Nash in D) is characterized by a
forward state coupled to one or two backward adjoints.  The iteration lags
the adjoint: solve the state with the current follower feedback, re-solve the
adjoint(s) from the tracking residual, repeat; the map contracts at a rate
proportional to 1/mu with mu = min(ell^2, gamma^2).

Discretization follows discretize-then-optimize: the cost functionals are
evaluated with the scheme-consistent midpoint quadrature (trapezoid-in-time
for the rho_star-weighted boundary terms), and the feedback laws below are
the exact stationarity conditions of those discrete functionals under the
Crank-Nicolson scheme.  In particular the boundary feedback uses the
first-order normal derivative, the exact transpose of the scheme's boundary
injection, and configurations C/D acquire a three-point time smoothing of
the adjoint trace.  Equilibria therefore pass perturbation checks at
round-off level rather than at discretization level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, NonContractionError
from .grids import LEFT, BoundaryTrace, SpaceTimeField
from .heat import march, march_backward, normal_derivative_o1, trapezoid_time_weights
from .products import l2q_norm_interior, qmid_field, qmid_trace
from .scenario import RobustParams, ScenarioConfig, require_valid
from .weights import _LOG_CAP, rho_star_log, rho_star_inv_sq

_CN = 0.5  # the optimality machinery is exact for the midpoint scheme

# verify_saddle solves its perturbed states in blocks of columns, each block
# one batched march; the width keeps one (n_levels, n_interior, width) float
# array within this many bytes (25 columns at n_interior = n_steps = 50).
_BLOCK_BYTES = 512 * 1024


def _require_cn(cfg: ScenarioConfig):
    if cfg.theta != _CN:
        raise ValueError(
            "the coupled optimality/adjoint systems are built on the exact "
            "discrete duality of the Crank-Nicolson scheme; set theta = 1/2")


def _edge_col(side: str) -> int:
    return 0 if side == LEFT else -1


def smooth_trace(z: np.ndarray) -> np.ndarray:
    """Midpoint-average followed by its transpose: the (1/4, 1/2, 1/4) stencil."""
    m = 0.5 * (z[:-1] + z[1:])
    out = np.zeros_like(z)
    out[0] = 0.5 * m[0]
    out[-1] = 0.5 * m[-1]
    out[1:-1] = 0.5 * (m[:-1] + m[1:])
    return out


def capped_weighted_sq(log_w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """w * v^2 evaluated from log w, saturated at 1e300, exact 0 at v = 0."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    nz = v != 0.0
    with np.errstate(over="ignore"):
        expo = log_w[nz] + 2.0 * np.log(np.abs(v[nz]))
        out[nz] = np.where(expo >= _LOG_CAP, 1e300, np.exp(np.minimum(expo, _LOG_CAP)))
    return out


@dataclass
class _Problem:
    """Precomputed masks, feedback coefficients and data arrays for one scenario."""

    cfg: ScenarioConfig
    params: RobustParams
    obs_masks: tuple
    targets: tuple          # interior arrays matching obs_masks
    follower_edges: tuple   # ((side, col, rho, ell), ...) one entry per follower
    leader_side: Optional[str]
    g2inv: Optional[np.ndarray]      # rho_star^{-2} at the time levels (C/D)
    ginv: Optional[np.ndarray]       # rho_star^{-1}
    log_g2: Optional[np.ndarray]     # log rho_star^2
    omega_mask: Optional[np.ndarray]  # A: leader mask
    b1_mask: Optional[np.ndarray]
    b2_mask: Optional[np.ndarray]
    wtrap: np.ndarray                # trapezoid time weights

    @property
    def n_adjoints(self) -> int:
        return 2 if self.cfg.configuration == "D" else 1


def build_problem(cfg: ScenarioConfig, params: RobustParams) -> _Problem:
    require_valid(cfg)
    _require_cn(cfg)
    grid, tgrid = cfg.grid, cfg.tgrid
    c = cfg.configuration

    obs_regions = cfg.observation_regions()
    obs_masks = tuple(r.interior_mask(grid) for r in obs_regions)
    targets = tuple(t.interior for t in cfg.targets())

    follower_edges = []
    if c == "A":
        for side in cfg.gamma_set.support:
            follower_edges.append((side, _edge_col(side), cfg.gamma_set.weight(side), params.ell))
    elif c == "C":
        for side in cfg.gamma2.support:
            follower_edges.append((side, _edge_col(side), cfg.gamma2.weight(side), params.ell))
    elif c == "D":
        for bs, ell in ((cfg.gamma1, params.ell), (cfg.gamma2, params.second_ell)):
            side = bs.support[0]
            follower_edges.append((side, _edge_col(side), bs.weight(side), ell))

    g2inv = ginv = log_g2 = None
    if c in ("C", "D"):
        eta = cfg.eta()
        t = tgrid.times()
        log_g2 = np.asarray(rho_star_log(cfg.wspec, eta, t), dtype=float)
        g2inv = np.asarray(rho_star_inv_sq(cfg.wspec, eta, t), dtype=float)
        with np.errstate(under="ignore"):
            ginv = np.where(np.isinf(log_g2), 0.0, np.exp(-np.minimum(log_g2, 1492.0) / 2.0))

    return _Problem(
        cfg=cfg, params=params, obs_masks=obs_masks, targets=targets,
        follower_edges=tuple(follower_edges),
        leader_side=None if c == "A" else cfg.leader_side(),
        g2inv=g2inv, ginv=ginv, log_g2=log_g2,
        omega_mask=cfg.omega.interior_mask(grid) if c == "A" else None,
        b1_mask=cfg.b1.interior_mask(grid) if c == "B" else None,
        b2_mask=(np.ones(grid.n_interior, dtype=bool) if cfg.allow_global_disturbance
                 else cfg.b2.interior_mask(grid)) if c == "B" else None,
        wtrap=trapezoid_time_weights(tgrid.n_levels),
    )


def _leader_array(prob: _Problem, leader) -> np.ndarray | None:
    """Leader as raw data: interior array (A) or boundary-trace values (B/C/D)."""
    cfg = prob.cfg
    if leader is None:
        return None
    if cfg.configuration == "A":
        if leader.grid != cfg.grid or leader.tgrid != cfg.tgrid:
            raise ValueError("leader field lives on a different grid")
        vals = leader.interior.copy()
        vals[:, ~prob.omega_mask] = 0.0
        return vals
    if leader.tgrid != cfg.tgrid:
        raise ValueError("leader trace lives on a different time grid")
    if leader.side != prob.leader_side:
        raise ValueError(f"leader acts on the {prob.leader_side} endpoint, trace is {leader.side}")
    return leader.values


def follower_feedback(prob: _Problem, adjoints: tuple) -> tuple:
    """Follower controls reconstructed from the adjoint(s): one trace per edge.

    A:   v = rho * dq/dn / ell^2 (first-order normal derivative);
    C/D: v = rho * rho_star^{-2} * smooth(dr_i/dn) / (ell_i^2 * trapezoid weight).
    """
    cfg = prob.cfg
    out = []
    if cfg.configuration == "A":
        q = adjoints[0]
        for side, col, rho, ell in prob.follower_edges:
            dn = normal_derivative_o1(q, cfg.grid, side)
            out.append(rho * dn / ell ** 2)
    elif cfg.configuration in ("C", "D"):
        for (side, col, rho, ell), r in zip(prob.follower_edges, adjoints):
            dn = normal_derivative_o1(r, cfg.grid, side)
            out.append(rho * prob.g2inv * smooth_trace(dn) / (ell ** 2 * prob.wtrap))
    return tuple(out)


def _state_solve(prob: _Problem, adjoints: tuple, leader, y0=None) -> np.ndarray:
    """Forward solve of the state with the follower feedback from ``adjoints``."""
    cfg, params = prob.cfg, prob.params
    grid, tgrid = cfg.grid, cfg.tgrid
    n, klev = grid.n_interior, tgrid.n_levels
    c = cfg.configuration
    y0 = cfg.y0 if y0 is None else y0

    source = None
    left = right = None

    def add_bnd(side, vals):
        nonlocal left, right
        if side == LEFT:
            left = vals if left is None else left + vals
        else:
            right = vals if right is None else right + vals

    if c == "A":
        source = adjoints[0] / params.gamma ** 2
        if leader is not None:
            source = source + leader
        for (side, col, rho, ell), v in zip(prob.follower_edges, follower_feedback(prob, adjoints)):
            add_bnd(side, rho * v)
    elif c == "B":
        p = adjoints[0]
        source = np.zeros((klev, n))
        source[:, prob.b1_mask] -= p[:, prob.b1_mask] / params.ell ** 2
        source[:, prob.b2_mask] += p[:, prob.b2_mask] / params.gamma ** 2
        if leader is not None:
            add_bnd(prob.leader_side, leader)
    else:  # C, D
        for (side, col, rho, ell), v in zip(prob.follower_edges, follower_feedback(prob, adjoints)):
            add_bnd(side, rho * v)
        if leader is not None:
            add_bnd(prob.leader_side, leader)

    return march(grid, tgrid, y0, source, left, right, theta=cfg.theta)


def _adjoint_solve(prob: _Problem, state: np.ndarray) -> tuple:
    """Backward solve(s) driven by the tracking residual(s)."""
    cfg = prob.cfg
    grid, tgrid = cfg.grid, cfg.tgrid
    out = []
    for mask, target in zip(prob.obs_masks, prob.targets):
        src = np.zeros_like(state)
        src[:, mask] = state[:, mask] - target[:, mask]
        out.append(march_backward(grid, tgrid, np.zeros(grid.n_interior), src, theta=cfg.theta))
    return tuple(out)


@dataclass
class SaddleSolution:
    """Converged follower equilibrium for a fixed leader."""

    configuration: str
    follower: object                 # traces (A/C/D) or a field (B)
    disturbance: Optional[SpaceTimeField]
    state: SpaceTimeField
    adjoints: tuple
    iterations: int
    residual: float
    contraction_ratios: tuple
    functional_value: float
    follower_weighted: object = None  # C/D: rho_star * v, the well-scaled variable

    @property
    def adjoint(self) -> SpaceTimeField:
        return self.adjoints[0]

    @property
    def contraction_ratio(self) -> float:
        """Representative (median) ratio of successive Picard corrections."""
        if not self.contraction_ratios:
            return 0.0
        return float(np.median(self.contraction_ratios))


def picard_coupled(prob: _Problem, leader, forward, backward, n_adjoints: int,
                   sweeps: Optional[int] = None):
    """Generic lagged fixed-point loop shared by the optimality and adjoint systems.

    Returns (state, adjoints, iterations, residual, ratios).  ``sweeps`` forces
    a fixed number of iterations (used when measuring contraction rates).
    """
    cfg, params = prob.cfg, prob.params
    grid, tgrid = cfg.grid, cfg.tgrid
    shape = (tgrid.n_levels, grid.n_interior)
    adjoints = tuple(np.zeros(shape) for _ in range(n_adjoints))

    tol = params.fixed_point_tol
    max_iter = params.max_iterations if sweeps is None else sweeps
    first_delta = None
    ratios = []
    deltas = []
    bad_streak = 0
    state = None
    for it in range(1, max_iter + 1):
        state = forward(adjoints, leader)
        new_adjoints = backward(state)
        delta = float(np.sqrt(sum(
            l2q_norm_interior(a - b, grid, tgrid.dt) ** 2
            for a, b in zip(new_adjoints, adjoints))))
        adjoints = new_adjoints
        deltas.append(delta)
        if first_delta is None:
            first_delta = delta
            if delta == 0.0:
                return state, adjoints, it, 0.0, ()
        else:
            prev = deltas[-2]
            if prev > 0:
                ratio = delta / prev
                ratios.append(ratio)
                bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
                if bad_streak >= 2 and delta <= 1e-6 * first_delta and sweeps is None:
                    # round-off floor reached; as converged as it gets
                    state = forward(adjoints, leader)
                    return state, adjoints, it, delta / first_delta, tuple(ratios)
                if bad_streak >= 5 and sweeps is None:
                    raise NonContractionError(ratio, it)
        if sweeps is None and delta <= tol * first_delta:
            state = forward(adjoints, leader)
            return state, adjoints, it, delta / first_delta, tuple(ratios)
    if sweeps is not None:
        state = forward(adjoints, leader)
        return state, adjoints, max_iter, deltas[-1] / max(first_delta, 1e-300), tuple(ratios)
    raise ConvergenceError(
        f"fixed-point iteration did not reach tol={tol} within {max_iter} sweeps "
        f"(last relative correction {deltas[-1] / max(first_delta, 1e-300):.3g})")


def solve_optimality(cfg: ScenarioConfig, leader, params: RobustParams,
                     sweeps: Optional[int] = None) -> SaddleSolution:
    """Solve the follower optimality system for a fixed leader control.

    ``leader`` is a SpaceTimeField supported on omega (configuration A), a
    BoundaryTrace on the leader endpoint (B/C/D), or None for the zero leader.
    """
    prob = build_problem(cfg, params)
    leader_arr = _leader_array(prob, leader)
    state, adjoints, iters, res, ratios = picard_coupled(
        prob, leader_arr,
        lambda adj, lead: _state_solve(prob, adj, lead),
        lambda st: _adjoint_solve(prob, st),
        prob.n_adjoints, sweeps=sweeps)
    return _package_solution(prob, leader_arr, state, adjoints, iters, res, ratios)


def _package_solution(prob, leader_arr, state, adjoints, iters, res, ratios) -> SaddleSolution:
    cfg, params = prob.cfg, prob.params
    grid, tgrid = cfg.grid, cfg.tgrid
    c = cfg.configuration

    state_field = _state_to_field(prob, state, adjoints, leader_arr)
    adj_fields = tuple(_interior_to_field(grid, tgrid, a) for a in adjoints)

    disturbance = None
    follower = None
    follower_weighted = None
    if c == "A":
        traces = follower_feedback(prob, adjoints)
        follower = {side: BoundaryTrace(tgrid, side, v)
                    for (side, _, _, _), v in zip(prob.follower_edges, traces)}
        disturbance = _interior_to_field(grid, tgrid, adjoints[0] / params.gamma ** 2)
    elif c == "B":
        p = adjoints[0]
        v = np.zeros_like(p)
        v[:, prob.b1_mask] = -p[:, prob.b1_mask] / params.ell ** 2
        psi = np.zeros_like(p)
        psi[:, prob.b2_mask] = p[:, prob.b2_mask] / params.gamma ** 2
        follower = _interior_to_field(grid, tgrid, v)
        disturbance = _interior_to_field(grid, tgrid, psi)
    else:
        traces = follower_feedback(prob, adjoints)
        weighted = _weighted_feedback(prob, adjoints)
        packs = [(BoundaryTrace(tgrid, side, v), BoundaryTrace(tgrid, side, u))
                 for (side, _, _, _), v, u in zip(prob.follower_edges, traces, weighted)]
        if c == "C":
            follower, follower_weighted = packs[0]
        else:
            follower = tuple(p[0] for p in packs)
            follower_weighted = tuple(p[1] for p in packs)

    jval = _functional_at_equilibrium(prob, state, adjoints, leader_arr)
    return SaddleSolution(c, follower, disturbance, state_field, adj_fields,
                          iters, res, ratios, jval, follower_weighted)


def _weighted_feedback(prob: _Problem, adjoints: tuple) -> tuple:
    """u = rho_star * v, computed from the exponent so it never over/underflows."""
    cfg = prob.cfg
    out = []
    for (side, col, rho, ell), r in zip(prob.follower_edges, adjoints):
        dn = normal_derivative_o1(r, cfg.grid, side)
        out.append(rho * prob.ginv * smooth_trace(dn) / (ell ** 2 * prob.wtrap))
    return tuple(out)


def _interior_to_field(grid, tgrid, interior) -> SpaceTimeField:
    vals = np.zeros((tgrid.n_levels, grid.n_nodes))
    vals[:, 1:-1] = interior
    return SpaceTimeField(grid, tgrid, vals)


def _state_to_field(prob, state, adjoints, leader_arr) -> SpaceTimeField:
    """State with its actual Dirichlet rows restored."""
    cfg = prob.cfg
    vals = np.zeros((cfg.tgrid.n_levels, cfg.grid.n_nodes))
    vals[:, 1:-1] = state
    c = cfg.configuration
    if c == "A":
        for (side, col, rho, _), v in zip(prob.follower_edges, follower_feedback(prob, adjoints)):
            vals[:, 0 if side == LEFT else -1] += rho * v
    else:
        if leader_arr is not None:
            vals[:, 0 if prob.leader_side == LEFT else -1] += leader_arr
        if c in ("C", "D"):
            for (side, col, rho, _), v in zip(prob.follower_edges, follower_feedback(prob, adjoints)):
                vals[:, 0 if side == LEFT else -1] += rho * v
    return SpaceTimeField(cfg.grid, cfg.tgrid, vals)


# --- functional evaluation ---------------------------------------------------

def _tracking_term(prob: _Problem, state: np.ndarray, which: int = 0) -> float:
    cfg = prob.cfg
    mask, target = prob.obs_masks[which], prob.targets[which]
    diff = state - target
    return 0.5 * qmid_field(diff, diff, cfg.grid, cfg.tgrid.dt, mask=mask, theta=cfg.theta)


def _functional_at_equilibrium(prob, state, adjoints, leader_arr) -> float:
    cfg, params = prob.cfg, prob.params
    c = cfg.configuration
    if c == "A":
        v = follower_feedback(prob, adjoints)
        psi = adjoints[0] / params.gamma ** 2
        return evaluate_functional_raw(prob, v, psi, leader_arr, state=state)
    if c == "B":
        p = adjoints[0]
        v = np.where(prob.b1_mask[None, :], -p / params.ell ** 2, 0.0)
        psi = np.where(prob.b2_mask[None, :], p / params.gamma ** 2, 0.0)
        return evaluate_functional_raw(prob, v, psi, leader_arr, state=state)
    v = follower_feedback(prob, adjoints)
    return evaluate_functional_raw(prob, v, None, leader_arr, state=state, index=0)


def evaluate_functional_raw(prob: _Problem, follower, disturbance, leader_arr,
                            state: np.ndarray | None = None, index: int = 0,
                            debug: bool = False) -> float:
    """Cost functional value for explicit controls, raw-array flavour.

    ``follower``: tuple of edge traces (A/C/D) or an interior field (B);
    ``disturbance``: interior field (A/B) or None; ``index`` selects the
    follower whose cost is evaluated in configuration D.
    """
    cfg, params = prob.cfg, prob.params
    grid, tgrid = cfg.grid, cfg.tgrid
    c = cfg.configuration
    dt = tgrid.dt

    if state is None:
        state = _state_solve_explicit(prob, follower, disturbance, leader_arr)
    elif debug:
        resolved = _state_solve_explicit(prob, follower, disturbance, leader_arr)
        scale = max(float(np.max(np.abs(resolved))), 1.0)
        if np.max(np.abs(resolved - state)) > 1e-10 * scale:
            raise ValueError("supplied state is inconsistent with the given controls")

    value = _tracking_term(prob, state, which=index)
    if c == "A":
        for (side, col, rho, ell), v in zip(prob.follower_edges, follower):
            value += 0.5 * params.ell ** 2 * qmid_trace(v, v, dt, theta=cfg.theta)
        value -= 0.5 * params.gamma ** 2 * qmid_field(
            disturbance, disturbance, grid, dt, theta=cfg.theta)
    elif c == "B":
        value += 0.5 * params.ell ** 2 * qmid_field(
            follower, follower, grid, dt, mask=prob.b1_mask, theta=cfg.theta)
        value -= 0.5 * params.gamma ** 2 * qmid_field(
            disturbance, disturbance, grid, dt, mask=prob.b2_mask, theta=cfg.theta)
    else:
        side, col, rho, ell = prob.follower_edges[index]
        v = follower[index]
        terms = capped_weighted_sq(prob.log_g2, v)
        value += 0.5 * ell ** 2 * float(np.sum(dt * prob.wtrap * terms))
    return float(value)


def _state_solve_explicit(prob: _Problem, follower, disturbance, leader_arr,
                          y0=None) -> np.ndarray:
    """State for explicitly given follower controls (not the feedback form).

    The controls may carry one trailing batch axis; ``leader_arr`` then
    carries a trailing axis of length 1 (see ``_stream_states``).
    """
    cfg = prob.cfg
    grid, tgrid = cfg.grid, cfg.tgrid
    c = cfg.configuration
    y0 = cfg.y0 if y0 is None else y0
    left = right = None

    def add_bnd(side, vals):
        nonlocal left, right
        if side == LEFT:
            left = vals if left is None else left + vals
        else:
            right = vals if right is None else right + vals

    source = None
    if c == "A":
        source = disturbance if leader_arr is None else disturbance + leader_arr
        for (side, col, rho, ell), v in zip(prob.follower_edges, follower):
            add_bnd(side, rho * v)
    elif c == "B":
        source = np.zeros(np.broadcast_shapes(follower.shape, disturbance.shape))
        source[:, prob.b1_mask] += follower[:, prob.b1_mask]
        source[:, prob.b2_mask] += disturbance[:, prob.b2_mask]
        if leader_arr is not None:
            add_bnd(prob.leader_side, leader_arr)
    else:
        for (side, col, rho, ell), v in zip(prob.follower_edges, follower):
            add_bnd(side, rho * v)
        if leader_arr is not None:
            add_bnd(prob.leader_side, leader_arr)
    return march(grid, tgrid, y0, source, left, right, theta=cfg.theta)


def evaluate_functional(cfg: ScenarioConfig, params: RobustParams, follower,
                        disturbance=None, leader=None, state: SpaceTimeField | None = None,
                        index: int = 0, debug: bool = False) -> float:
    """Public functional evaluation on typed controls.

    ``follower``: dict side->BoundaryTrace (A), SpaceTimeField (B),
    BoundaryTrace (C) or tuple of two traces (D).
    """
    prob = build_problem(cfg, params)
    c = cfg.configuration
    if c == "A":
        traces = tuple(follower[side].values if side in follower else np.zeros(cfg.tgrid.n_levels)
                       for (side, _, _, _) in prob.follower_edges)
        dist = disturbance.interior if disturbance is not None else np.zeros(
            (cfg.tgrid.n_levels, cfg.grid.n_interior))
        fol = traces
    elif c == "B":
        fol = follower.interior
        dist = disturbance.interior if disturbance is not None else np.zeros_like(fol)
    elif c == "C":
        fol = (follower.values,)
        dist = None
    else:
        fol = tuple(tr.values for tr in follower)
        dist = None
    leader_arr = _leader_array(prob, leader)
    st = state.interior if state is not None else None
    return evaluate_functional_raw(prob, fol, dist, leader_arr, state=st,
                                   index=index, debug=debug)


# --- verification -------------------------------------------------------------

@dataclass
class GateauxReport:
    lambdas: tuple
    discrepancies: tuple      # relative, per lambda
    noise_floors: tuple       # cancellation floor eps*|y|/(lambda*|y'|)
    max_discrepancy: float
    initial_level_max: float  # max |y'| at level 0 (must vanish)


def gateaux_check(cfg: ScenarioConfig, params: RobustParams, v, psi, direction,
                  lambdas=(1.0, 1e-3, 1e-6), leader=None) -> GateauxReport:
    """Difference quotients of the control-to-state map against the linearized solve.

    The map is affine, so the quotient equals the linearized solution up to
    floating-point cancellation; the report carries the theoretical noise
    floor so the step-independence is interpretable.
    """
    if cfg.configuration != "A":
        raise ValueError("the directional-derivative check is set in configuration A")
    prob = build_problem(cfg, params)
    leader_arr = _leader_array(prob, leader)
    vdir, psidir = direction

    base_traces = tuple(v[side].values if side in v else np.zeros(cfg.tgrid.n_levels)
                        for (side, _, _, _) in prob.follower_edges)
    dir_traces = tuple(vdir[side].values if side in vdir else np.zeros(cfg.tgrid.n_levels)
                       for (side, _, _, _) in prob.follower_edges)
    psi_base = psi.interior if psi is not None else np.zeros((cfg.tgrid.n_levels, cfg.grid.n_interior))
    psi_dir = psidir.interior

    y_base = _state_solve_explicit(prob, base_traces, psi_base, leader_arr)
    linearized = _state_solve_explicit(prob, dir_traces, psi_dir, None,
                                       y0=np.zeros(cfg.grid.n_interior))
    lin_norm = max(float(np.max(np.abs(linearized))), 1e-300)
    base_norm = float(np.max(np.abs(y_base)))

    discs, floors = [], []
    for lam in lambdas:
        pert_traces = tuple(b + lam * d for b, d in zip(base_traces, dir_traces))
        y_pert = _state_solve_explicit(prob, pert_traces, psi_base + lam * psi_dir, leader_arr)
        quotient = (y_pert - y_base) / lam
        discs.append(float(np.max(np.abs(quotient - linearized))) / lin_norm)
        floors.append(np.finfo(float).eps * base_norm / (lam * lin_norm))
    return GateauxReport(tuple(lambdas), tuple(discs), tuple(floors),
                         max(discs), float(np.max(np.abs(linearized[0]))))


@dataclass
class VerifyReport:
    n_perturbations: int
    max_min_violation: float      # worst violation of the minimizing inequalities
    max_max_violation: float      # worst violation of the maximizing inequality (A/B)
    max_directional_derivative: float
    functional_value: float
    concavity_estimates: tuple = ()
    passed: bool = True
    worst_perturbation: tuple = ()  # (index, 'control'|'disturbance') of the offender


def verify_saddle(cfg: ScenarioConfig, sol: SaddleSolution, leader, params: RobustParams,
                  n_perturbations: int = 100, seed: int = 0, slack: float = 1e-9,
                  magnitudes=(1e-3, 1.0), n_directions: int = 20,
                  stationarity_tol: float = 1e-8) -> VerifyReport:
    """Check the defining inequalities of the equilibrium by random perturbation.

    A/B: both saddle inequalities; C: plain minimality; D: both unilateral
    Nash conditions.  Additionally estimates the first-order stationarity of
    the discrete functional by exact central differences (the functional is
    quadratic in the well-scaled variables).  The perturbed states are solved
    in batched blocks (``_stream_states``); every value equals the one of a
    single solve bit for bit.
    """
    prob = build_problem(cfg, params)
    leader_arr = _leader_array(prob, leader)
    rng = np.random.default_rng(seed)
    c = cfg.configuration
    grid, tgrid = cfg.grid, cfg.tgrid
    klev, n = tgrid.n_levels, grid.n_interior

    jbar = sol.functional_value
    scale = 1.0 + abs(jbar)
    min_viol = 0.0
    max_viol = 0.0
    worst = ()

    def note_min(idx, kind, value):
        nonlocal min_viol, worst
        if value > min_viol:
            min_viol, worst = value, (idx, kind)

    def note_max(idx, value):
        nonlocal max_viol, worst
        if value > max_viol:
            max_viol, worst = value, (idx, "disturbance")

    def rand_mag():
        lo, hi = magnitudes
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    # A/B: each perturbation yields the perturbed follower, then the perturbed
    # disturbance
    if c == "A":
        vbar = tuple(sol.follower[side].values for (side, _, _, _) in prob.follower_edges)
        psibar = sol.disturbance.interior

        def controls():
            for _ in range(n_perturbations):
                m = rand_mag()
                dv = tuple(m * rng.standard_normal(klev) for _ in vbar)
                dpsi = m * rng.standard_normal((klev, n))
                yield tuple(b + d for b, d in zip(vbar, dv)), psibar
                yield vbar, psibar + dpsi
    elif c == "B":
        vbar = sol.follower.interior
        psibar = sol.disturbance.interior

        def controls():
            for _ in range(n_perturbations):
                m = rand_mag()
                dv = np.zeros_like(vbar)
                dv[:, prob.b1_mask] = m * rng.standard_normal((klev, int(prob.b1_mask.sum())))
                dpsi = np.zeros_like(psibar)
                dpsi[:, prob.b2_mask] = m * rng.standard_normal((klev, int(prob.b2_mask.sum())))
                yield vbar + dv, psibar
                yield vbar, psibar + dpsi

    if c in ("A", "B"):
        values = [evaluate_functional_raw(prob, f, d, leader_arr, state=y)
                  for f, d, y in _stream_states(prob, leader_arr, controls())]
        for k in range(n_perturbations):
            note_min(k, "control", jbar - values[2 * k])
            note_max(k, values[2 * k + 1] - jbar)
    else:
        vbars = ((sol.follower.values,) if c == "C"
                 else tuple(tr.values for tr in sol.follower))
        state = _state_solve_explicit(prob, vbars, None, leader_arr)
        jbars = [evaluate_functional_raw(prob, vbars, None, leader_arr, state=state, index=i)
                 for i in range(len(vbars))]
        # rho_star is infinite at t = 0 and T: a deviation there has infinite
        # cost, saturates every perturbed value at the cap and hides any
        # violation, so the perturbations vanish on those levels
        live = np.isfinite(prob.log_g2)

        def controls():
            for _ in range(n_perturbations):
                m = rand_mag()
                for i in range(len(vbars)):
                    dv = np.where(live, m * rng.standard_normal(klev), 0.0)
                    yield tuple(v + dv if j == i else v for j, v in enumerate(vbars)), None

        values = [evaluate_functional_raw(prob, f, None, leader_arr, state=y, index=i)
                  for (f, _, y), i in zip(_stream_states(prob, leader_arr, controls()),
                                          itertools.cycle(range(len(vbars))))]
        for k in range(n_perturbations):
            for i in range(len(vbars)):
                note_min(k, f"control {i + 1}", jbars[i] - values[k * len(vbars) + i])

    max_dderiv = _stationarity_estimate(prob, sol, leader_arr, rng, n_directions)

    concavity = ()
    if c == "A":
        concavity = _concavity_estimates(prob, rng, 3)

    passed = (min_viol <= slack and max_viol <= slack
              and max_dderiv <= stationarity_tol * scale)
    if passed:
        worst = ()
    return VerifyReport(n_perturbations, min_viol, max_viol, max_dderiv,
                        jbar, concavity, passed, worst)


def _stream_states(prob: _Problem, leader_arr, controls, y0=None):
    """Yield (follower, disturbance, state) for each explicit control pair of ``controls``.

    ``controls`` is iterated a block at a time and each block is solved by
    one batched march through ``_state_solve_explicit``.  Each state is handed
    out as a contiguous copy of its column, so the reductions that follow sum
    in the same order as after a single solve.  A block is released before
    the next one is drawn, which bounds memory and keeps any random draws
    made inside ``controls`` in their original order.
    """
    cfg = prob.cfg
    width = max(1, _BLOCK_BYTES // (8 * cfg.tgrid.n_levels * cfg.grid.n_interior))
    lead = None if leader_arr is None else leader_arr[..., None]

    def stacked(columns):
        return np.stack(columns, axis=-1)

    it = iter(controls)
    while block := list(itertools.islice(it, width)):
        fols, dists = zip(*block)
        states = _state_solve_explicit(
            prob,
            stacked(fols) if cfg.configuration == "B" else tuple(map(stacked, zip(*fols))),
            None if dists[0] is None else stacked(dists),
            lead, y0=y0)
        for j, (f, d) in enumerate(block):
            yield f, d, np.ascontiguousarray(states[..., j])
        del block, fols, dists, states  # release this block before drawing the next


def _stationarity_estimate(prob: _Problem, sol: SaddleSolution, leader_arr,
                           rng, n_directions: int) -> float:
    """Max |directional derivative| over random unit-magnitude directions.

    Central differences are exact for the quadratic functionals.  For C/D the
    derivative is taken in the rho_star-weighted control variable, whose
    feedback formula is finite through the weight's over/underflow range.
    """
    cfg = prob.cfg
    c = cfg.configuration
    klev, n = cfg.tgrid.n_levels, cfg.grid.n_interior
    step = 1e-2

    # every direction yields the +step control, then the -step one
    if c == "A":
        vbar = tuple(sol.follower[side].values for (side, _, _, _) in prob.follower_edges)
        psibar = sol.disturbance.interior

        def controls():
            for _ in range(n_directions):
                dv = tuple(rng.standard_normal(klev) for _ in vbar)
                dpsi = rng.standard_normal((klev, n))
                yield tuple(b + step * d for b, d in zip(vbar, dv)), psibar + step * dpsi
                yield tuple(b - step * d for b, d in zip(vbar, dv)), psibar - step * dpsi
    elif c == "B":
        vbar = sol.follower.interior
        psibar = sol.disturbance.interior

        def controls():
            for _ in range(n_directions):
                dv = np.where(prob.b1_mask[None, :], rng.standard_normal((klev, n)), 0.0)
                dpsi = np.where(prob.b2_mask[None, :], rng.standard_normal((klev, n)), 0.0)
                yield vbar + step * dv, psibar + step * dpsi
                yield vbar - step * dv, psibar - step * dpsi

    if c in ("A", "B"):
        values = [evaluate_functional_raw(prob, f, d, leader_arr, state=y)
                  for f, d, y in _stream_states(prob, leader_arr, controls())]
    else:
        ubars = ((sol.follower_weighted.values,) if c == "C"
                 else tuple(tr.values for tr in sol.follower_weighted))
        cases = []  # (follower index, perturbed weighted control)
        for i, ubar in enumerate(ubars):
            for _ in range(max(1, n_directions // len(ubars))):
                du = rng.standard_normal(klev)
                cases += [(i, ubar + step * du), (i, ubar - step * du)]
        controls = ((tuple(prob.ginv * (u_i if j == i else u) for j, u in enumerate(ubars)), None)
                    for i, u_i in cases)
        values = [_functional_weighted(prob, i, u_i, y) for (i, u_i), (_, _, y)
                  in zip(cases, _stream_states(prob, leader_arr, controls))]
    worst = 0.0
    for jp, jm in zip(values[0::2], values[1::2]):
        worst = max(worst, abs(jp - jm) / (2 * step))
    return worst


def _functional_weighted(prob: _Problem, index: int, u_i: np.ndarray,
                         state: np.ndarray) -> float:
    """Cost of follower ``index`` in the weighted variable u = rho_star * v, at its state."""
    cfg = prob.cfg
    side, col, rho, ell = prob.follower_edges[index]
    value = _tracking_term(prob, state, which=index)
    value += 0.5 * ell ** 2 * float(np.sum(cfg.tgrid.dt * prob.wtrap * u_i ** 2))
    return value


def _concavity_estimates(prob: _Problem, rng, count: int) -> tuple:
    """Second derivatives of the disturbance map along ``count`` random directions.

    Each is |y'|^2_obs - gamma^2 |psi'|^2, negative where the functional is
    concave in the disturbance.
    """
    cfg, params = prob.cfg, prob.params
    klev, n = cfg.tgrid.n_levels, cfg.grid.n_interior
    zeros = tuple(np.zeros(klev) for _ in prob.follower_edges)
    controls = ((zeros, rng.standard_normal((klev, n))) for _ in range(count))
    mask = prob.obs_masks[0]
    return tuple(
        qmid_field(yprime, yprime, cfg.grid, cfg.tgrid.dt, mask=mask, theta=cfg.theta)
        - params.gamma ** 2 * qmid_field(dpsi, dpsi, cfg.grid, cfg.tgrid.dt, theta=cfg.theta)
        for _, dpsi, yprime in _stream_states(prob, None, controls, y0=np.zeros(n)))


def measure_contraction(cfg: ScenarioConfig, leader, params: RobustParams,
                        sweeps: int = 10) -> tuple:
    """Residual ratios of the Picard iteration over a fixed number of sweeps."""
    sol = solve_optimality(cfg, leader, params, sweeps=sweeps)
    return sol.contraction_ratios

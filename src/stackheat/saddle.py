"""Follower equilibria: Picard iteration on the coupled optimality systems.

For a fixed leader control the follower problem (robust saddle point in A/B,
weighted minimization in C, two-player Nash in D) is characterized by a
forward state coupled to one or two backward adjoints.  The iteration lags
the adjoint: solve the state with the current follower feedback, re-solve the
adjoint(s) from the tracking residual, repeat; the map contracts at a rate
proportional to 1/mu with mu = min(ell^2, gamma^2).

Each configuration's coupling is written once, as methods of ``_Problem``:
``feedback`` reads the follower (and disturbance) off the adjoint(s),
``forcing`` turns explicit controls into the source and Dirichlet rows of a
``march`` (``state`` runs that march), and ``field`` puts the marched rows
back into a field.  The optimality system, the functional evaluation, the
perturbation checks and the HUM adjoint pair (whose forward component is
forcing(feedback(phi))) all go through them, so every solver applies the same
discrete control operator and the same transpose of it.  The dense oracle
(``oracle.py``) assembles the same systems independently.

Discretization follows discretize-then-optimize: the cost functionals are
evaluated with the scheme-consistent midpoint quadrature (trapezoid-in-time
for the rho_star-weighted boundary terms), and the feedback law is the exact
stationarity condition of those discrete functionals under the
Crank-Nicolson scheme.  In particular the boundary feedback uses the
first-order normal derivative, the exact transpose of the scheme's boundary
injection, and configurations C/D acquire a three-point time smoothing of
the adjoint trace.  Equilibria therefore pass perturbation checks at
round-off level rather than at discretization level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, NonContractionError
from .grids import LEFT, RIGHT, BoundaryTrace, SpaceTimeField
from .heat import (_assemble_field, march, march_backward, normal_derivative_o1,
                   trapezoid_time_weights)
from .products import l2q_norm_interior, qmid_field, qmid_trace
from .scenario import RobustParams, ScenarioConfig, require_valid
from .weights import _capped_exp, _exp_neg, rho_star_log, rho_star_inv_sq

# verify_saddle solves its perturbed states, and the observability probe its
# adjoint pairs, in blocks of columns, each block one batched solve; the width
# keeps one (n_levels, n_interior, width) float array within this many bytes
# (25 columns at n_interior = n_steps = 50).
_BLOCK_BYTES = 512 * 1024


def _block_width(cfg: ScenarioConfig) -> int:
    """Columns per block: the most that keep one batched field within ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * cfg.tgrid.n_levels * cfg.grid.n_interior))


# Verification thresholds, read by the runner's verdicts too.  An equilibrium
# passes when no perturbation of magnitude in PERTURBATION_MAGNITUDES gains
# more than SLACK, and no directional derivative over STATIONARITY_DIRECTIONS
# random directions exceeds STATIONARITY_TOL * (1 + |J|).
SLACK = 1e-9
STATIONARITY_TOL = 1e-8
PERTURBATION_MAGNITUDES = (1e-3, 1.0)
STATIONARITY_DIRECTIONS = 20


def smooth_trace(z: np.ndarray) -> np.ndarray:
    """Midpoint-average followed by its transpose: the (1/4, 1/2, 1/4) stencil."""
    m = 0.5 * (z[:-1] + z[1:])
    out = np.zeros_like(z)
    out[0] = 0.5 * m[0]
    out[-1] = 0.5 * m[-1]
    out[1:-1] = 0.5 * (m[:-1] + m[1:])
    return out


def _lead(v: np.ndarray, ndim: int) -> np.ndarray:
    """``v`` padded with trailing length-1 axes to ``ndim`` axes.

    It then broadcasts along the leading axes of an array with trailing batch axes.
    """
    return v if v.ndim == ndim else v.reshape(v.shape + (1,) * (ndim - v.ndim))


def capped_weighted_sq(log_w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """w * v^2 evaluated from log w, saturated at 1e300, exact 0 at v = 0."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    nz = v != 0.0
    out[nz] = _capped_exp(log_w[nz] + 2.0 * np.log(np.abs(v[nz])))
    return out


@dataclass
class _Problem:
    """Precomputed masks, feedback coefficients and data arrays for one scenario.

    Its methods are the scenario's coupling, shared by every solver.
    """

    cfg: ScenarioConfig
    params: RobustParams
    obs_masks: tuple
    targets: tuple          # interior arrays matching obs_masks
    follower_edges: tuple   # ((side, rho, ell), ...) one entry per follower edge
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

    def feedback(self, adjoints: tuple, time_weight) -> tuple:
        """Controls read off the adjoint(s): (follower, disturbance).

        A:   v = rho * dq/dn / ell^2 per edge (first-order normal derivative),
             psi = q / gamma^2;
        B:   v = -p / ell^2 on B1 and psi = p / gamma^2 on B2, interior fields;
        C/D: v_i = rho_i * w * smooth(dr_i/dn) / (ell_i^2 * trapezoid weight),
             no disturbance.
        ``time_weight`` is w: rho_star^{-2} gives the control v, rho_star^{-1}
        the well-scaled rho_star * v.  A and B do not use it.  The adjoints
        are (n_levels, n_interior, *B): trailing batch axes ``B`` are
        independent columns, and every column's controls equal those of a
        single-column call bit for bit.
        """
        cfg, params = self.cfg, self.params
        c = cfg.configuration
        if c == "A":
            q = adjoints[0]
            return (tuple(rho * normal_derivative_o1(q, cfg.grid, side) / ell ** 2
                          for side, rho, ell in self.follower_edges),
                    q / params.gamma ** 2)
        if c == "B":
            p = adjoints[0]
            return (np.where(_lead(self.b1_mask, p.ndim - 1), -p / params.ell ** 2, 0.0),
                    np.where(_lead(self.b2_mask, p.ndim - 1), p / params.gamma ** 2, 0.0))
        return tuple(
            rho * _lead(time_weight, r.ndim - 1)
            * smooth_trace(normal_derivative_o1(r, cfg.grid, side))
            / (ell ** 2 * _lead(self.wtrap, r.ndim - 1))
            for (side, rho, ell), r in zip(self.follower_edges, adjoints)), None

    def raw(self, follower, disturbance=None) -> tuple:
        """Typed controls as the raw (follower, disturbance) that ``feedback`` returns.

        The reverse of ``_package_solution``: ``follower`` is a dict side ->
        BoundaryTrace (A), a SpaceTimeField (B), a BoundaryTrace (C) or a
        tuple of traces (D).  A missing A edge and a missing A/B disturbance
        read as zero.
        """
        cfg = self.cfg
        klev = cfg.tgrid.n_levels
        c = cfg.configuration
        if c == "A":
            follower = tuple(follower[side].values if side in follower else np.zeros(klev)
                             for side, _, _ in self.follower_edges)
        elif c == "B":
            follower = follower.interior
        else:
            return tuple(tr.values for tr in ((follower,) if c == "C" else follower)), None
        if disturbance is None:
            return follower, np.zeros((klev, cfg.grid.n_interior))
        return follower, disturbance.interior

    def forcing(self, follower, disturbance, leader) -> tuple:
        """(source, left, right) of the forward ``march`` driven by explicit controls.

        ``follower`` and ``disturbance`` are laid out as ``feedback`` returns
        them and ``leader`` is the raw leader array or None.  They may carry
        trailing batch axes (the leader then with length-1 ones).  A is
        forced by psi + leader in the interior and rho * v on each follower
        edge, B by v on B1 and psi on B2 in the interior and the leader on
        its edge, C/D by rho_i * v_i and the leader on their edges.
        """
        c = self.cfg.configuration
        edges = {}
        source = None
        if c == "A":
            source = disturbance if leader is None else disturbance + leader
        elif c == "B":
            source = np.zeros(np.broadcast_shapes(follower.shape, disturbance.shape))
            source[:, self.b1_mask] += follower[:, self.b1_mask]
            source[:, self.b2_mask] += disturbance[:, self.b2_mask]
        # B has no follower edges; a row starts from +0.0, so a vanishing row
        # is never written as -0
        for (side, rho, _), v in zip(self.follower_edges, follower):
            edges[side] = edges.get(side, 0.0) + rho * v
        if self.leader_side is not None and leader is not None:
            edges[self.leader_side] = edges.get(self.leader_side, 0.0) + leader
        return source, edges.get(LEFT), edges.get(RIGHT)

    def state(self, follower, disturbance, leader, y0=None) -> np.ndarray:
        """State for explicit controls: one ``march`` of ``forcing`` from ``y0``."""
        cfg = self.cfg
        y0 = cfg.y0 if y0 is None else y0
        return march(cfg.grid, cfg.tgrid, y0, *self.forcing(follower, disturbance, leader))

    def field(self, interior, left=None, right=None) -> SpaceTimeField:
        """Interior levels with the marched ``left``/``right`` rows (zero where None)."""
        cfg = self.cfg
        rows = {side: vals for side, vals in ((LEFT, left), (RIGHT, right)) if vals is not None}
        return _assemble_field(cfg.grid, cfg.tgrid, interior, rows)


def build_problem(cfg: ScenarioConfig, params: RobustParams) -> _Problem:
    require_valid(cfg)
    grid, tgrid = cfg.grid, cfg.tgrid
    c = cfg.configuration

    obs_regions = cfg.observation_regions()
    obs_masks = tuple(r.interior_mask(grid) for r in obs_regions)
    targets = tuple(t.interior for t in cfg.targets())

    follower_edges = []
    if c == "A":
        for side in cfg.gamma_set.support:
            follower_edges.append((side, cfg.gamma_set.weight(side), params.ell))
    elif c == "C":
        for side in cfg.gamma2.support:
            follower_edges.append((side, cfg.gamma2.weight(side), params.ell))
    elif c == "D":
        for bs, ell in ((cfg.gamma1, params.ell), (cfg.gamma2, params.second_ell)):
            side = bs.support[0]
            follower_edges.append((side, bs.weight(side), ell))

    g2inv = ginv = log_g2 = None
    if c in ("C", "D"):
        eta = cfg.eta()
        t = tgrid.times()
        log_g2 = np.asarray(rho_star_log(cfg.wspec, eta, t), dtype=float)
        g2inv = np.asarray(rho_star_inv_sq(cfg.wspec, eta, t), dtype=float)
        ginv = _exp_neg(log_g2, 0.5)

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


def _adjoint_solve(prob: _Problem, state: np.ndarray) -> tuple:
    """Backward solve(s) driven by the tracking residual(s)."""
    cfg = prob.cfg
    grid, tgrid = cfg.grid, cfg.tgrid
    out = []
    for mask, target in zip(prob.obs_masks, prob.targets):
        src = np.zeros_like(state)
        src[:, mask] = state[:, mask] - target[:, mask]
        out.append(march_backward(grid, tgrid, np.zeros(grid.n_interior), src))
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
    exit_status: str                 # picard_coupled's: converged | round-off | fixed-sweeps
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


class _Column:
    """Stopping rule of one Picard column: its first correction, ratios and streak.

    A plain class: building a dataclass costs about 0.2 ms at every import.
    """

    def __init__(self):
        self.first: Optional[float] = None
        self.last = 0.0
        self.ratios = []
        self.bad_streak = 0

    def stop(self, delta: float, it: int, tol: float, fixed: bool) -> Optional[str]:
        """Record sweep ``it``'s correction; the exit status once the column stops.

        "exact" when the first correction vanishes (the sweep's own state is
        final), "round-off" when the corrections stopped contracting below
        1e-6 of the first, "converged" at ``tol``; None while it goes on.
        Raises ``NonContractionError`` after five growing corrections.  With
        ``fixed`` (a forced sweep count) only "exact" stops a column.
        """
        prev, self.last = self.last, delta
        if self.first is None:
            self.first = delta
            if delta == 0.0:
                return "exact"
        elif prev > 0:
            ratio = delta / prev
            self.ratios.append(ratio)
            self.bad_streak = self.bad_streak + 1 if ratio >= 1.0 else 0
            if self.bad_streak >= 2 and delta <= 1e-6 * self.first and not fixed:
                return "round-off"
            if self.bad_streak >= 5 and not fixed:
                raise NonContractionError(ratio, it)
        if not fixed and delta <= tol * self.first:
            return "converged"
        return None


def _picard_columns(prob: _Problem, forward, backward, n_adjoints: int,
                    width: Optional[int] = None, sweeps: Optional[int] = None) -> list:
    """Lagged fixed-point loop on independent columns, each stopping on its own.

    With ``width`` the state and adjoint arrays carry one trailing batch axis
    of that many columns; without it they have none (one column).  Each
    sweep calls ``forward(adjoints, cols)`` and ``backward(state)`` once for
    all active columns, ``cols`` naming the columns the trailing axis holds.
    A column's correction is measured on a contiguous copy, so it sums in
    the order of a single-column loop, and its stopping rule is its own
    ``_Column``.  A column that stops leaves the active set after the final
    forward solve of the columns that stop with it, so each column's result
    equals the one-column loop's bit for bit.  Returns one (state, adjoints,
    iterations, residual, ratios, status) per column, as ``picard_coupled``.
    """
    cfg, params = prob.cfg, prob.params
    grid, tgrid = cfg.grid, cfg.tgrid
    batch = () if width is None else (width,)
    adjoints = tuple(np.zeros((tgrid.n_levels, grid.n_interior) + batch)
                     for _ in range(n_adjoints))
    cols = [0] if width is None else list(range(width))
    runs = [_Column() for _ in cols]
    results = [None] * len(cols)

    def column(a, pos):
        return a if width is None else np.ascontiguousarray(a[..., pos])

    def take(arrays, pos):
        return arrays if width is None else tuple(a[..., pos] for a in arrays)

    tol = params.fixed_point_tol
    fixed = sweeps is not None
    max_iter = sweeps if fixed else params.max_iterations
    for it in range(1, max_iter + 1):
        state = forward(adjoints, cols)
        new_adjoints = backward(state)
        diffs = [a - b for a, b in zip(new_adjoints, adjoints)]
        adjoints = new_adjoints
        stopped = {}   # position -> status, for the columns needing a final forward solve
        for pos, c in enumerate(cols):
            delta = float(np.sqrt(sum(
                l2q_norm_interior(column(d, pos), grid, tgrid.dt) ** 2 for d in diffs)))
            status = runs[c].stop(delta, it, tol, fixed)
            if status == "exact":
                results[c] = (column(state, pos), tuple(column(a, pos) for a in adjoints),
                              it, 0.0, (), "converged")
            elif status is not None:
                stopped[pos] = status
        if stopped:
            pos = list(stopped)
            final_adjoints = take(adjoints, pos)
            final = forward(final_adjoints, [cols[p] for p in pos])
            for j, p in enumerate(pos):
                run = runs[cols[p]]
                results[cols[p]] = (column(final, j), tuple(column(a, j) for a in final_adjoints),
                                    it, run.last / run.first, tuple(run.ratios), stopped[p])
        keep = [pos for pos, c in enumerate(cols) if results[c] is None]
        if not keep:
            return results
        if len(keep) < len(cols):
            adjoints = take(adjoints, keep)
            cols = [cols[p] for p in keep]
    if fixed:
        state = forward(adjoints, cols)
        for pos, c in enumerate(cols):
            run = runs[c]
            results[c] = (column(state, pos), tuple(column(a, pos) for a in adjoints), max_iter,
                          run.last / max(run.first, 1e-300), tuple(run.ratios), "fixed-sweeps")
        return results
    last = max(runs[c].last / max(runs[c].first, 1e-300) for c in cols)
    which = "last" if len(runs) == 1 else f"in {len(cols)} of {len(runs)} columns; largest last"
    raise ConvergenceError(
        f"fixed-point iteration did not reach tol={tol} within {max_iter} sweeps "
        f"({which} relative correction {last:.3g})")


def picard_coupled(prob: _Problem, forward, backward, n_adjoints: int,
                   sweeps: Optional[int] = None):
    """Generic lagged fixed-point loop shared by the optimality and adjoint systems.

    Returns (state, adjoints, iterations, residual, ratios, status).  The
    status is "converged" when the relative correction reached the tolerance,
    "round-off" when the corrections stopped contracting below 1e-6 of the
    first one (accepted as the floor of the arithmetic) and "fixed-sweeps"
    when ``sweeps`` forced the number of iterations (used when measuring
    contraction rates).  This is the one-column case of ``_picard_columns``.
    """
    (out,) = _picard_columns(prob, lambda adjoints, _: forward(adjoints), backward,
                             n_adjoints, sweeps=sweeps)
    return out


def solve_optimality(cfg: ScenarioConfig, leader, params: RobustParams,
                     sweeps: Optional[int] = None) -> SaddleSolution:
    """Solve the follower optimality system for a fixed leader control.

    ``leader`` is a SpaceTimeField supported on omega (configuration A), a
    BoundaryTrace on the leader endpoint (B/C/D), or None for the zero leader.
    """
    prob = build_problem(cfg, params)
    leader_arr = _leader_array(prob, leader)
    state, adjoints, iters, res, ratios, status = picard_coupled(
        prob,
        lambda adj: prob.state(*prob.feedback(adj, prob.g2inv), leader_arr),
        lambda st: _adjoint_solve(prob, st),
        prob.n_adjoints, sweeps=sweeps)
    return _package_solution(prob, leader_arr, state, adjoints, iters, res, ratios, status)


def _package_solution(prob, leader_arr, state, adjoints, iters, res, ratios,
                      status) -> SaddleSolution:
    """Typed solution; the controls are read off the adjoints once."""
    tgrid = prob.cfg.tgrid
    c = prob.cfg.configuration
    follower, disturbance = prob.feedback(adjoints, prob.g2inv)
    _, left, right = prob.forcing(follower, disturbance, leader_arr)
    jval = evaluate_functional_raw(prob, follower, disturbance, leader_arr, state=state)

    def traces(values):
        return tuple(BoundaryTrace(tgrid, side, v)
                     for (side, _, _), v in zip(prob.follower_edges, values))

    follower_weighted = None
    if c == "A":
        follower = {tr.side: tr for tr in traces(follower)}
    elif c == "B":
        follower = prob.field(follower)
    else:
        follower = traces(follower)
        follower_weighted = traces(prob.feedback(adjoints, prob.ginv)[0])
        if c == "C":
            follower, follower_weighted = follower[0], follower_weighted[0]
    if disturbance is not None:
        disturbance = prob.field(disturbance)
    return SaddleSolution(c, follower, disturbance, prob.field(state, left, right),
                          tuple(prob.field(a) for a in adjoints),
                          iters, res, status, ratios, jval, follower_weighted)


# --- functional evaluation ---------------------------------------------------

def _tracking_term(prob: _Problem, state: np.ndarray, which: int = 0) -> float:
    cfg = prob.cfg
    mask, target = prob.obs_masks[which], prob.targets[which]
    diff = state - target
    return 0.5 * qmid_field(diff, diff, cfg.grid, cfg.tgrid.dt, mask=mask)


def evaluate_functional_raw(prob: _Problem, follower, disturbance, leader_arr,
                            state: np.ndarray | None = None, index: int = 0) -> float:
    """Cost functional value for explicit controls, raw-array flavour.

    ``follower``: tuple of edge traces (A/C/D) or an interior field (B);
    ``disturbance``: interior field (A/B) or None; ``index`` selects the
    follower whose cost is evaluated in configuration D.  ``state``, when
    given, is trusted to be the state of these controls.
    """
    cfg, params = prob.cfg, prob.params
    grid, tgrid = cfg.grid, cfg.tgrid
    c = cfg.configuration
    dt = tgrid.dt

    if state is None:
        state = prob.state(follower, disturbance, leader_arr)

    value = _tracking_term(prob, state, which=index)
    if c == "A":
        for v in follower:
            value += 0.5 * params.ell ** 2 * qmid_trace(v, v, dt)
        value -= 0.5 * params.gamma ** 2 * qmid_field(disturbance, disturbance, grid, dt)
    elif c == "B":
        value += 0.5 * params.ell ** 2 * qmid_field(
            follower, follower, grid, dt, mask=prob.b1_mask)
        value -= 0.5 * params.gamma ** 2 * qmid_field(
            disturbance, disturbance, grid, dt, mask=prob.b2_mask)
    else:
        ell = prob.follower_edges[index][2]
        v = follower[index]
        terms = capped_weighted_sq(prob.log_g2, v)
        value += 0.5 * ell ** 2 * float(np.sum(dt * prob.wtrap * terms))
    return float(value)


def evaluate_functional(cfg: ScenarioConfig, params: RobustParams, follower,
                        disturbance=None, leader=None, state: SpaceTimeField | None = None,
                        index: int = 0) -> float:
    """Public functional evaluation on typed controls.

    ``follower``: dict side->BoundaryTrace (A), SpaceTimeField (B),
    BoundaryTrace (C) or tuple of two traces (D).  The state is always solved
    from the controls; a ``state`` given by the caller is checked against it
    and rejected with ``ValueError`` when inconsistent.
    """
    prob = build_problem(cfg, params)
    fol, dist = prob.raw(follower, disturbance)
    leader_arr = _leader_array(prob, leader)
    resolved = prob.state(fol, dist, leader_arr)
    if state is not None:
        scale = max(float(np.max(np.abs(resolved))), 1.0)
        if np.max(np.abs(resolved - state.interior)) > 1e-10 * scale:
            raise ValueError("supplied state is inconsistent with the given controls")
    return evaluate_functional_raw(prob, fol, dist, leader_arr, state=resolved, index=index)


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
    base_traces, psi_base = prob.raw(v, psi)
    dir_traces, psi_dir = prob.raw(*direction)

    y_base = prob.state(base_traces, psi_base, leader_arr)
    linearized = prob.state(dir_traces, psi_dir, None, y0=np.zeros(cfg.grid.n_interior))
    lin_norm = max(float(np.max(np.abs(linearized))), 1e-300)
    base_norm = float(np.max(np.abs(y_base)))

    discs, floors = [], []
    for lam in lambdas:
        pert_traces = tuple(b + lam * d for b, d in zip(base_traces, dir_traces))
        y_pert = prob.state(pert_traces, psi_base + lam * psi_dir, leader_arr)
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
    worst_perturbation: tuple = ()  # (perturbation index, player label) of the offender


@dataclass(frozen=True)
class _Player:
    """One player of a follower equilibrium and its random unilateral deviation."""

    label: str           # names the offender in ``VerifyReport.worst_perturbation``
    index: int           # whose cost it plays on: the follower index in D, else 0
    maximizes: bool      # the disturbance maximizes, every control minimizes
    perturb: Callable    # magnitude -> perturbed (follower, disturbance)


def _players(prob: _Problem, follower, disturbance, rng) -> list:
    """The players of the equilibrium at the raw controls (follower, disturbance).

    A/B: the control and the disturbance of a saddle point; C: the one
    follower; D: the two followers of a Nash pair.
    """
    cfg = prob.cfg
    c = cfg.configuration
    klev, n = cfg.tgrid.n_levels, cfg.grid.n_interior
    if c == "A":
        return [
            _Player("control", 0, False, lambda m: (
                tuple(v + m * rng.standard_normal(klev) for v in follower), disturbance)),
            _Player("disturbance", 0, True, lambda m: (
                follower, disturbance + m * rng.standard_normal((klev, n)))),
        ]
    if c == "B":
        def on(mask, m):
            """m times a Gaussian draw on the mask's nodes, zero elsewhere."""
            d = np.zeros((klev, n))
            d[:, mask] = m * rng.standard_normal((klev, int(mask.sum())))
            return d

        return [
            _Player("control", 0, False, lambda m: (follower + on(prob.b1_mask, m), disturbance)),
            _Player("disturbance", 0, True,
                    lambda m: (follower, disturbance + on(prob.b2_mask, m))),
        ]
    # rho_star is infinite at t = 0 and T: a deviation there has infinite
    # cost, saturates every perturbed value at the cap and hides any
    # violation, so the perturbations vanish on those levels
    live = np.isfinite(prob.log_g2)

    def deviate(i):
        def perturb(m):
            dv = np.where(live, m * rng.standard_normal(klev), 0.0)
            return tuple(v + dv if j == i else v for j, v in enumerate(follower)), None
        return perturb

    return [_Player(f"control {i + 1}", i, False, deviate(i)) for i in range(len(follower))]


def verify_saddle(cfg: ScenarioConfig, sol: SaddleSolution, leader, params: RobustParams,
                  n_perturbations: int = 100, seed: int = 0) -> VerifyReport:
    """Check the defining inequalities of the equilibrium by random perturbation.

    A/B: both saddle inequalities; C: plain minimality; D: both unilateral
    Nash conditions.  Each perturbation draws one magnitude and deviates
    each player (``_players``) alone; the deviation is scored against that
    player's cost at the equilibrium, which is computed from the controls in
    ``sol``, not read from ``sol.functional_value``.  Additionally estimates
    the first-order stationarity of the discrete functional by exact central
    differences (the functional is quadratic in the well-scaled variables).
    The perturbed states are solved in batched blocks (``_stream_states``);
    every value equals the one of a single solve bit for bit.
    """
    prob = build_problem(cfg, params)
    leader_arr = _leader_array(prob, leader)
    rng = np.random.default_rng(seed)
    follower, disturbance = prob.raw(sol.follower, sol.disturbance)
    state = prob.state(follower, disturbance, leader_arr)
    jbars = [evaluate_functional_raw(prob, follower, disturbance, leader_arr, state=state, index=i)
             for i in range(prob.n_adjoints)]
    players = _players(prob, follower, disturbance, rng)

    def deviations():
        lo, hi = PERTURBATION_MAGNITUDES
        for _ in range(n_perturbations):
            m = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            for player in players:
                yield player.perturb(m)

    violation = {False: 0.0, True: 0.0}  # worst per kind: minimizing, maximizing
    worst = ()
    scored = zip(_stream_states(prob, leader_arr, deviations()), itertools.cycle(players))
    for j, ((f, d, y), player) in enumerate(scored):
        value = evaluate_functional_raw(prob, f, d, leader_arr, state=y, index=player.index)
        jbar = jbars[player.index]
        gain = value - jbar if player.maximizes else jbar - value
        if gain > violation[player.maximizes]:
            violation[player.maximizes] = gain
            worst = (j // len(players), player.label)

    max_dderiv = _stationarity_estimate(prob, sol, leader_arr, rng)

    concavity = ()
    if cfg.configuration == "A":
        concavity = _concavity_estimates(prob, rng, 3)

    passed = (violation[False] <= SLACK and violation[True] <= SLACK
              and max_dderiv <= STATIONARITY_TOL * (1.0 + abs(jbars[0])))
    if passed:
        worst = ()
    return VerifyReport(n_perturbations, violation[False], violation[True], max_dderiv,
                        jbars[0], concavity, passed, worst)


def _stream_states(prob: _Problem, leader_arr, controls, y0=None):
    """Yield (follower, disturbance, state) for each explicit control pair of ``controls``.

    ``controls`` is iterated a block at a time and each block is solved by
    one batched march through ``_Problem.state``.  Each state is handed
    out as a contiguous copy of its column, so the reductions that follow sum
    in the same order as after a single solve.  A block is released before
    the next one is drawn, which bounds memory and keeps any random draws
    made inside ``controls`` in their original order.
    """
    cfg = prob.cfg
    width = _block_width(cfg)
    lead = None if leader_arr is None else leader_arr[..., None]

    def stacked(columns):
        return np.stack(columns, axis=-1)

    it = iter(controls)
    while block := list(itertools.islice(it, width)):
        fols, dists = zip(*block)
        states = prob.state(
            stacked(fols) if cfg.configuration == "B" else tuple(map(stacked, zip(*fols))),
            None if dists[0] is None else stacked(dists),
            lead, y0=y0)
        for j, (f, d) in enumerate(block):
            yield f, d, np.ascontiguousarray(states[..., j])
        del block, fols, dists, states  # release this block before drawing the next


def _stationarity_estimate(prob: _Problem, sol: SaddleSolution, leader_arr, rng) -> float:
    """Max |directional derivative| over STATIONARITY_DIRECTIONS random directions.

    Central differences are exact for the quadratic functionals.  For C/D the
    derivative is taken in the rho_star-weighted control variable, whose
    feedback formula is finite through the weight's over/underflow range.
    """
    cfg = prob.cfg
    c = cfg.configuration
    klev, n = cfg.tgrid.n_levels, cfg.grid.n_interior
    step = 1e-2

    vbar, psibar = prob.raw(sol.follower, sol.disturbance)
    # every direction yields the +step control, then the -step one
    if c == "A":
        def controls():
            for _ in range(STATIONARITY_DIRECTIONS):
                dv = tuple(rng.standard_normal(klev) for _ in vbar)
                dpsi = rng.standard_normal((klev, n))
                yield tuple(b + step * d for b, d in zip(vbar, dv)), psibar + step * dpsi
                yield tuple(b - step * d for b, d in zip(vbar, dv)), psibar - step * dpsi
    elif c == "B":
        def controls():
            for _ in range(STATIONARITY_DIRECTIONS):
                dv = np.where(prob.b1_mask[None, :], rng.standard_normal((klev, n)), 0.0)
                dpsi = np.where(prob.b2_mask[None, :], rng.standard_normal((klev, n)), 0.0)
                yield vbar + step * dv, psibar + step * dpsi
                yield vbar - step * dv, psibar - step * dpsi

    if c in ("A", "B"):
        values = [evaluate_functional_raw(prob, f, d, leader_arr, state=y)
                  for f, d, y in _stream_states(prob, leader_arr, controls())]
    else:
        ubars, _ = prob.raw(sol.follower_weighted)
        cases = []  # (follower index, perturbed weighted control)
        for i, ubar in enumerate(ubars):
            for _ in range(max(1, STATIONARITY_DIRECTIONS // len(ubars))):
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
    ell = prob.follower_edges[index][2]
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
        qmid_field(yprime, yprime, cfg.grid, cfg.tgrid.dt, mask=mask)
        - params.gamma ** 2 * qmid_field(dpsi, dpsi, cfg.grid, cfg.tgrid.dt)
        for _, dpsi, yprime in _stream_states(prob, None, controls, y0=np.zeros(n)))


def measure_contraction(cfg: ScenarioConfig, leader, params: RobustParams,
                        sweeps: int = 10) -> tuple:
    """Residual ratios of the Picard iteration over a fixed number of sweeps."""
    sol = solve_optimality(cfg, leader, params, sweeps=sweeps)
    return sol.contraction_ratios

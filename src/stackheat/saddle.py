"""Follower equilibria: Picard iteration on the coupled optimality systems.

For a fixed leader control the follower problem (robust saddle point in A/B,
weighted minimization in C, two-player Nash in D) is characterized by a
forward state coupled to one or two backward adjoints.  The iteration lags
the adjoint: solve the state with the current follower feedback, re-solve the
adjoint(s) from the tracking residual, repeat; the map contracts at a rate
proportional to 1/mu with mu = min(ell^2, gamma^2).

Each configuration's coupling is written once, as methods of ``_Problem``:
``feedback`` reads the follower (and disturbance) off the adjoint(s) through
``edge_controls``, ``forcing`` turns explicit controls into the source and
Dirichlet rows (``edge_rows``) of a march (``state`` runs that
``modal_march``) and ``field`` puts the marched rows back into a field.  The
Picard sweeps run the same coupling on DST modal coefficients:
``_Problem.modal`` holds its products with S, built once per problem on
first use from the same masks, edges and weights, so a caller that never
sweeps builds none of them (one projector P = S diag(coef) S per observed or
driven region, S's edge rows for the edge reads and writes, A's diagonal
1/gamma^2), and a sweep reads and writes the edges through ``edge_controls``
and ``edge_rows``.  So every solver, HUM's included, applies the same
discrete control operator and the same transpose of it; the dense oracle
(``oracle.py``) assembles the same systems independently, in space.  The
typed functions are the public edge, each building one ``_Problem``;
internal code runs on the one it is given.

Discretization follows discretize-then-optimize: the cost functionals are
evaluated with the scheme-consistent midpoint quadrature (trapezoid-in-time
for the rho_star-weighted boundary terms), and the feedback law is the exact
stationarity condition of those discrete functionals under the
Crank-Nicolson scheme.  In particular the boundary feedback uses the
first-order normal derivative, the exact transpose of the scheme's boundary
injection, and configurations C/D acquire a three-point time smoothing of
the adjoint trace.  Equilibria are therefore stationary at round-off
level rather than at discretization level.

A batch of independent columns leads every array: states and adjoints are
(*B, n_levels, n_interior) and traces (*B, n_levels), the layout in which
``heat.modal_march`` takes and returns them.  The coupling and the functional
(``evaluate_functional_raw`` and the quadratures it calls) take a lone column
or a batch.  Every coupled solve is a batch of the one Picard loop,
``_picard_columns``: ``_equilibria`` solves one column per leader (HUM
certifies an epsilon ladder so) and ``_solve`` types its one-column
case.  A sweep costs two modal marches with no transform, the forward-time
``_forward_hat`` and the backward-time ``_backward_hat``, which also march
HUM's adjoint pairs and a Gram image's pair and equilibrium (see the
comment above them); the first sweep forms no product of the loop's zero
fields.  Its stopping norm is taken on the coefficients (Parseval), each
column's in one scratch array the loop allocates once, and the fields are
transformed back once, at exit (``_equilibria_hat``'s ``finish``).
Everything a sweep reads is bound once per problem in ``_Problem.modal``:
the march plan, whose ``work`` each march takes (a sweep looks up no plan),
S, dx and the S row of each follower edge; the edges' control divisors are
``_Problem.edge_gains``.

``verify_saddle`` checks each player's exact first- and second-order
conditions: the directional derivative and the curvature along random
directions, read off the costs at x and x +- step d, and in A/B a
certificate that the cost is concave in the disturbance (``_concavity``).
It marches the equilibrium's state once, in space, and every deviated
state as that state plus the response of the homogeneous problem to the
deviation alone (the state is affine in the controls): a ``_modal_levels``
march of a block of directions, read back on the observed nodes only
(``_Readout``).  Each value is a direct evaluation of the functional, a
tracking term on those nodes plus the control costs, with no adjoint.  A
call forces, reads back and scores every block in a few flat buffers that
its ``_Readout`` owns and releases with it, so no block allocates an array
of its size, and each value keeps the elementwise operations and
summation order of its lone evaluation: the same bits whatever the block
width.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConvergenceError, NonContractionError
from .grids import LEFT, RIGHT, BoundaryTrace, SpaceTimeField
from .heat import (_assemble_field, _modal_levels, _plan, favg, modal_march,
                   normal_derivative_o1, trapezoid_time_weights)
from .products import _column_sums, _view, qmid_field, qmid_field_inplace, qmid_trace
from .scenario import RobustParams, ScenarioConfig, require_valid
from .weights import _capped_exp, _exp_neg, rho_star_log, rho_star_inv_sq

# verify_saddle scores its directions, and the observability probe solves its
# adjoint pairs, in blocks of columns, each block one batched march (verify's,
# one per player); a Gram image marches its adjoint pair and its equilibrium
# as two columns when a block holds two (``hum._gram``).  The width keeps one
# (width, n_levels, n_interior) float array within this many bytes (25
# columns at n_interior = n_steps = 50).  A verify call owns a few buffers of
# a block (``_Readout``), allocated once per call and released with it; a
# scratch kept for the process raised peak RSS and moved the page faults to
# the CSV writer.
_BLOCK_BYTES = 512 * 1024


def _block_width(cfg: ScenarioConfig) -> int:
    """Columns per block: the most that keep one batched field within ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * cfg.tgrid.n_levels * cfg.grid.n_interior))


# Verification rules (``verify_saddle``, ``VerifyReport``).  Along each random
# direction d of a player, deviated alone: the directional derivative
# (J+ - J-) / (2 step) is at most STATIONARITY_TOL * (1 + |J|), and the
# curvature, the Rayleigh quotient d'Hd / |d|^2 of the player's Hessian in
# its own cost norm, has the player's sign.  A minimizer's is at least
# -CURVATURE_TOL * ell^2 (exactly, it is at least ell^2); the disturbance's
# plus gamma^2 is |G z|^2 / |z|^2, at most the certified bound of |G|^2
# (``_concavity``) plus CURVATURE_TOL * gamma^2, and that bound is at most
# gamma^2.  A Lanczos bound takes at most LANCZOS_STEPS steps and is wrong
# with probability at most LANCZOS_FAILURE.
STATIONARITY_TOL = 1e-8
CURVATURE_TOL = 1e-8
STATIONARITY_DIRECTIONS = 20
LANCZOS_STEPS = 200
LANCZOS_FAILURE = 1e-10
_STEP = 1e-2   # the step of the stationarity check's central differences


def smooth_trace(z: np.ndarray) -> np.ndarray:
    """Midpoint-average followed by its transpose: the (1/4, 1/2, 1/4) stencil.

    ``z`` is (*B, n_levels); each trace is smoothed along its last axis.
    """
    m = 0.5 * (z[..., :-1] + z[..., 1:])
    out = np.zeros_like(z)
    out[..., 0] = 0.5 * m[..., 0]
    out[..., -1] = 0.5 * m[..., -1]
    out[..., 1:-1] = 0.5 * (m[..., :-1] + m[..., 1:])
    return out


def capped_weighted_sq(log_w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """w * v^2 evaluated from log w, saturated at 1e300, exact 0 at v = 0.

    ``v`` is (..., n_levels): leading axes are a block of traces sharing ``log_w``.
    """
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    nz = v != 0.0
    out[nz] = _capped_exp(np.broadcast_to(log_w, v.shape)[nz] + 2.0 * np.log(np.abs(v[nz])))
    return out


# The coupling of a Picard sweep on DST modal coefficients (``_Problem.modal``),
# with S the march plan's orthonormal DST-I matrix and every projector
# P = S diag(coef) S built once per problem (``_modal_operators``):
# - ``plan``: the problem's march plan (``heat._Plan``), whose ``work`` each
#   sweep march takes anew: a wider batch replaces the plan's buffers, so no
#   ``_Work`` is kept;
# - ``s``: S itself, and ``dx`` the grid's spacing;
# - ``rows``: the row of S each follower edge reads (its edge value);
# - ``obs``: one P per observation region (its mask), the tracking residual's
#   product;
# - ``drive``: B's distributed feedback, coef -1/ell^2 on B1 plus 1/gamma^2 on
#   B2; None elsewhere (A's is the diagonal 1/gamma^2, C/D have none);
# - ``omega``: A's leader region, the leader read off a modal adjoint;
# - ``y0``: S y0 (None for zero) and ``targets``: S (mask * target) per level
#   and region (None for zero).
_Modal = collections.namedtuple("_Modal", "plan s dx rows obs drive omega y0 targets")


@dataclass
class _Problem:
    """Precomputed masks, feedback coefficients and data arrays for one scenario.

    Its methods are the scenario's coupling, shared by every solver; ``modal``
    holds the same coupling as products with S for the Picard sweeps.
    """

    cfg: ScenarioConfig
    params: RobustParams
    y0: np.ndarray          # interior initial datum (zero in ``homogeneous``)
    obs_masks: tuple
    targets: tuple          # interior arrays matching obs_masks
    follower_edges: tuple   # ((side, rho, ell), ...) one entry per follower edge
    edge_gains: tuple       # ((rho, ell^2 (A) or ell^2 * wtrap (C/D)), ...) per follower edge
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
        the well-scaled rho_star * v.  A and B do not use it.  Every
        column of a batch of adjoints gets the controls of a single-column
        call bit for bit.
        """
        cfg, params = self.cfg, self.params
        c = cfg.configuration
        if c == "B":
            # each control is its quotient on its region, +0.0 elsewhere
            p = adjoints[0]
            follower, disturbance = np.zeros(p.shape), np.zeros(p.shape)
            np.divide(-p, params.ell ** 2, out=follower, where=self.b1_mask)
            np.divide(p, params.gamma ** 2, out=disturbance, where=self.b2_mask)
            return follower, disturbance
        follower = self.edge_controls(tuple(
            normal_derivative_o1(r, cfg.grid, side)
            for (side, _, _), r in zip(self.follower_edges, self.readers(adjoints))), time_weight)
        return follower, (adjoints[0] / params.gamma ** 2 if c == "A" else None)

    def readers(self, adjoints: tuple) -> tuple:
        """The adjoint each follower edge reads: q for every edge in A, its own r_i in C/D."""
        if self.cfg.configuration == "A":
            return adjoints * len(self.follower_edges)
        return adjoints

    def edge_controls(self, normals: tuple, time_weight) -> tuple:
        """Follower controls (A/C/D) from the normal derivative of each one's adjoint at its edge.

        A: rho * dn / ell^2; C/D: rho * w * smooth(dn) / (ell^2 * trapezoid
        weight), ``time_weight`` being w (see ``feedback``).
        """
        if self.cfg.configuration == "A":
            return tuple(rho * dn / div for (rho, div), dn in zip(self.edge_gains, normals))
        return tuple(rho * time_weight * smooth_trace(dn) / div
                     for (rho, div), dn in zip(self.edge_gains, normals))

    def raw(self, follower, disturbance=None) -> tuple:
        """Typed controls as the raw (follower, disturbance) that ``feedback`` returns.

        The reverse of ``_solve``: ``follower`` is a dict side ->
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
        """(source, left, right) of the forward march driven by explicit controls.

        ``follower`` and ``disturbance`` are laid out as ``feedback`` returns
        them and ``leader`` is the raw leader array or None.  They may carry
        leading batch axes; a leader without them serves every column.  A is
        forced by psi + leader in the interior and rho * v on each follower
        edge, B by v on B1 and psi on B2 in the interior and the leader on
        its edge, C/D by rho_i * v_i and the leader on their edges.
        """
        c = self.cfg.configuration
        source = None
        if c == "A":
            source = disturbance if leader is None else disturbance + leader
        elif c == "B":
            # 0.0 + v on B1, then + psi on B2, one masked addition each
            source = np.zeros(np.broadcast_shapes(follower.shape, disturbance.shape))
            np.add(source, follower, out=source, where=self.b1_mask)
            np.add(source, disturbance, out=source, where=self.b2_mask)
        edges = self.edge_rows(follower, leader)
        return source, edges.get(LEFT), edges.get(RIGHT)

    def edge_rows(self, follower, leader) -> dict:
        """Dirichlet values per side: rho * v per follower edge (A/C/D) plus the leader's edge.

        B has no follower edges.  A row starts from +0.0, so a vanishing row
        is never written as -0.
        """
        edges = {}
        for (side, rho, _), v in zip(self.follower_edges, follower):
            edges[side] = edges.get(side, 0.0) + rho * v
        if self.leader_side is not None and leader is not None:
            edges[self.leader_side] = edges.get(self.leader_side, 0.0) + leader
        return edges

    def state(self, follower, disturbance, leader) -> np.ndarray:
        """State for explicit controls: one ``modal_march`` of ``forcing`` from ``y0``."""
        cfg = self.cfg
        return modal_march(cfg.grid, cfg.tgrid, self.y0,
                           *self.forcing(follower, disturbance, leader))

    @functools.cached_property
    def modal(self) -> _Modal:
        """The coupling as products with S (``_Modal``), built on first use."""
        return _modal_operators(self)

    @functools.cached_property
    def homogeneous(self) -> _Problem:
        """The same coupling with zero initial datum and zero target(s), built once.

        It shares this problem's modal operators, so a ``hum.GramBasis``
        builds both once for all its Gram images.
        """
        twin = replace(self, y0=np.zeros_like(self.y0),
                       targets=tuple(map(np.zeros_like, self.targets)))
        twin.modal = self.modal._replace(y0=None, targets=(None,) * len(self.targets))
        return twin

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

    wtrap = trapezoid_time_weights(tgrid.n_levels)
    # the divisor of each edge's control in ``edge_controls``, formed once
    edge_gains = tuple((rho, ell ** 2 if c == "A" else ell ** 2 * wtrap)
                       for _, rho, ell in follower_edges)
    omega_mask = cfg.omega.interior_mask(grid) if c == "A" else None
    b1_mask = cfg.b1.interior_mask(grid) if c == "B" else None
    b2_mask = (np.ones(grid.n_interior, dtype=bool) if cfg.allow_global_disturbance
               else cfg.b2.interior_mask(grid)) if c == "B" else None
    return _Problem(
        cfg=cfg, params=params, y0=cfg.y0, obs_masks=obs_masks, targets=targets,
        follower_edges=tuple(follower_edges), edge_gains=edge_gains,
        leader_side=None if c == "A" else cfg.leader_side(),
        g2inv=g2inv, ginv=ginv, log_g2=log_g2,
        omega_mask=omega_mask, b1_mask=b1_mask, b2_mask=b2_mask,
        wtrap=wtrap,
    )


def _modal_operators(prob: _Problem) -> _Modal:
    """``prob``'s coupling as products with S (``_Modal``): what ``_Problem.modal`` builds."""
    cfg, params = prob.cfg, prob.params
    plan = _plan(cfg.grid, cfg.tgrid)
    s = plan.s

    def projector(coef):
        return (s * coef) @ s

    def modal(values):
        return values @ s if np.any(values) else None

    drive = None
    if cfg.configuration == "B":
        # the coefficients of feedback's two masked quotients, as forcing adds them
        coef = np.zeros(cfg.grid.n_interior)
        coef[prob.b1_mask] -= 1.0 / params.ell ** 2
        coef[prob.b2_mask] += 1.0 / params.gamma ** 2
        drive = projector(coef)
    rows = tuple(s[0 if side == LEFT else -1] for side, _, _ in prob.follower_edges)
    return _Modal(plan, s, cfg.grid.dx, rows, tuple(projector(m) for m in prob.obs_masks), drive,
                  None if prob.omega_mask is None else projector(prob.omega_mask),
                  modal(prob.y0),
                  tuple(modal(np.where(m, t, 0.0)) for m, t in zip(prob.obs_masks, prob.targets)))


def _leader_array(prob: _Problem, leader) -> np.ndarray | None:
    """Leader as raw data: interior array (A) or boundary-trace values (B/C/D)."""
    cfg = prob.cfg
    if leader is None:
        return None
    if cfg.configuration == "A":
        if leader.grid != cfg.grid or leader.tgrid != cfg.tgrid:
            raise ValueError("leader field lives on a different grid")
        return np.where(prob.omega_mask, leader.interior, 0.0)
    if leader.tgrid != cfg.tgrid:
        raise ValueError("leader trace lives on a different time grid")
    if leader.side != prob.leader_side:
        raise ValueError(f"leader acts on the {prob.leader_side} endpoint, trace is {leader.side}")
    return leader.values


# --- the Picard sweeps on modal coefficients -----------------------------------
#
# A sweep's fields are their DST modal coefficients: a march is one
# ``heat._modal_levels`` (no product with S), and the coupling between the
# marches is ``_Problem.modal``: one product per observed or driven region,
# one row of S per edge read, a rank-one update per edge write.  It is written
# once, as two marches, one per time direction: ``_forward_hat`` (an
# equilibrium's state y, an adjoint pair's theta) and ``_backward_hat`` (an
# equilibrium's adjoint(s) p, a pair's phi).  The pair is the equilibrium's
# coupling with the roles transposed, so each column of a batch has a role,
# the batch's pair columns first; in D the role also sets the fan: y gathers
# both followers and p_i holds region i's residual, while phi gathers both
# regions and theta_i holds follower i's edge.  A march lays its batch out in
# slots (``_slots``), marching only live fields: slot 0 holds each column's
# first field, the further slots the further fields of the role that has two
# in this direction.  Every product runs on each field's (n_levels, n) block,
# the shape of a lone solve, and the rest is elementwise, so every column
# keeps the bits of its lone single-role march.  Each march takes its
# ``_Work`` from the plan ``_Problem.modal`` holds, returns the transient
# levels of the plan's buffer, and ``_picard_columns`` copies the fields it
# keeps into its own arrays.

def _normal_hat(prob: _Problem, levels: np.ndarray, side: str) -> np.ndarray:
    """``normal_derivative_o1`` at ``side`` of the field whose modal levels are ``levels``.

    The field's edge value is its modal levels times one row of S.
    """
    m = prob.modal
    return -(levels @ m.s[0 if side == LEFT else -1]) / m.dx


def _normals_hat(prob: _Problem, fields: tuple, pairs: int) -> tuple:
    """``_normal_hat`` at each follower edge, by its bound row, of what each column reads there.

    ``fields`` are a sweep's backward-time fields in slots (``_slots``).  A
    column reads its one field at every edge (A, C); in D a pair column
    reads its phi at both edges and an equilibrium its p_i at edge i.
    """
    m = prob.modal
    normals = tuple(-(fields[0] @ row) / m.dx for row in m.rows)
    if len(fields) > 1 and len(fields[1]):   # D's equilibria read their p_2 at the second edge
        normals[1][pairs:] = -(fields[1] @ m.rows[1]) / m.dx
    return normals


def _slots(levels: np.ndarray, width: int, k: int) -> tuple:
    """A sweep march's ``width`` columns as k slots: each column's first field, then D's further ones.

    D's further fields are the rows after the first ``width``.
    """
    return (levels,) if k == 1 else (levels[:width], levels[width:])


def _forward_hat(prob: _Problem, fields, pairs: int, equilibria: int, drive) -> np.ndarray:
    """The forward-time march of a sweep: theta of each pair column, the state of each equilibrium.

    The batch holds ``pairs`` adjoint-pair columns, then ``equilibria``
    equilibrium columns.  ``fields`` are their backward-time fields in
    slots (``_slots``): each column's phi or p_1, then the equilibria's
    p_2 (D); None on a loop's first sweep, whose fields are zero, so no
    product of them is formed and only the leader drives the march.
    ``drive`` is the equilibria's leader: its modal levels in A (an
    interior source), its edge values in B/C/D; None for the zero leader.
    A is driven by the field / gamma^2, B by its drive projector, and A/C/D
    by rho * v on each follower edge (``edge_controls`` of
    ``_normals_hat``).  In D follower i of a pair column drives that
    column's own theta_i, and both followers of an equilibrium drive its y.
    Every column starts from the datum S y0, so pair columns need a
    homogeneous problem.  Returns the transient levels of the march
    (``heat._modal_levels``) in slots: theta_1 or y, then the pairs'
    theta_2 (D).
    """
    cfg, m = prob.cfg, prob.modal
    c, k = cfg.configuration, prob.n_adjoints
    width = pairs + equilibria
    wk = m.plan.work((width + (k - 1) * pairs,))
    source, follower = None, ()
    if fields is not None:
        if c == "A":
            source = np.divide(fields[0], prob.params.gamma ** 2, out=wk.z_columns)
        elif c == "B":
            source = np.matmul(fields[0], m.drive, out=wk.z_columns)
        follower = prob.edge_controls(_normals_hat(prob, fields, pairs), prob.g2inv)
        if k > 1 and pairs:
            # D: follower i writes a pair column's theta_i and an equilibrium's y
            zero = np.zeros((pairs,) + follower[0].shape[1:])
            v1, v2 = follower
            follower = (np.concatenate((v1, zero)), np.concatenate((zero, v2[pairs:], v2[:pairs])))
    leader = None
    if drive is not None and prob.leader_side is None:
        if source is None:
            source = drive
        else:
            np.add(source[pairs:], drive, out=source[pairs:])
    elif drive is not None:
        leader = drive
        if pairs:   # the pair columns have no leader
            leader = np.zeros(wk.edge.shape)
            leader[pairs:width] = drive
    return _modal_levels(wk, m.y0, source, prob.edge_rows(follower, leader))


def _backward_hat(prob: _Problem, fields, pairs: int, equilibria: int, terminals) -> np.ndarray:
    """The backward-time march of a sweep: each pair column's phi, each equilibrium's adjoint(s).

    The batch holds ``pairs`` adjoint-pair columns, then ``equilibria``
    equilibrium columns.  ``fields`` are their forward-time fields in
    slots (``_slots``): each column's theta_1 or y, then the pairs'
    theta_2 (D), whose rows after the first ``pairs`` are not read; None on
    a loop's first sweep, whose fields are zero, so no product of them is
    formed (an equilibrium's targets must then be zero).  Observation
    region i's projector P_i (``_Problem.modal``) reads theta_i in a pair
    column and y in an equilibrium: phi gathers sum_i P_i theta_i, and an
    equilibrium spreads y into each region's tracking residual
    P_i y - S (mask_i * target_i), its adjoint p_i.  ``terminals`` holds
    the modal terminal level of every field (None: zero); an equilibrium's
    are zero.  Returns the transient levels of the march in slots: phi or
    p_1, then the equilibria's p_2 (D).
    """
    m = prob.modal
    k = len(m.obs)
    width = pairs + equilibria
    wk = m.plan.work((width + (k - 1) * equilibria,))
    source = None
    if fields is not None:
        source = wk.z_columns
        slots = _slots(source, width, k)
        residuals = (slots[0][pairs:],) + slots[1:]   # each equilibrium's p_i
        np.matmul(fields[0], m.obs[0], out=slots[0])
        if k > 1 and pairs:
            # phi's second term, formed in the march's modal buffer, free until it fills it
            phi = source[:pairs]
            np.add(phi, np.matmul(fields[1][:pairs], m.obs[1], out=wk.w_columns[:pairs]), out=phi)
        if k > 1 and equilibria:
            np.matmul(fields[0][pairs:], m.obs[1], out=residuals[1])
        for p, target in zip(residuals, m.targets):
            if target is not None:
                p -= target
    return _modal_levels(wk, terminals, source, backward=True)


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
    exit_status: str                 # converged | round-off (_picard_columns)
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


# A correction below this fraction of the first is dominated by round-off, so
# its ratio to the previous one measures noise, not the contraction rate.
_RATIO_FLOOR = 1e-8


class _Column:
    """Stopping rule of one Picard column: its first correction, ratios and streak.

    ``ratios`` keeps the ratio of each correction of at least ``_RATIO_FLOOR``
    of the first to the one before it, the rate the solve reports.  The
    stopping rules see every ratio: ``theta``, the largest of them, floored
    or not, is the column's observed contraction rate.  A plain class:
    building a dataclass costs about 0.2 ms at every import.
    """

    def __init__(self):
        self.first: Optional[float] = None
        self.last = 0.0
        self.ratios = []
        self.theta = 0.0
        self.bad_streak = 0

    def stop(self, delta: float, it: int, tol: float) -> Optional[str]:
        """Record sweep ``it``'s correction; the exit status once the column stops.

        "exact" when the first correction vanishes (the sweep's own state is
        final), "round-off" when the corrections stopped contracting below
        1e-6 of the first, "converged" when the correction reached ``tol``
        of the first or, from sweep 3 on, when its contraction error bound
        theta / (1 - theta) * delta did (Hairer & Wanner, Solving ODEs II,
        IV.8); None while it goes on.  From sweep 3 on theta holds two ratios
        at least, so a single small one stops no column, and for theta >= 1/2
        the bound never stops a column before the plain rule does.  Raises
        ``NonContractionError`` after five growing corrections.
        """
        prev, self.last = self.last, delta
        if self.first is None:
            self.first = delta
            if delta == 0.0:
                return "exact"
        elif prev > 0:
            ratio = delta / prev
            if delta >= _RATIO_FLOOR * self.first:
                self.ratios.append(ratio)
            self.theta = max(self.theta, ratio)
            self.bad_streak = self.bad_streak + 1 if ratio >= 1.0 else 0
            if self.bad_streak >= 2 and delta <= 1e-6 * self.first:
                return "round-off"
            if self.bad_streak >= 5:
                raise NonContractionError(ratio, it)
        if delta <= tol * self.first:
            return "converged"
        theta = self.theta
        if it >= 3 and theta < 1.0 and theta / (1.0 - theta) * delta <= tol * self.first:
            return "converged"
        return None


def _picard_columns(prob: _Problem, forward, backward, n_adjoints: int, width: int,
                    finish, final_forward=None) -> list:
    """Lagged fixed-point loop on ``width`` columns, each stopping on its own.

    The state and adjoint arrays carry one leading batch axis.  Each sweep
    calls ``forward(adjoints, cols)`` and ``backward(state)`` once for all
    active columns, ``cols`` naming the columns the batch axis holds.  The
    first sweep passes None for the adjoints, which are zero there, so that
    ``forward`` forms no product of them (``_forward_hat``,
    ``_backward_hat``).  The state need only last until ``backward`` has
    read it, and the new adjoints until the loop has copied them into its
    own arrays, which it keeps from sweep to sweep.  A column's correction
    is the difference of its blocks ``a[pos]``, squared and summed in one
    (n_levels, n) scratch array in the order of a lone solve (on modal
    coefficients it is the field's norm by Parseval), and its stopping rule
    is its own ``_Column``.  A column that stops leaves the active set after
    the final forward solve of the columns that stop with it, which
    ``finish(state, adjoints, cols)`` turns into the (state, adjoints) its
    results keep (``final_forward``, when given, makes that final solve in
    place of ``forward``), so each column's result equals a one-column
    loop's bit for bit when the columns are independent.  The callbacks may
    couple them: ``hum._gram_columns`` marches an adjoint pair and an
    equilibrium as two columns of one loop, the equilibrium driven by the
    leader read off the pair's current phi, so the driven column's
    correction, which its stopping rule sees, carries that drive's movement.
    A column whose first correction vanishes ("exact") stops on the first
    sweep's state, of the same zero adjoints: the loop keeps a copy of it
    apart from the buffer ``backward`` may overwrite, instead of solving it
    again.

    Returns one (state, adjoints, iterations, residual, ratios, status) per
    column.  The status is "converged" when the relative correction reached
    the tolerance, when its contraction error bound did (``_Column.stop``)
    or when the first correction vanished, and "round-off" when the
    corrections stopped contracting below 1e-6 of the first one (accepted as
    the floor of the arithmetic).  The residual is the last correction over
    the first, so a column stopped by the bound reads above the tolerance.
    The ratios are the contraction rate of the solve: every ratio of a
    correction of at least ``_RATIO_FLOOR`` of the first.
    """
    cfg, params = prob.cfg, prob.params
    grid, tgrid = cfg.grid, cfg.tgrid
    if not width:
        return []
    adjoints = tuple(np.zeros((width, tgrid.n_levels, grid.n_interior))
                     for _ in range(n_adjoints))
    # a column's correction is formed here: sqrt of the sum over its adjoints of
    # the squared nodal L2(Q) norm sqrt(dt * dx * sum(d * d)) of its difference d
    diff = np.empty((tgrid.n_levels, grid.n_interior))
    dtdx = tgrid.dt * grid.dx
    cols = list(range(width))
    runs = [_Column() for _ in cols]
    results = [None] * width

    def take(arrays, pos):
        return arrays if len(pos) == len(cols) else tuple(a[pos] for a in arrays)

    tol = params.fixed_point_tol
    max_iter = params.max_iterations
    for it in range(1, max_iter + 1):
        state = forward(None if it == 1 else adjoints, cols)
        if it == 1:
            first_state = state.copy()
        new_adjoints = backward(state)
        stopped = {}   # position -> status, for the columns that stop at this sweep
        for pos, c in enumerate(cols):
            total = 0
            for a, b in zip(new_adjoints, adjoints):
                d = np.subtract(a[pos], b[pos], out=diff)
                np.multiply(d, d, out=d)
                total += float(np.sqrt(dtdx * d.sum())) ** 2
            delta = float(np.sqrt(total))
            status = runs[c].stop(delta, it, tol)
            if status is not None:
                stopped[pos] = status
        for a, b in zip(adjoints, new_adjoints):
            a[...] = b
        if stopped:
            pos = list(stopped)
            final_cols = [cols[p] for p in pos]
            final_adjoints = take(adjoints, pos)
            if it == 1 and all(status == "exact" for status in stopped.values()):
                state = first_state[pos]
            else:
                state = (final_forward or forward)(final_adjoints, final_cols)
            final, final_adjoints = finish(state, final_adjoints, final_cols)
            for j, p in enumerate(pos):
                run = runs[cols[p]]
                # an exact column's first correction vanished: residual 0, no ratio
                exact = stopped[p] == "exact"
                results[cols[p]] = (final[j], tuple(a[j] for a in final_adjoints), it,
                                    0.0 if exact else run.last / run.first, tuple(run.ratios),
                                    "converged" if exact else stopped[p])
        keep = [pos for pos, c in enumerate(cols) if results[c] is None]
        if not keep:
            return results
        if len(keep) < len(cols):
            adjoints = take(adjoints, keep)
            cols = [cols[p] for p in keep]
    last = max(runs[c].last / max(runs[c].first, 1e-300) for c in cols)
    which = "last" if len(runs) == 1 else f"in {len(cols)} of {len(runs)} columns; largest last"
    raise ConvergenceError(
        f"fixed-point iteration did not reach tol={tol} within {max_iter} sweeps "
        f"({which} relative correction {last:.3g})")


def solve_optimality(cfg: ScenarioConfig, leader, params: RobustParams) -> SaddleSolution:
    """Solve the follower optimality system for a fixed leader control.

    ``leader`` is a SpaceTimeField supported on omega (configuration A), a
    BoundaryTrace on the leader endpoint (B/C/D), or None for the zero leader.
    """
    prob = build_problem(cfg, params)
    return _solve(prob, _leader_array(prob, leader))


def _equilibria(prob: _Problem, leaders) -> list:
    """Raw (state, adjoints, iterations, residual, ratios, status) under each leader.

    ``leaders`` stacks one raw leader per column on a leading axis, or is None
    for one column under the zero leader.  The columns are one
    ``_picard_columns`` loop on modal coefficients (``_equilibria_hat``), so
    each equals its lone solve bit for bit; the fields come back in space
    once, at exit, the state's level 0 being ``y0`` itself.
    """
    s = prob.modal.s

    def physical(state, adjoints, cols):
        y = np.matmul(state, s)
        y[..., 0, :] = prob.y0
        return y, tuple(np.matmul(a, s) for a in adjoints)

    drive = leaders
    if leaders is not None and prob.leader_side is None:
        drive = np.matmul(leaders, s)   # A's leader is an interior source
    return _equilibria_hat(prob, drive, 1 if leaders is None else len(leaders), physical)


def _equilibria_hat(prob: _Problem, drive, width: int, finish) -> list:
    """``_picard_columns`` of the optimality system on modal coefficients: a batch of equilibria.

    ``drive`` stacks one leader per column as ``_forward_hat`` takes it
    (None: the zero leader), and ``finish`` maps the final modal state and
    adjoints to what the results keep (``_picard_columns``).  A sweep is
    ``_forward_hat`` then ``_backward_hat``, every column an equilibrium.
    """
    k = prob.n_adjoints

    def state(adjoints, cols):
        return _forward_hat(prob, adjoints, 0, len(cols),
                            drive if drive is None or len(cols) == width else drive[cols])

    def adjoints(y):
        return _slots(_backward_hat(prob, (y,), 0, len(y), None), len(y), k)

    return _picard_columns(prob, state, adjoints, k, width=width, finish=finish)


def _solve(prob: _Problem, leader_arr) -> SaddleSolution:
    """The equilibrium under the one raw leader ``leader_arr`` (None: the zero leader), typed."""
    raw = _equilibria(prob, None if leader_arr is None else leader_arr[None])[0]
    return _solution(prob, leader_arr, raw)


def _solution(prob: _Problem, leader_arr, raw: tuple) -> SaddleSolution:
    """The raw equilibrium ``raw`` under ``leader_arr`` as a typed solution.

    The controls are read off the adjoints once.
    """
    state, adjoints, iters, res, ratios, status = raw
    tgrid = prob.cfg.tgrid
    c = prob.cfg.configuration
    follower, disturbance = prob.feedback(adjoints, prob.g2inv)
    edges = prob.edge_rows(follower, leader_arr)
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
    return SaddleSolution(c, follower, disturbance,
                          prob.field(state, edges.get(LEFT), edges.get(RIGHT)),
                          tuple(prob.field(a) for a in adjoints),
                          iters, res, status, ratios, jval, follower_weighted)


# --- functional evaluation ---------------------------------------------------

def _tracking_term(prob: _Problem, state: np.ndarray, which: int = 0):
    cfg = prob.cfg
    mask, target = prob.obs_masks[which], prob.targets[which]
    diff = state - target
    return 0.5 * qmid_field(diff, diff, cfg.grid, cfg.tgrid.dt, mask=mask)


def evaluate_functional_raw(prob: _Problem, follower, disturbance, leader_arr,
                            state: np.ndarray | None = None, index: int = 0):
    """Cost functional value for explicit controls, raw-array flavour.

    ``follower``: tuple of edge traces (A/C/D) or an interior field (B);
    ``disturbance``: interior field (A/B) or None; ``index`` selects the
    follower whose cost is evaluated in configuration D.  ``state``, when
    given, is trusted to be the state of these controls.  The value is the
    tracking term of ``state`` plus ``_control_costs``.

    The controls and ``state`` may carry one leading block axis: the value
    is then an array with one entry per column, each the bits of that
    column's lone value (the quadratures sum every column in its lone
    order).  A block brings its states; a lone column returns a float.
    """
    if state is None:
        state = prob.state(follower, disturbance, leader_arr)
    value = _tracking_term(prob, state, which=index)
    for term in _control_costs(prob, follower, disturbance, index):
        value += term
    return value


def _control_costs(prob: _Problem, follower, disturbance, index: int = 0) -> tuple:
    """The control terms of the functional, signed, in the order it adds them.

    A: 0.5 ell^2 |v|^2 per follower edge, then -0.5 gamma^2 |psi|^2;
    B: 0.5 ell^2 |v|^2 on B1, then -0.5 gamma^2 |psi|^2 on B2;
    C/D: 0.5 ell_i^2 times follower ``index``'s rho_star^2-weighted norm
    (trapezoid in time, capped by ``capped_weighted_sq``).  A control with a
    leading block axis gives one value per column, one without it a float,
    so a deviation's terms can pair a block of one control with the others
    as they are.  Subtracting a term adds its negative exactly, so the sum
    has the bits of adding and subtracting the unsigned terms.
    """
    cfg, params = prob.cfg, prob.params
    grid, dt = cfg.grid, cfg.tgrid.dt
    c = cfg.configuration
    if c == "A":
        return tuple(0.5 * params.ell ** 2 * qmid_trace(v, v, dt) for v in follower) + (
            -0.5 * params.gamma ** 2 * qmid_field(disturbance, disturbance, grid, dt),)
    if c == "B":
        return (0.5 * params.ell ** 2 * qmid_field(follower, follower, grid, dt, mask=prob.b1_mask),
                -0.5 * params.gamma ** 2 * qmid_field(disturbance, disturbance, grid, dt,
                                                      mask=prob.b2_mask))
    ell = prob.follower_edges[index][2]
    terms = capped_weighted_sq(prob.log_g2, follower[index])
    return (0.5 * ell ** 2 * _column_sums(dt * prob.wtrap * terms, 1),)


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

# One player of the equilibrium, checked along its own random directions
# (``VerifyReport.players``): its largest directional derivative, and its
# curvature along the directions.  A minimizer's is the least
# d'Hd / (ell^2 |d|^2), the disturbance's the largest |G z|^2 / |z|^2
# (``_concavity``).
PlayerCheck = collections.namedtuple("PlayerCheck", "label maximizes derivative curvature")

# The concavity certificate of the A/B disturbance (``_concavity``): ``bound``
# is an upper bound of |G|^2 and ``value`` its estimate, the closed bound
# itself or the top Ritz value; ``method`` is "closed" or "lanczos" and
# ``steps`` the Lanczos steps taken.
Concavity = collections.namedtuple("Concavity", "value bound method steps")


@dataclass
class VerifyReport:
    """An equilibrium's exact first- and second-order conditions, as ``verify_saddle`` found them.

    ``functional_value`` is the first player's cost at the equilibrium,
    ``players`` one ``PlayerCheck`` each, ``concavity`` A/B's certificate
    (None in C/D) and ``gamma2`` the disturbance's weight gamma^2.
    """

    functional_value: float
    players: tuple
    concavity: Optional[Concavity]
    gamma2: float

    @property
    def max_directional_derivative(self) -> float:
        # np.max propagates a nan derivative, which then fails the stationarity rule
        return float(np.max([p.derivative for p in self.players]))

    @property
    def stationarity_tol(self) -> float:
        return STATIONARITY_TOL * (1.0 + abs(self.functional_value))

    @property
    def stationary(self) -> bool:
        return self.max_directional_derivative <= self.stationarity_tol

    @property
    def offender(self) -> str:
        """The label of the first player whose rules fail, empty when every player's hold.

        The rules are stated in the comment above ``STATIONARITY_TOL``.
        """
        for p in self.players:
            if not (p.derivative <= self.stationarity_tol and (
                    p.curvature <= self.concavity.bound + CURVATURE_TOL * self.gamma2
                    if p.maximizes else p.curvature >= -CURVATURE_TOL)):
                return p.label
        return ""

    @property
    def conditions_hold(self) -> bool:
        return not self.offender

    @property
    def concave(self) -> bool:
        """A/B: the certified bound of |G|^2 is at most gamma^2; C/D have no disturbance."""
        return self.concavity is None or self.concavity.bound <= self.gamma2

    @property
    def passed(self) -> bool:
        return self.conditions_hold and self.concave


# A player of a follower equilibrium, deviated alone: ``label`` names it,
# ``index`` is whose cost it plays on (the follower in D, else 0), ``weight``
# is its cost weight (ell^2, or gamma^2 for the disturbance, which alone
# ``maximizes``) and ``shape`` one deviation's layout; ``forcing(block)`` and
# ``costs(readout, block)`` are a block of deviations' ``_Readout.response``
# inputs and the control terms of the player's functional at the deviated
# controls, and ``norm(block)`` each deviation's squared norm in the player's
# cost.
_Player = collections.namedtuple("_Player", "label index weight maximizes shape forcing costs norm")


def _players(prob: _Problem, follower, disturbance) -> list:
    """The players of the equilibrium at the raw controls (follower, disturbance).

    A/B: the control and the disturbance of a saddle point; C: the one
    follower; D: the two followers of a Nash pair, both in the rho_star-
    weighted variable u = rho_star v (``follower`` holds the u's), whose cost
    is 0.5 ell^2 sum dt * trapezoid weight * u^2 and whose edge carries
    rho_star^-1 u.  A deviation is laid out as its march takes it: A's
    control one row per edge, a field control (A's disturbance, B's two) on
    its region's nodes only, a C/D follower its trace.  The terms of the
    players it leaves alone are their lone ``_control_costs``, formed once.
    """
    cfg, params = prob.cfg, prob.params
    c = cfg.configuration
    klev, dt, grid = cfg.tgrid.n_levels, cfg.tgrid.dt, cfg.grid
    s = _plan(grid, cfg.tgrid).s
    ell2, gamma2 = params.ell ** 2, params.gamma ** 2
    if c in ("A", "B"):
        fixed = _control_costs(prob, follower, disturbance)

    def field(label, weight, sign, mask, own):
        """A field control ``own`` on ``mask``'s nodes, of cost sign * 0.5 weight |own|^2.

        Its term replaces the disturbance's, the last of ``fixed``, when it
        maximizes (sign -1), and B's control's, the first, when it minimizes.
        """
        nodes = np.flatnonzero(mask)
        # its cost sums node-major, as qmid_field(mask=...) does
        rows, base = s[nodes], own[:, nodes].T

        def costs(readout, d):
            term = readout.cost(0.5 * sign * weight, base, d.transpose(0, 2, 1))
            return fixed[:-1] + (term,) if sign < 0 else (term,) + fixed[1:]

        return _Player(label, 0, weight, sign < 0, (klev, len(nodes)), lambda d: (d, rows, None),
                       costs, lambda d: qmid_field(d, d, grid, dt))

    if c == "A":
        sides = [(side, rho) for side, rho, _ in prob.follower_edges]
        return [
            _Player("control", 0, ell2, False, (len(sides), klev),
                    lambda dv: (None, None, {side: rho * dv[:, e]
                                             for e, (side, rho) in enumerate(sides)}),
                    lambda readout, dv: tuple(0.5 * ell2 * qmid_trace(u, u, dt) for u in (
                        v + dv[:, e] for e, v in enumerate(follower))) + fixed[-1:],
                    lambda dv: qmid_trace(dv, dv, dt).sum(axis=-1)),
            field("disturbance", gamma2, -1, np.ones(grid.n_interior, dtype=bool), disturbance)]
    if c == "B":
        return [field("control", ell2, 1, prob.b1_mask, follower),
                field("disturbance", gamma2, -1, prob.b2_mask, disturbance)]

    def trace_norm(du):
        return _column_sums(dt * prob.wtrap * du ** 2, 1)

    def deviate(i, side, rho, ell):
        return _Player(f"control {i + 1}", i, ell ** 2, False, (klev,),
                       lambda du: (None, None, {side: rho * (prob.ginv * du)}),
                       lambda readout, du: (0.5 * ell ** 2 * trace_norm(follower[i] + du),),
                       trace_norm)

    return [deviate(i, *edge) for i, edge in enumerate(prob.follower_edges)]


class _Readout:
    """The checks' view of a problem: its observed nodes, response marches and scratch.

    ``plan`` is the grid pair's march plan (``heat._plan``).  Per observation
    region, ``nodes`` are its interior nodes, ``columns`` the columns of S at
    them and ``targets`` its target there.  The scratch, one
    ``verify_saddle`` call's, holds ``width`` columns: the flat ``field`` a
    block's deviated controls or observed states, ``avg`` their midpoint
    averages and ``readback`` their responses on the observed nodes.
    """

    def __init__(self, prob: _Problem):
        cfg = prob.cfg
        self.prob = prob
        self.plan = _plan(cfg.grid, cfg.tgrid)
        self.width = _block_width(cfg)
        self.nodes = tuple(np.flatnonzero(m) for m in prob.obs_masks)
        self.columns = tuple(np.ascontiguousarray(self.plan.s[:, k]) for k in self.nodes)
        self.targets = tuple(t[..., k] for t, k in zip(prob.targets, self.nodes))
        rows = self.width * cfg.tgrid.n_levels
        observed = rows * max(map(len, self.nodes))
        whole = rows * cfg.grid.n_interior if cfg.configuration in "AB" else observed
        self.field, self.avg, self.readback = np.empty(whole), np.empty(whole), np.empty(observed)

    def residual(self, state: np.ndarray, which: int) -> np.ndarray:
        """``state`` less the target on region ``which``'s nodes: (*B, n_levels, n_obs)."""
        return state[..., self.nodes[which]] - self.targets[which]

    def response(self, which: int, source, rows, edges) -> np.ndarray:
        """The responses L delta to a block of deviations, on region ``which``'s nodes.

        ``source`` (w, n_levels, m) is a field deviation on the m nodes whose
        rows of S are ``rows``, and ``edges`` maps a side to its Dirichlet
        deviation (w, n_levels); either may be None.  The block is one
        ``_modal_levels`` march from a zero datum, the field entering by one
        product with ``rows`` in the march's scratch, read back into
        ``readback`` by one product with ``columns``: (w, n_levels, n_obs),
        each column the bits of its lone response.
        """
        width = len(source if source is not None else next(iter(edges.values())))
        wk = self.plan.work((width,))
        if source is not None:
            source = np.matmul(source, rows, out=wk.z_columns)
        levels = _modal_levels(wk, None, source, edges)
        return np.matmul(levels, self.columns[which],
                         out=_view(self.readback, levels.shape[:-1] + self.nodes[which].shape))

    def transpose(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """G'y for (K, n_obs) midpoint values ``y`` on region 0's nodes: (K, m) on ``rows``' nodes.

        The transpose of ``response``'s midpoint values from a source whose
        midpoint values are z (``_concavity``): one backward width-1 march of
        y, with a zero last level, read on the nodes whose rows of S are
        ``rows`` at levels 0..K-1.  The forward step's c dt lam^j and the
        midpoint average's transpose are the backward march's own.
        """
        wk = self.plan.work((1,))
        source = wk.z_columns[0]
        np.matmul(y, self.columns[0].T, out=source[:-1])
        source[-1] = 0.0
        levels = _modal_levels(wk, None, wk.z_columns, backward=True)[0]
        return levels[:-1] @ rows.T

    def cost(self, coef, base: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """``coef`` times each column's midpoint norm of base + delta (w, nodes, levels).

        The sum is formed in ``field``; the columns are node-major, as a masked
        ``qmid_field`` sums them."""
        cfg = self.prob.cfg
        f = np.add(base, delta, out=_view(self.field, delta.shape))
        return coef * qmid_field_inplace(f, self.avg, cfg.grid, cfg.tgrid.dt, -1)


def _block_values(readout: _Readout, observed: np.ndarray, costs: tuple) -> np.ndarray:
    """Each column's tracking term of ``observed`` (a readout buffer, consumed) plus ``costs``."""
    cfg = readout.prob.cfg
    value = 0.5 * qmid_field_inplace(observed, readout.avg, cfg.grid, cfg.tgrid.dt)
    for term in costs:
        value += term
    return value


def _direction_values(readout: _Readout, state: np.ndarray, player: _Player, count: int,
                      rng) -> tuple:
    """The player's cost at x and at x +- step d along ``count`` random directions d.

    Returns (J(x), the (count, 2) values at the +step and -step points, each
    |step d|^2 in the player's cost norm).  ``state`` is the equilibrium's
    (of the weighted controls in C/D): a deviated state is it plus the
    response to the deviation alone (the state is affine in the controls),
    so the two points of a direction share one response column.  The
    directions are drawn one at a time, ``readout.width`` to a block, and
    each block is one response march.
    """
    # each call reads a new residual: the tracking term consumes the second
    residual = readout.residual(state, player.index)
    j0 = _block_values(readout, readout.residual(state, player.index)[None],
                       player.costs(readout, np.zeros((1,) + player.shape)))[0]
    block = np.empty((readout.width,) + player.shape)
    pairs, norms = [], []
    for start in range(0, count, readout.width):
        delta = block[:count - start]
        for d in delta:
            rng.standard_normal(out=d)
        delta *= _STEP
        r = readout.response(player.index, *player.forcing(delta))
        norms.append(player.norm(delta))
        plus = player.costs(readout, delta)
        minus = player.costs(readout, np.negative(delta, out=delta))  # the bits of (-step) d
        point = _view(readout.field, r.shape)
        pairs.append(np.stack([_block_values(readout, op(residual, r, out=point), costs)
                               for op, costs in ((np.add, plus), (np.subtract, minus))], axis=-1))
    return j0, np.concatenate(pairs), np.concatenate(norms)


def _lanczos_gain(readout: _Readout, rows: np.ndarray, gamma2: float, rng) -> Concavity:
    """|G|^2 bounded by Lanczos on G'G from a random start: where the closed bound is too weak.

    z lives on the disturbance's nodes, whose rows of S are ``rows``; G z is
    ``_Readout.response`` of a source whose midpoint values are z (level 0
    zero), and G'y is ``_Readout.transpose``.  The top Ritz value theta_k of
    k steps is at most |G|^2, also in floating point to round-off (Paige,
    1972).  From a random start it is below (1 - eps) |G|^2 with probability
    at most 1.648 sqrt(N) exp(-sqrt(eps) (2k - 1)), N the dimension of z
    (Kuczynski & Wozniakowski, 1992); eps_k sets that to
    LANCZOS_FAILURE / LANCZOS_STEPS at each step, so theta_k / (1 - eps_k)
    bounds |G|^2 at every step at once, wrongly with probability at most
    LANCZOS_FAILURE.  The loop stops once that bound is at most gamma^2,
    once theta_k exceeds gamma^2 (theta_k itself refutes concavity), when
    the Krylov space is invariant or fills the space (theta_k is then exact)
    or after LANCZOS_STEPS steps.
    """
    n_steps = readout.prob.cfg.tgrid.n_steps
    dim = n_steps * len(rows)
    alt = np.where(np.arange(n_steps) % 2, -1.0, 1.0)[:, None]
    source = np.zeros((1, n_steps + 1, len(rows)))

    def gram(z):
        # a source of midpoint values z: level 0 zero, level k + 1 = 2 z_k - level k
        np.multiply(2.0 * alt, np.cumsum(alt * z, axis=0), out=source[0, 1:])
        return readout.transpose(favg(readout.response(0, source, rows, None)[0]), rows)

    log_odds = math.log(1.648 * math.sqrt(dim) * LANCZOS_STEPS / LANCZOS_FAILURE)
    v = rng.standard_normal((n_steps, len(rows)))
    v /= np.linalg.norm(v)
    v_prev, beta, alphas, betas = 0.0, 0.0, [], []
    for k in range(1, min(dim, LANCZOS_STEPS) + 1):
        w = gram(v) - beta * v_prev
        alphas.append(float(np.vdot(w, v)))
        w -= alphas[-1] * v
        theta = float(np.linalg.eigvalsh(np.diag(alphas) + np.diag(betas, 1), "U")[-1])
        beta = float(np.linalg.norm(w))
        if beta <= 1e-12 * theta or k == dim:
            return Concavity(theta, theta, "lanczos", k)
        eps = (log_odds / (2 * k - 1)) ** 2
        bound = theta / (1.0 - eps) if eps < 1.0 else math.inf
        if bound <= gamma2 or theta > gamma2:
            break
        betas.append(beta)
        v_prev, v = v, w / beta
    return Concavity(theta, bound, "lanczos", k)


def _concavity(readout: _Readout, rng) -> Concavity:
    """A certified upper bound of |G|^2, A/B's disturbance-to-observation gain.

    A disturbance deviation psi enters the march only through its K
    midpoint values z on the disturbance's nodes (a step's source is
    dt * favg(psi)), and its cost pairs the same midpoint values, so the
    disturbance's Hessian is dt dx (G'G - gamma^2 I), with G z the midpoint
    values of the response on the observed nodes.  The cost is concave in
    the disturbance exactly when |G|^2 <= gamma^2.  The closed bound
    (max_m c_m dt sum_{k<K} |lam_m|^k)^2 decides that with no march whenever
    it is at most gamma^2: on mode m the response is a convolution in time
    with the step response c_m dt lam_m^k, whose norm is at most its l1 norm
    (Young's inequality), S is orthonormal, and the restrictions to the
    regions and the midpoint average have norm <= 1.  Otherwise Lanczos
    decides (``_lanczos_gain``).
    """
    prob, plan = readout.prob, readout.plan
    gamma2, lam = prob.params.gamma ** 2, np.abs(plan.lam)
    steps = prob.cfg.tgrid.n_steps
    bound = float(np.max(plan.c * plan.dt * (1.0 - lam ** steps) / (1.0 - lam))) ** 2
    if bound <= gamma2:
        return Concavity(bound, bound, "closed", 0)
    nodes = slice(None) if prob.b2_mask is None else np.flatnonzero(prob.b2_mask)
    return _lanczos_gain(readout, plan.s[nodes], gamma2, rng)


def verify_saddle(cfg: ScenarioConfig, sol: SaddleSolution, leader, params: RobustParams,
                  seed: int = 0) -> VerifyReport:
    """Check the equilibrium by the exact first- and second-order conditions of each player.

    A/B: a saddle point, whose control minimizes and whose disturbance
    maximizes; C: plain minimality; D: both unilateral Nash conditions.
    Each player's cost is quadratic in its own control, so a unilateral
    deviation delta changes it by exactly <g, delta> + 0.5 <delta, H delta>:
    no deviation gains exactly when g vanishes and H has the player's sign.
    The values at x +- step d along random directions give both
    (``_direction_values``, and the rules above ``STATIONARITY_TOL``); A/B
    add the certificate that the cost is concave in the disturbance
    (``_concavity``).  C/D are checked in the rho_star-weighted followers
    ``sol.follower_weighted``, whose feedback is finite through the
    weight's over/underflow range; their raw followers are not read.  The
    costs are computed from the controls in ``sol``, not read from
    ``sol.functional_value``, and every value has the bits of its lone
    evaluation whatever the block width.  At least one direction is
    required: none would pass without testing anything.
    """
    if STATIONARITY_DIRECTIONS < 1:
        raise ValueError("verification needs at least one direction, "
                         f"got STATIONARITY_DIRECTIONS = {STATIONARITY_DIRECTIONS}")
    prob = build_problem(cfg, params)
    leader_arr = _leader_array(prob, leader)
    rng = np.random.default_rng(seed)
    weighted = cfg.configuration in ("C", "D")
    follower, disturbance = (prob.raw(sol.follower_weighted) if weighted
                             else prob.raw(sol.follower, sol.disturbance))
    state = prob.state(tuple(prob.ginv * u for u in follower) if weighted else follower,
                       disturbance, leader_arr)
    players = _players(prob, follower, disturbance)
    readout = _Readout(prob)
    count = max(1, STATIONARITY_DIRECTIONS // len(players))
    checks, jbars = [], []
    for player in players:
        j0, pairs, norms = _direction_values(readout, state, player, count, rng)
        jbars.append(j0)
        quotient = (pairs[:, 0] + pairs[:, 1] - 2.0 * j0) / norms   # d'Hd / |d|^2
        # the disturbance's plus gamma^2 is |G z|^2 / |z|^2; a minimizer's in units of ell^2
        checks.append(PlayerCheck(
            player.label, player.maximizes,
            float(np.max(np.abs(pairs[:, 0] - pairs[:, 1]) / (2 * _STEP))),
            float(np.max(quotient)) + player.weight if player.maximizes
            else float(np.min(quotient)) / player.weight))
    return VerifyReport(jbars[0], tuple(checks), None if weighted else _concavity(readout, rng),
                        params.gamma ** 2)

"""Leader synthesis by penalized HUM on a shared Krylov basis of the Gram operator.

The quadratic functional  F_eps(a) = 1/2 <Gram a, a> + <b, a> + eps/2 |a|^2
is minimized over adjoint terminal data a in the discrete H^1_0 inner
product.  The Gram operator is the exact transpose of the discrete
control-to-terminal-state map (discretize-then-optimize): one application
solves the coupled adjoint pair from a, reads off the leader control, feeds
it through the homogeneous optimality system and lifts the terminal state by
the inverse Dirichlet Laplacian.

The adjoint pair uses the follower coupling of ``saddle._Problem`` and no
copy of it: phi solves backward driven by theta on the observation
region(s), and theta solves forward under feedback(phi).  That is the
optimality system's coupling with the roles transposed, so the pair's
Picard sweeps are the optimality system's two modal marches,
``saddle._backward_hat`` (phi) and ``saddle._forward_hat`` (theta), with
every column in the pair's role, on ``_Problem.homogeneous``: phi's source
is one projector product per observation region, theta's the diagonal
1/gamma^2 (A), B's drive projector or the edge rows.  In configuration D
phi gathers both regions and each follower drives its own theta, a further
field of the batched march.  As in ``saddle``, a batch of columns leads
every array: phi and theta are (*B, n_levels, n_interior).  By the scheme's
summation-by-parts identity

    <Gram a, b>_{H10} = observation-pairing(a, b)

holds exactly (midpoint quadrature of the omega-restriction of phi in
configuration A, of the boundary normal-derivative traces otherwise), so the
operator is symmetric positive semidefinite to round-off and conjugate
gradient applies.  The smooth squared penalty (eps/2)|a|^2 replaces the
non-smooth norm penalty; the terminal residual then scales like sqrt(eps),
which the epsilon-sweep study measures.

Gram does not depend on eps, and Gram + eps I has the same Krylov space from b
for every eps (shifted systems).  ``GramBasis`` stores that space once, with
the Gram image of every basis vector, and ``hum_minimize`` takes the Galerkin
solution on its leading vectors, which in exact arithmetic is the conjugate
gradient iterate.  One basis thus serves every eps of a ladder, on the one
``saddle._Problem`` it builds; the typed functions are the public edge.  The
Galerkin solve factors the small projected matrix itself: a lower Cholesky
factor on Python floats, grown one row per basis vector and kept per eps, so
the module needs numpy alone.
``hum_ladder`` runs every rung's Galerkin iteration on one basis and then
certifies the rungs as one batch: one ``_pairs_hat`` from their minimizers'
modal coefficients x / scale themselves and one ``saddle._equilibria`` over
their leaders, each column the bits of its lone solve; ``hum_minimize`` is
its one-rung case.

The basis, b and the Galerkin iteration live in the H^1_0 coordinates of
``_coordinates``, where the H^1_0 product is the Euclidean one and the
inverse Laplacian a diagonal scale of modal coefficients.  So a Gram image
(``_gram``) transforms no level: a raw pair solve from the datum's modal
coefficients, the leader read off the modal phi (``_leader_hat``, as
``observation`` reads it in space), and the raw equilibrium of
``_Problem.homogeneous`` (built once per problem, so once per basis) up to
its modal terminal level.  The pair (phi backward, theta forward) and the
equilibrium (y forward, p backward) are the same coupling with the roles
transposed, so where a block holds two columns (``saddle._block_width``)
they are the two columns of one Picard loop (``_gram_columns``), a pair
column and an equilibrium column of the same two marches: a sweep is one
``saddle._backward_hat`` of [phi, p] and one ``saddle._forward_hat`` of
[theta, y] (D's live fields [phi, p_1, p_2] and [theta_1, y, theta_2]),
and the equilibrium follows the leader of the pair's current phi until the
pair stops.  Where it holds one (n = 200), the march is bound by arithmetic
rather than by numpy calls, and the pair is solved first and the
equilibrium under its leader after it: two loops of the same marches.
The certificate and the probe read what they keep off the modal pairs
(``_read``, ``_probe_rows``); only the typed edge (``solve_adjoint``,
``gram_apply``, ``observation``, ``HumResult.phi_terminal`` and ``.leader``)
is physical.

The instruments that check the duality and the gradient from outside (the
observation pairing and a finite-difference gradient check) and the
physical-space reference of the Picard coupling are test code, in
``tests/_instruments.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError
from .grids import LEFT, RIGHT, BoundaryTrace, SpaceTimeField
from .heat import _dst, favg, normal_derivative_o1
from .products import h10_norm, hminus1_norm
from .saddle import (SaddleSolution, _backward_hat, _block_width, _equilibria, _equilibria_hat,
                     _forward_hat, _normal_hat, _picard_columns, _Problem, _slots, _solution,
                     _solve, build_problem)
from .scenario import RobustParams, ScenarioConfig
from .weights import _admissibility, target_weight_inv_sq


@dataclass(frozen=True)
class HumSettings:
    epsilon: float = 1e-4
    cg_tol: float = 1e-10

    def __post_init__(self):
        # the Galerkin solve's Cholesky factor does not check finiteness
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (self.cg_tol > 0 and math.isfinite(self.cg_tol)):
            raise ValueError(f"cg_tol must be positive and finite, got {self.cg_tol}")


@dataclass
class AdjointPair:
    """Solution of the coupled observability system for a terminal datum."""

    phi: SpaceTimeField
    thetas: tuple
    iterations: int
    residual: float

    @property
    def theta(self) -> SpaceTimeField:
        return self.thetas[0]


def _pairs_hat(prob: _Problem, terminals: np.ndarray, finish) -> list:
    """``saddle._picard_columns`` of the adjoint pairs of the modal terminal data ``terminals``.

    Each row of ``terminals`` is one datum's modal coefficients.  A sweep
    is ``saddle._backward_hat`` (phi) then ``saddle._forward_hat`` (theta),
    every column a pair, on ``prob.homogeneous``.  ``finish(phi, thetas,
    cols)`` maps the final modal phi and thetas of the columns ``cols`` to
    what the results keep.
    """
    hom = prob.homogeneous
    k, width = hom.n_adjoints, len(terminals)

    def phi(thetas, cols):
        return _backward_hat(hom, thetas, len(cols), 0,
                             terminals if len(cols) == width else terminals[cols])

    def thetas(phi):
        return _slots(_forward_hat(hom, (phi,), len(phi), 0, None), len(phi), k)

    return _picard_columns(hom, phi, thetas, k, width=width, finish=finish)


def solve_adjoint(cfg: ScenarioConfig, phi_terminal: np.ndarray,
                  params: RobustParams) -> AdjointPair:
    """Picard iteration on the adjoint coupling from the terminal datum.

    phi solves backward with the theta source on the observation region(s);
    the theta component(s) solve forward driven by phi, with theta(0) = 0
    enforced exactly.  The datum is solved as a batch of one (``_pairs_hat``),
    and the fields come back in space at exit, phi's last level the datum itself.
    """
    prob = build_problem(cfg, params)
    n = cfg.grid.n_interior
    datum = np.asarray(phi_terminal, dtype=float)
    if datum.shape != (n,):
        raise ValueError(f"the terminal datum must hold {n} interior values")
    s = prob.modal.s

    def physical(phi, thetas, cols):
        phi = np.matmul(phi, s)
        phi[..., -1, :] = datum
        return phi, tuple(np.matmul(th, s) for th in thetas)

    (phi, thetas, iterations, residual, _, _), = _pairs_hat(prob, np.matmul(datum[None], s),
                                                            physical)
    # theta i's Dirichlet rows: rho * v on its follower's edge (every edge in A)
    follower, _ = prob.feedback((phi,) * len(thetas), prob.g2inv)
    theta_fields = []
    for i, th in enumerate(thetas):
        own = follower if len(thetas) == 1 else tuple(
            v if j == i else 0.0 * v for j, v in enumerate(follower))
        rows = prob.edge_rows(own, None)
        theta_fields.append(prob.field(th, rows.get(LEFT), rows.get(RIGHT)))
    return AdjointPair(prob.field(phi), tuple(theta_fields), iterations, residual)


def _leader(prob: _Problem, h: np.ndarray):
    """The raw leader ``h`` as a field on omega (A) or a trace on the leader endpoint."""
    if prob.leader_side is None:
        return prob.field(h)
    return BoundaryTrace(prob.cfg.tgrid, prob.leader_side, h)


def observation(cfg: ScenarioConfig, pair: AdjointPair):
    """Leader control read off the adjoint pair: phi on omega (A), else -dphi/dn on its edge."""
    prob = build_problem(cfg, RobustParams())
    phi = pair.phi.interior
    if prob.leader_side is None:
        return _leader(prob, np.where(prob.omega_mask, phi, 0.0))
    return _leader(prob, -normal_derivative_o1(phi, cfg.grid, prob.leader_side))


def _coordinates(grid) -> tuple:
    """(S, scale) of the H^1_0 coordinates c = scale * (S u) of interior vectors u.

    S (-D) S = diag(mu) / dx^2 (``heat._dst``; the fast-Poisson idea of
    Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970), so with
    scale = sqrt(mu / dx) the H^1_0 product dx * u.(-D)v is the Euclidean
    product of the coordinates, and the lift (-D)^-1 y has the coordinates
    dx * (S y) / scale.
    """
    s, mu = _dst(grid)
    return s, np.sqrt(mu / grid.dx)


def gram_apply(cfg: ScenarioConfig, phi_terminal: np.ndarray,
               params: RobustParams) -> np.ndarray:
    """One application of the HUM duality operator (H^1_0 Riesz representative).

    adjoint pair from the terminal datum -> leader control -> homogeneous
    optimality solve -> inverse-Laplacian lift of the terminal state, on the
    coordinates of the datum (``_gram``).
    """
    s, scale = _coordinates(cfg.grid)
    c = scale * (np.asarray(phi_terminal, dtype=float) @ s)
    return (_gram(build_problem(cfg, params), c) / scale) @ s


def _leader_hat(prob: _Problem, phi: np.ndarray) -> np.ndarray:
    """The leader read off the modal ``phi`` (``observation``), as ``_forward_hat`` takes it.

    A: its modal levels on omega (the omega projector); otherwise -dphi/dn on
    the leader edge (one row of S).
    """
    if prob.leader_side is None:
        return np.matmul(phi, prob.modal.omega)
    return -_normal_hat(prob, phi, prob.leader_side)


def _gram(prob: _Problem, c: np.ndarray) -> np.ndarray:
    """``gram_apply`` on ``prob`` in the coordinates c (``_coordinates``), on modal coefficients.

    The datum's modal coefficients are c / scale.  The leader is read off
    the adjoint pair's modal phi (``_leader_hat``), and the coordinates of
    the lifted terminal state of ``prob.homogeneous``'s equilibrium under it
    are its modal terminal level times dx / scale: no level is transformed
    back.  The pair and the equilibrium are the two columns of one Picard
    loop (``_gram_columns``) when a block holds two columns
    (``saddle._block_width``); otherwise the pair is solved first and the
    equilibrium under its leader after it, two loops of the same marches.
    """
    m = prob.modal
    _, scale = _coordinates(prob.cfg.grid)
    datum = c / scale
    if _block_width(prob.cfg) >= 2:
        return m.dx * _gram_columns(prob, datum) / scale

    def leader(phi, thetas, cols):
        return _leader_hat(prob, phi), ()

    def lifted(state, adjoints, cols):
        return m.dx * state[..., -1, :] / scale, ()

    drive = _pairs_hat(prob, datum[None], leader)[0][0]
    return _equilibria_hat(prob.homogeneous, drive[None], 1, lifted)[0][0]


def _gram_columns(prob: _Problem, datum: np.ndarray) -> np.ndarray:
    """Modal terminal level of a Gram image's equilibrium: the pair and it as one Picard loop.

    The adjoint pair of ``datum`` (phi backward, theta forward) and the
    homogeneous equilibrium (y forward, p backward) are the same coupling with
    the roles transposed, so they are columns 0 and 1 of one
    ``saddle._picard_columns`` loop: its state is the backward-time fields
    [phi, p] (``saddle._backward_hat``) and its adjoints the forward-time
    fields [theta, y] (``saddle._forward_hat``), one batched march each.
    Each column stops on its own rule: the pair's on theta, the
    equilibrium's on y.  The equilibrium is driven by the leader read off
    the pair's current phi (``_leader_hat``), and from the pair's exit on by
    the leader of its final phi.  At exit only the final phi of a pair that
    leaves the equilibrium running is marched, since no other final state is
    read.  In D the marches carry the live fields only, [phi, p_1, p_2] and
    [theta_1, y, theta_2]; the loop keeps the equilibrium's y with a zero
    second slot, beside the pair's two thetas.
    """
    hom = prob.homogeneous
    k = hom.n_adjoints
    terminals = np.zeros((1 + k, len(datum)))   # the terminal levels of [phi, p_1, p_2]
    terminals[0] = datum
    marched = []   # the columns of the last backward-time march, which the forward one follows
    frozen = []    # the leader of the pair's final phi

    def roles(cols):
        return int(cols[0] == 0), int(cols[-1] == 1)   # (pair columns, equilibrium columns)

    def backward_time(adjoints, cols):
        marched[:] = cols
        pairs, equilibria = roles(cols)
        return _backward_hat(hom, adjoints, pairs, equilibria,
                             terminals[:1 + k * equilibria] if pairs else None)

    def forward_time(state):
        pairs, equilibria = roles(marched)
        width = pairs + equilibria
        drive = None
        if equilibria:
            drive = _leader_hat(hom, state[:1]) if pairs else frozen[0]
        slots = _slots(_forward_hat(hom, _slots(state, width, k), pairs, equilibria, drive),
                       width, k)
        if k == 1 or not equilibria:
            return slots
        # D: the equilibrium's second slot is zero, beside the pair's theta_2
        return slots[0], np.concatenate((slots[1], np.zeros((equilibria,) + slots[1].shape[1:])))

    def final_phi(adjoints, cols):
        # at exit only the phi of a pair that leaves the equilibrium running is read
        return backward_time(adjoints, cols) if 1 in marched and 1 not in cols else None

    def finish(state, adjoints, cols):
        final = []
        for j, col in enumerate(cols):
            if col == 0 and state is not None:
                frozen.append(_leader_hat(hom, state[j:j + 1]))
            final.append(adjoints[0][j, -1] if col == 1 else None)
        return final, adjoints

    return _picard_columns(hom, backward_time, forward_time, k, width=2, finish=finish,
                           final_forward=final_phi)[1][0]


def _read(prob: _Problem, phi: np.ndarray) -> np.ndarray:
    """``observation``'s read of the modal ``phi``: by S's columns on omega, 0 off it (A)."""
    if prob.leader_side is not None:
        return _leader_hat(prob, phi)
    h = np.zeros(phi.shape)
    h[..., prob.omega_mask] = np.matmul(phi, prob.modal.s[:, prob.omega_mask])
    return h


def _observed(prob: _Problem, leader: np.ndarray) -> tuple:
    """(midpoint averages of one raw ``leader``, on omega's nodes in A; the observation weight)."""
    grid, dt = prob.cfg.grid, prob.cfg.tgrid.dt
    h = favg(leader)
    if prob.leader_side is None:
        return h[:, prob.omega_mask], dt * grid.dx
    return h, dt


@dataclass
class HumResult:
    phi_terminal: np.ndarray
    leader: object                      # SpaceTimeField (A) or BoundaryTrace
    terminal_residual_hminus1: float    # from an independent full forward solve
    internal_residual_estimate: float   # from the stored Gram images
    cg_iterations: int
    functional_value: float
    leader_norm_sq: float
    epsilon: float
    trace: tuple                        # (iteration, functional, residual norm)
    # the follower equilibrium under ``leader`` that certified the residual
    controlled: SaddleSolution = dataclasses.field(repr=False)


# A new basis direction whose orthogonalized image is below this fraction of
# the image itself is round-off: the Krylov space is invariant.
_INVARIANT_TOL = 1e-14


class GramBasis:
    """Krylov basis of the Gram operator from the data vector, shared across eps.

    Gram + eps I has the same Krylov space from b for every eps, so one basis
    serves a whole epsilon ladder.  A solve reads the leading vectors it
    needs and extends the basis only when it runs out, so its result does not
    depend on what else was solved on the same basis.

    ``b``, the vectors and their images are held in the H^1_0 coordinates of
    ``_coordinates``, where the H^1_0 product is the Euclidean one: the
    vectors are orthonormal (classical Gram-Schmidt, run twice), and each
    stored image is one real ``_gram`` on ``prob``.  The vectors and images
    are the leading rows of two (n_interior, n_interior) buffers, which a
    Galerkin solution combines as they are.
    """

    def __init__(self, cfg: ScenarioConfig, params: RobustParams):
        self.cfg, self.params = cfg, params
        self.prob = build_problem(cfg, params)
        # the zero-leader follower equilibrium; b, the Riesz vector of the data
        # term, holds the coordinates of the lift of its terminal state
        self.free = _solve(self.prob, None)
        s, scale = _coordinates(cfg.grid)
        self.b = cfg.grid.dx * (self.free.state.interior[-1] @ s) / scale
        self.bnorm = float(np.linalg.norm(self.b))
        n = cfg.grid.n_interior
        self._vrows, self._grows = np.empty((n, n)), np.empty((n, n))
        self.rhs = []           # <v_i, b>
        self.projected = []     # row i: <v_i, Gram v_j>, symmetrized, for j <= i
        self._next = None if self.bnorm == 0.0 else self.b / self.bnorm
        # per eps: the rows of the lower Cholesky factor of projected + eps I
        # built so far, and the forward solution z of L z = -rhs on them
        self._cholesky = {}

    def __len__(self) -> int:
        return len(self.rhs)

    @property
    def vectors(self) -> np.ndarray:
        return self._vrows[:len(self)]

    @property
    def images(self) -> np.ndarray:
        return self._grows[:len(self)]

    def extend(self) -> bool:
        """Add the next vector and its Gram image; False when the space is invariant."""
        if self._next is None:
            return False
        k = len(self)
        v = self._next
        g = _gram(self.prob, v)
        self._vrows[k], self._grows[k] = v, g
        self.rhs.append(float(v @ self.b))
        vs, gs = self.vectors, self.images   # rhs counts v now: rows 0..k
        self.projected.append((0.5 * (vs @ g + gs @ v)).tolist())
        w = g
        for _ in range(2):
            w = w - (vs @ w) @ vs
        wnorm = np.linalg.norm(w)
        if k + 1 == self.cfg.grid.n_interior or wnorm <= _INVARIANT_TOL * np.linalg.norm(g):
            self._next = None
        else:
            self._next = w / wnorm
        return True

    def galerkin(self, k: int, eps: float) -> tuple:
        """(x, Gram x) of the Galerkin solution of (Gram + eps I) x = -b on k vectors.

        The lower Cholesky factor L of the projected matrix plus eps I grows
        one row per new k, and with it the forward solution z of L z = -rhs;
        the back substitution of L^T y = z runs on Python floats.  Rows are
        always built in order 0, 1, ..., so a result does not depend on which
        other k and eps were solved first.
        """
        rows, z = self._cholesky.setdefault(eps, ([], []))
        for i in range(len(rows), k):
            proj = self.projected[i]
            if not proj[i] + eps > 0.0:
                raise ConvergenceError(
                    f"Gram operator is not positive: Rayleigh quotient {proj[i]:.3g} "
                    f"of basis vector {i + 1} with eps={eps:.3g}")
            row = []
            for j, lj in enumerate(rows):
                row.append((proj[j] - sum(a * c for a, c in zip(row, lj))) / lj[j])
            pivot = proj[i] + eps - sum(a * a for a in row)
            if not pivot > 0.0:
                raise ConvergenceError(
                    f"projected Gram matrix plus eps={eps:.3g} is not positive definite "
                    f"on {k} basis vectors: {i + 1}-th leading minor of the array is not "
                    "positive definite")
            row.append(math.sqrt(pivot))
            z.append((-self.rhs[i] - sum(a * c for a, c in zip(row, z))) / row[i])
            rows.append(row)
        y = z[:k]
        for i in range(k - 1, -1, -1):
            y[i] = (y[i] - sum(rows[m][i] * y[m] for m in range(i + 1, k))) / rows[i][i]
        y = np.array(y)
        return y @ self._vrows[:k], y @ self._grows[:k]


def hum_minimize(cfg: ScenarioConfig, params: RobustParams,
                 settings: HumSettings, basis: Optional[GramBasis] = None) -> HumResult:
    """Minimize the penalized HUM functional on a Krylov basis of the Gram operator.

    Solves (Gram + eps I) a = -b, where b is the Riesz vector of the data
    terms, by Galerkin projection on the leading vectors of ``basis`` (a new
    one when None); mathematically these are the conjugate-gradient iterates.
    Iteration k reads the explicit residual -b - Gram x - eps x off the
    stored images of the first k vectors and stops at ``cg_tol``, or when
    the basis cannot grow: it holds at most n_interior vectors, so the
    iteration always ends.  The leader is reconstructed from the minimizer,
    and the terminal H^-1 residual is certified by a from-scratch solve of
    the full optimality system with the synthesized control, whose follower
    equilibrium the result keeps as ``controlled``; with zero data that is
    the zero leader's (a zero array, not None: adding it turns a -0.0 into
    0.0, which prints differently).  It is the one-rung case of ``hum_ladder``.
    """
    return hum_ladder(cfg, params, (settings,), basis)[0]


def hum_ladder(cfg: ScenarioConfig, params: RobustParams, rungs,
               basis: Optional[GramBasis] = None) -> tuple:
    """``hum_minimize`` for each ``HumSettings`` of ``rungs`` on one basis; one result each.

    Each rung runs its Galerkin iteration on the shared ``basis`` (a new one
    when None), and then all rungs are certified as one batch: one
    ``_pairs_hat`` from their minimizers' modal coefficients x / scale (only
    ``phi_terminal``, (x / scale) S, is in space) and one follower equilibrium
    over their leaders (``_read``), each column the bits of its lone solve.
    So every result equals a lone ``hum_minimize`` on a fresh basis bit for bit.
    """
    if not rungs:
        return ()
    if basis is None:
        basis = GramBasis(cfg, params)
    elif basis.cfg is not cfg or basis.params != params:
        raise ValueError("the Gram basis was built for another scenario or parameters")

    grid, prob = cfg.grid, basis.prob
    s, scale = _coordinates(grid)
    solves = [_galerkin_iteration(basis, settings) for settings in rungs]
    # the minimizers' modal coefficients are the certificate's terminal data
    data = np.array([x for x, _, _, _ in solves]) / scale
    leaders = np.stack([pair[0] for pair in _pairs_hat(
        prob, data, lambda phi, thetas, cols: (_read(prob, phi), ()))])
    results = []
    for settings, (_, gx, fval, trace), a, leader, raw in zip(
            rungs, solves, data, leaders, _equilibria(prob, leaders)):
        # Gram x + b holds the coordinates of the lift of y(T), from the stored images
        internal = float(np.linalg.norm(gx + basis.b))
        observed, weight = _observed(prob, leader)
        controlled = _solution(prob, leader, raw)
        residual = hminus1_norm(controlled.state.interior[-1], grid)
        results.append(HumResult(
            a @ s, _leader(prob, leader), residual, internal, len(trace), fval,
            float(weight * np.sum(observed * observed)), settings.epsilon, tuple(trace),
            controlled))
    return tuple(results)


def _galerkin_iteration(basis: GramBasis, settings: HumSettings) -> tuple:
    """(x, Gram x, functional, trace) of ``hum_minimize`` on ``basis``, x in its coordinates."""
    eps = settings.epsilon
    b, bnorm = basis.b, basis.bnorm
    # zero data (b = 0) leave the loop at once, with the exact minimizer x = 0
    x = gx = np.zeros(basis.cfg.grid.n_interior)
    fval, trace = 0.0, []
    best = bnorm
    stagnant = 0
    for it in itertools.count(1):
        if it > len(basis) and not basis.extend():
            break   # invariant (or empty) Krylov space: the last Galerkin solution is exact
        x, gx = basis.galerkin(it, eps)
        rnorm = float(np.linalg.norm(-b - gx - eps * x))
        fval = float(0.5 * (x @ (gx + eps * x)) + b @ x)
        trace.append((it, fval, rnorm))
        if rnorm <= settings.cg_tol * bnorm:
            break
        if rnorm < best * 0.999:
            best, stagnant = rnorm, 0
        else:
            stagnant += 1
            if stagnant >= 50:
                raise ConvergenceError(
                    f"conjugate gradient stagnated at residual {rnorm:.3g} "
                    f"(target {settings.cg_tol * bnorm:.3g}) after {it} iterations")
    return x, gx, fval, trace


def target_admissibility(cfg: ScenarioConfig):
    """Admissibility report of the scenario's target, or None when trivial."""
    if all(np.all(t.values == 0.0) for t in cfg.targets()):
        return None
    grid, tgrid = cfg.grid, cfg.tgrid
    # the squared target norm on the observation region(s), one entry per time
    # level; each row is summed pairwise, as a lone np.sum of it would be
    levels = sum(np.sum(tgt.interior[:, reg.interior_mask(grid)] ** 2, axis=1) * grid.dx
                 for reg, tgt in zip(cfg.observation_regions(), cfg.targets()))

    def profile(tm):
        # the nearest level of each midpoint; rint rounds half to even, as round does
        return levels[np.minimum(np.rint(tm / tgrid.dt).astype(int), tgrid.n_steps)]

    return _admissibility(cfg.configuration, cfg.wspec, cfg.eta(), profile)


@dataclass
class ProbeReport:
    n_samples: int
    skipped: int
    min_ratio: float
    median_ratio: float
    max_ratio: float
    refined_max: float
    argmax_sample: int
    ratios: tuple = ()
    # one (relative eigenvalue of O, pencil maximum, above the cut) per mode k,
    # O's largest first; left out of the repr, which stays the summary
    spectrum: tuple = dataclasses.field(default=(), repr=False)


# refined_max depends on this cut.  The observation form O is singular up to
# round-off, and the largest eigenvalue of the pencil (L, O) on O's
# eigenvectors above this fraction of its largest eigenvalue grows as the cut
# falls.  ProbeReport.spectrum shows that growth mode by mode, and
# probe_summary.csv reports the cut beside refined_max.
_OBSERVED_CUT = 1e-12


def _pencil_spectrum(lhs: np.ndarray, obs_form: np.ndarray) -> tuple:
    """(relative eigenvalue, pencil maximum, above the cut) for each of O's modes.

    Row k (from 1) reads O's k-th largest eigenvalue over its largest, and
    the largest eigenvalue of the pencil (L, O) on O's leading k
    eigenvectors, which cannot fall as k grows (interlacing).  It is
    infinite once a nonpositive eigenvalue of O joins: L/O is then unbounded
    on the span.
    """
    evals, evecs = np.linalg.eigh(obs_form)
    top = max(evals[-1], 1e-300)
    rows = []
    for k in range(1, len(evals) + 1):
        lead = np.arange(len(evals)) >= len(evals) - k   # ascending, as eigh orders them
        pencil = np.inf
        if evals[-k] > 0.0:
            proj = evecs[:, lead] / np.sqrt(evals[lead])
            pencil = float(np.max(np.linalg.eigvalsh(proj.T @ lhs @ proj)))
        rows.append((float(evals[-k] / top), pencil, bool(evals[-k] > top * _OBSERVED_CUT)))
    return tuple(rows)


def _probe_rows(prob: _Problem, phi: np.ndarray, thetas: tuple, cols) -> tuple:
    """The probe's ``_pairs_hat`` finish: each column's rows, new arrays, not views of ``phi``.

    scale phi(0), whose squared norm is |phi(0)|_{H10}^2; each theta's midpoint
    averages, whose node sums are their mode sums as the rho^-2 weight depends on
    t alone (Parseval); ``_observed`` of the ``_read``.
    """
    _, scale = _coordinates(prob.cfg.grid)
    return [(scale * phi[j, 0], [favg(th[j]).ravel() for th in thetas],
             _observed(prob, _read(prob, phi[j]))) for j in range(len(cols))], ()


def observability_probe(cfg: ScenarioConfig, params: RobustParams,
                        n_samples: int = 100, seed: int = 0) -> ProbeReport:
    """Sampled ratios of the observability inequality and the pencil's maximum.

    For H^1_0-normalized Gaussian terminal data a the ratio

        L(a, a) / O(a, a),  L = |phi(0)|_{H10}^2 + integral of rho^{-2} |theta|^2,
                            O = observation(a, a),

    is degree-0 homogeneous.  Both forms are quadratic in a, so they are
    assembled once, as m x m matrices, from the adjoint pairs of the first
    m = min(n_interior, n_samples) samples.  Those pairs are solved on one
    problem as the modal columns of ``_pairs_hat``, in blocks of
    ``saddle._block_width`` columns, each column keeping only its rows
    (``_probe_rows``).  A sample's ratio is c L c / c O c, with c a unit
    vector for the first m samples and the sample's coordinates in them for a
    later one.  Samples with a vanishing observation are skipped.  ``spectrum``
    holds the pencil maximum on O's leading k eigenvectors for every k
    (``_pencil_spectrum``); ``refined_max`` is its value at the last mode
    above ``_OBSERVED_CUT`` times O's largest eigenvalue, floored at the
    sampled maximum.
    """
    if n_samples < 1:
        raise ValueError(f"the probe needs at least one sample, got {n_samples}")
    grid, tgrid = cfg.grid, cfg.tgrid
    prob = build_problem(cfg, params)
    draws = np.random.default_rng(seed).standard_normal((n_samples, grid.n_interior))
    data = np.array([a / h10_norm(a, grid) for a in draws])
    m = min(grid.n_interior, n_samples)

    rows, width = [], _block_width(cfg)
    for start in range(0, m, width):
        # one (1, n) product per datum, the shape of a lone datum's
        block = np.matmul(data[start:min(start + width, m), None, :], prob.modal.s)[:, 0]
        rows += [row for row, *_ in _pairs_hat(prob, block, functools.partial(_probe_rows, prob))]
    phi0, thetas, obs = zip(*rows)
    phi0, weight = np.array(phi0), obs[0][1]
    obs = np.array([h.ravel() for h, _ in obs])
    w_inv = np.repeat(target_weight_inv_sq(cfg.configuration, cfg.wspec, cfg.eta(),
                                           tgrid.midpoint_times()), grid.n_interior)
    lhs = phi0 @ phi0.T
    for th in map(np.array, zip(*thetas)):
        lhs += tgrid.dt * grid.dx * ((th * w_inv) @ th.T)
    obs_form = weight * (obs @ obs.T)

    coords = np.eye(m)
    if n_samples > m:
        later = np.linalg.solve(data[:m].T, data[m:].T)
        coords = np.hstack([coords, later])
    num = np.sum(coords * (lhs @ coords), axis=0)
    den = np.sum(coords * (obs_form @ coords), axis=0)
    kept = den > 1e-300
    if not kept.any():
        raise ConvergenceError("every probe sample had a vanishing observation")
    ratios = num[kept] / den[kept]

    spectrum = _pencil_spectrum(lhs, obs_form)
    observed = [pencil for _, pencil, above in spectrum if above]
    refined = max(observed[-1], ratios.max()) if observed else ratios.max()
    return ProbeReport(n_samples, int(n_samples - kept.sum()), float(ratios.min()),
                       float(np.median(ratios)), float(ratios.max()), float(refined),
                       int(np.argmax(ratios)), tuple(float(r) for r in ratios), spectrum)

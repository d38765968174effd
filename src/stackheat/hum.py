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
region(s), and theta solves forward under forcing(feedback(phi)), the same
two methods that couple state and adjoint in the optimality system.  In
configuration D each follower drives its own theta, one column of a batched
march.  By the scheme's summation-by-parts identity

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
gradient iterate.  One basis thus serves every eps of a ladder.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConvergenceError
from .grids import BoundaryTrace, SpaceTimeField
from .heat import favg, modal_march, modal_march_backward, normal_derivative_o1
from .products import h10_inner, h10_norm, hminus1_norm, neg_laplacian_solve
from .saddle import (SaddleSolution, _block_width, _picard_columns, _Problem, build_problem,
                     picard_coupled, solve_optimality)
from .scenario import RobustParams, ScenarioConfig
from .weights import admissibility_check, target_weight_inv_sq


@dataclass(frozen=True)
class HumSettings:
    epsilon: float = 1e-4
    cg_tol: float = 1e-10
    cg_max_iters: int = 5000

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.cg_tol > 0:
            raise ValueError("cg_tol must be positive")
        if self.cg_max_iters < 1:
            raise ValueError("cg_max_iters must be >= 1")


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


def _theta_forcing(prob: _Problem, phi: np.ndarray) -> tuple:
    """(source, left, right) of the theta march: forcing(feedback(phi)).

    ``phi`` is (n_levels, n_interior, *B), with optional batch axes ``B``.
    In D both followers read phi and each drives its own theta, so follower
    i's trace goes to column i of a last axis after ``B``, and one batched
    march solves both.
    """
    follower, disturbance = prob.feedback((phi,) * prob.n_adjoints, prob.g2inv)
    if prob.n_adjoints > 1:
        follower = tuple(v[..., None] * e for v, e in zip(follower, np.eye(prob.n_adjoints)))
    return prob.forcing(follower, disturbance, None)


def _theta_columns(prob: _Problem, a) -> tuple:
    """One entry per theta component: ``a`` itself, or its follower columns in D."""
    if prob.n_adjoints == 1 or a is None:
        return (a,) * prob.n_adjoints
    return tuple(np.ascontiguousarray(a[..., i]) for i in range(prob.n_adjoints))


def _phi_backward(prob: _Problem, thetas: tuple, terminal: np.ndarray) -> np.ndarray:
    cfg = prob.cfg
    src = np.zeros(thetas[0].shape)
    for mask, th in zip(prob.obs_masks, thetas):
        src[:, mask] += th[:, mask]
    return modal_march_backward(cfg.grid, cfg.tgrid, terminal, src)


def _theta_forward(prob: _Problem, phi: np.ndarray) -> tuple:
    """The theta component(s) marched forward from theta(0) = 0 under phi."""
    cfg = prob.cfg
    theta = modal_march(cfg.grid, cfg.tgrid, np.zeros(cfg.grid.n_interior),
                        *_theta_forcing(prob, phi))
    return _theta_columns(prob, theta)


def _adjoint_pair(prob: _Problem, phi, thetas, iterations, residual) -> AdjointPair:
    """Typed pair of one column, with the thetas' marched boundary rows."""
    _, left, right = _theta_forcing(prob, phi)
    theta_fields = tuple(prob.field(th, lt, rt) for th, lt, rt in zip(
        thetas, _theta_columns(prob, left), _theta_columns(prob, right)))
    return AdjointPair(prob.field(phi), theta_fields, iterations, residual)


def solve_adjoint(cfg: ScenarioConfig, phi_terminal: np.ndarray,
                  params: RobustParams) -> AdjointPair:
    """Picard iteration on the adjoint coupling from the terminal datum.

    phi solves backward with the theta source on the observation region(s);
    the theta component(s) solve forward driven by phi, with theta(0) = 0
    enforced exactly.
    """
    prob = build_problem(cfg, params)
    a = np.asarray(phi_terminal, dtype=float)
    if a.shape != (cfg.grid.n_interior,):
        raise ValueError(f"terminal datum must have {cfg.grid.n_interior} interior values")
    phi, thetas, iters, res, _, _ = picard_coupled(
        prob,
        lambda ths: _phi_backward(prob, ths, a),
        lambda ph: _theta_forward(prob, ph),
        prob.n_adjoints)
    return _adjoint_pair(prob, phi, thetas, iters, res)


def solve_adjoints(cfg: ScenarioConfig, terminals, params: RobustParams) -> list:
    """``solve_adjoint`` for k terminal data (k rows), one Picard iteration for all.

    The data are the trailing batch columns of every phi and theta march, so
    a sweep costs one batched march each way.  Each column stops on its own
    rule (``saddle._picard_columns``) and leaves the batch then; the i-th
    ``AdjointPair`` equals ``solve_adjoint`` of row i bit for bit.
    """
    prob = build_problem(cfg, params)
    data = np.asarray(terminals, dtype=float)
    if data.ndim != 2 or data.shape[1] != cfg.grid.n_interior:
        raise ValueError(f"terminal data must be rows of {cfg.grid.n_interior} interior values")
    columns = data.T
    runs = _picard_columns(
        prob,
        lambda ths, cols: _phi_backward(prob, ths, columns[:, cols]),
        lambda ph: _theta_forward(prob, ph),
        prob.n_adjoints, width=len(data))
    return [_adjoint_pair(prob, phi, thetas, iters, res)
            for phi, thetas, iters, res, _, _ in runs]


def observation(cfg: ScenarioConfig, pair: AdjointPair):
    """Leader control read off the adjoint pair.

    A: phi restricted to omega.  B/C/D: minus the (first-order) outward normal
    derivative of phi on the leader endpoint; the sign makes the Gram form the
    square of the observation.
    """
    if cfg.configuration == "A":
        vals = pair.phi.values.copy()
        mask = cfg.omega.interior_mask(cfg.grid)
        vals[:, 1:-1][:, ~mask] = 0.0
        vals[:, [0, -1]] = 0.0
        return SpaceTimeField(cfg.grid, cfg.tgrid, vals)
    side = cfg.leader_side()
    h = -normal_derivative_o1(pair.phi.interior, cfg.grid, side)
    return BoundaryTrace(cfg.tgrid, side, h)


def homogeneous_scenario(cfg: ScenarioConfig) -> ScenarioConfig:
    """Copy of the scenario with zero initial datum and zero target(s)."""
    zero_t = SpaceTimeField.zeros(cfg.grid, cfg.tgrid)
    return dataclasses.replace(
        cfg, y0=np.zeros(cfg.grid.n_interior), target=zero_t,
        target2=None if cfg.target2 is None else zero_t.copy())


def gram_apply(cfg: ScenarioConfig, phi_terminal: np.ndarray,
               params: RobustParams) -> np.ndarray:
    """One application of the HUM duality operator (H^1_0 Riesz representative).

    adjoint pair from the terminal datum -> leader control -> homogeneous
    optimality solve -> inverse-Laplacian lift of the terminal state.
    """
    pair = solve_adjoint(cfg, phi_terminal, params)
    leader = observation(cfg, pair)
    sol = solve_optimality(homogeneous_scenario(cfg), leader, params)
    return neg_laplacian_solve(sol.state.interior[-1], cfg.grid)


def _observed(cfg: ScenarioConfig, phi: np.ndarray) -> tuple:
    """(midpoint averages of the observation of phi, their quadrature weight).

    A: phi on omega; B/C/D: the normal derivative of phi on the leader
    endpoint.  The observation form is the weight times the sum of products.
    """
    grid, dt = cfg.grid, cfg.tgrid.dt
    if cfg.configuration == "A":
        return favg(phi)[:, cfg.omega.interior_mask(grid)], dt * grid.dx
    return favg(normal_derivative_o1(phi, grid, cfg.leader_side())), dt


def observation_pairing(cfg: ScenarioConfig, pa: AdjointPair, pb: AdjointPair) -> float:
    """The quadratic observation form: midpoint quadrature over omega or Gamma."""
    fa, weight = _observed(cfg, pa.phi.interior)
    fb, _ = _observed(cfg, pb.phi.interior)
    return float(weight * np.sum(fa * fb))


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
    serves a whole epsilon ladder.  The vectors are H^1_0-orthonormal (fully
    reorthogonalized) and each stored image is one real ``gram_apply``.  A
    solve reads the leading vectors it needs and extends the basis only when
    it runs out, so its result does not depend on what else was solved on the
    same basis.
    """

    def __init__(self, cfg: ScenarioConfig, params: RobustParams):
        self.cfg, self.params = cfg, params
        # the zero-leader follower equilibrium; b, the Riesz vector of the data
        # term, is the lift of its terminal state
        self.free = solve_optimality(cfg, None, params)
        self.b = neg_laplacian_solve(self.free.state.interior[-1], cfg.grid)
        self.bnorm = h10_norm(self.b, cfg.grid)
        self.vectors, self.images = [], []
        self.rhs = []           # <v_i, b>
        self.projected = []     # row i: <v_i, Gram v_j>, symmetrized, for j <= i
        self._next = None if self.bnorm == 0.0 else self.b / self.bnorm

    def __len__(self) -> int:
        return len(self.vectors)

    def extend(self) -> bool:
        """Add the next vector and its Gram image; False when the space is invariant."""
        if self._next is None:
            return False
        grid = self.cfg.grid
        v = self._next
        g = gram_apply(self.cfg, v, self.params)
        self.vectors.append(v)
        self.images.append(g)
        self.rhs.append(h10_inner(v, self.b, grid))
        self.projected.append([0.5 * (h10_inner(vi, g, grid) + h10_inner(v, gi, grid))
                               for vi, gi in zip(self.vectors, self.images)])
        w = g
        for _ in range(2):
            for vi in self.vectors:
                w = w - h10_inner(vi, w, grid) * vi
        wnorm = h10_norm(w, grid)
        if len(self.vectors) == grid.n_interior or wnorm <= _INVARIANT_TOL * h10_norm(g, grid):
            self._next = None
        else:
            self._next = w / wnorm
        return True

    def galerkin(self, k: int, eps: float) -> tuple:
        """(x, Gram x) of the Galerkin solution of (Gram + eps I) x = -b on k vectors."""
        a = np.empty((k, k))
        for i in range(k):
            a[i, :i + 1] = self.projected[i]
            a[:i, i] = a[i, :i]
            a[i, i] += eps
        if not a[k - 1, k - 1] > 0.0:
            raise ConvergenceError(
                f"Gram operator is not positive: Rayleigh quotient {a[k - 1, k - 1] - eps:.3g} "
                f"of basis vector {k} with eps={eps:.3g}")
        try:
            y = cho_solve(cho_factor(a, lower=True), -np.asarray(self.rhs[:k]))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"projected Gram matrix plus eps={eps:.3g} is not positive definite "
                f"on {k} basis vectors: {exc}") from exc
        return y @ np.array(self.vectors[:k]), y @ np.array(self.images[:k])


def hum_minimize(cfg: ScenarioConfig, params: RobustParams,
                 settings: HumSettings, basis: Optional[GramBasis] = None) -> HumResult:
    """Minimize the penalized HUM functional on a Krylov basis of the Gram operator.

    Solves (Gram + eps I) a = -b, where b is the Riesz vector of the data
    terms, by Galerkin projection on the leading vectors of ``basis`` (a new
    one when None); mathematically these are the conjugate-gradient iterates.
    Iteration k reads the explicit residual -b - Gram x - eps x off the
    stored images of the first k vectors and stops at ``cg_tol``.  The leader
    is reconstructed from the minimizer, and the terminal H^-1 residual is
    certified by a from-scratch solve of the full optimality system with the
    synthesized control, whose follower equilibrium the result keeps as
    ``controlled``.
    """
    if basis is None:
        basis = GramBasis(cfg, params)
    elif basis.cfg is not cfg or basis.params != params:
        raise ValueError("the Gram basis was built for another scenario or parameters")

    grid = cfg.grid
    n = grid.n_interior
    eps = settings.epsilon
    b, bnorm = basis.b, basis.bnorm
    if bnorm == 0.0:
        # solved with the zero leader, not read off basis.free (leader None):
        # adding a zero leader turns a -0.0 into 0.0, which prints differently
        zero_leader = observation(cfg, solve_adjoint(cfg, np.zeros(n), params))
        return HumResult(np.zeros(n), zero_leader, 0.0, 0.0, 0, 0.0, 0.0, eps, (),
                         solve_optimality(cfg, zero_leader, params))

    trace = []
    best = bnorm
    stagnant = 0
    for it in range(1, settings.cg_max_iters + 1):
        if it > len(basis) and not basis.extend():
            break   # invariant Krylov space: the last Galerkin solution is exact
        x, gx = basis.galerkin(it, eps)
        rnorm = h10_norm(-b - gx - eps * x, grid)
        fval = 0.5 * h10_inner(x, gx + eps * x, grid) + h10_inner(b, x, grid)
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
    else:
        raise ConvergenceError(
            f"conjugate gradient did not converge in {settings.cg_max_iters} iterations")

    # Gram x + b is the H10 lift of y(T), from the stored images
    internal = h10_norm(gx + b, grid)
    pair = solve_adjoint(cfg, x, params)
    leader = observation(cfg, pair)
    controlled = solve_optimality(cfg, leader, params)
    residual = hminus1_norm(controlled.state.interior[-1], grid)
    hnorm2 = observation_pairing(cfg, pair, pair)
    return HumResult(x, leader, residual, internal, len(trace), fval, hnorm2, eps, tuple(trace),
                     controlled)


def target_admissibility(cfg: ScenarioConfig):
    """Admissibility report of the scenario's target, or None when trivial."""
    if all(np.all(t.values == 0.0) for t in cfg.targets()):
        return None
    grid = cfg.grid
    masks = [reg.interior_mask(grid) for reg in cfg.observation_regions()]

    def ydfun(t):
        k = min(int(round(t / cfg.tgrid.dt)), cfg.tgrid.n_steps)
        return sum(float(np.sum(tgt.interior[k][mask] ** 2) * grid.dx)
                   for mask, tgt in zip(masks, cfg.targets()))

    return admissibility_check(cfg.configuration, cfg.wspec, cfg.eta(), ydfun)


@dataclass
class GradientCheckReport:
    directions: int
    steps: tuple
    max_relative_error: float
    quadratic_steps: tuple
    quadratic_spread: float   # spread of the central difference across steps
    passed: bool


def gradient_check(cfg: ScenarioConfig, params: RobustParams, settings: HumSettings,
                   phi_terminal: np.ndarray, n_directions: int = 10,
                   steps=(1e-4, 1e-5, 1e-6), quadratic_steps=(0.5, 0.1, 0.02),
                   seed: int = 0, tol: float = 1e-6,
                   directions=None) -> GradientCheckReport:
    """Assembled gradient of F_eps against central differences of the scalar.

    The gradient agreement is asserted across ``steps``.  F_eps is exactly
    quadratic, so the central difference carries no truncation error at any
    step; its step-independence is measured over ``quadratic_steps``, chosen
    large enough that the fixed-point solves' round-off floor (about
    tol/step relative) sits below the 1e-10 assertion level.  ``directions``
    overrides the seeded Gaussian sampling; a zero direction contributes
    zero to both sides.
    """
    grid = cfg.grid
    eps = settings.epsilon
    a = np.asarray(phi_terminal, dtype=float)
    b = GramBasis(cfg, params).b

    def fval(v):
        gv = gram_apply(cfg, v, params)
        return 0.5 * h10_inner(v, gv, grid) + h10_inner(b, v, grid) \
            + 0.5 * eps * h10_inner(v, v, grid)

    def central(d, h):
        return (fval(a + h * d) - fval(a - h * d)) / (2 * h)

    grad = gram_apply(cfg, a, params) + b + eps * a
    if directions is None:
        rng = np.random.default_rng(seed)
        directions = [rng.standard_normal(grid.n_interior) for _ in range(n_directions)]
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
        fd = [central(d, h) for h in steps]
        worst = max(worst, max(abs(f - exact) for f in fd) / scale)
        fq = [central(d, h) for h in quadratic_steps]
        spread = max(spread, (max(fq) - min(fq)) / scale)
    return GradientCheckReport(len(directions), tuple(steps), worst,
                               tuple(quadratic_steps), spread, worst <= tol)


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


def observability_probe(cfg: ScenarioConfig, params: RobustParams,
                        n_samples: int = 100, seed: int = 0) -> ProbeReport:
    """Sampled ratios of the observability inequality and the pencil's maximum.

    For H^1_0-normalized Gaussian terminal data a the ratio

        L(a, a) / O(a, a),  L = |phi(0)|_{H10}^2 + integral of rho^{-2} |theta|^2,
                            O = observation(a, a),

    is degree-0 homogeneous.  Both forms are quadratic in a, so they are
    assembled once, as m x m matrices, from the adjoint pairs of the first
    m = min(n_interior, n_samples) samples.  Those pairs are solved as the
    columns of ``solve_adjoints``, in blocks of ``saddle._block_width``
    columns; each block's rows are kept and its pairs dropped before the
    next block.  A sample's ratio is c L c / c O c, with c a unit vector for
    the first m samples and the sample's coordinates in them for a later
    one.  Samples with a vanishing observation are skipped.  ``spectrum``
    holds the pencil maximum on O's leading k eigenvectors for every k
    (``_pencil_spectrum``); ``refined_max`` is its value at the last mode
    above ``_OBSERVED_CUT`` times O's largest eigenvalue, floored at the
    sampled maximum.
    """
    if n_samples < 1:
        raise ConvergenceError(f"the probe needs at least one sample, got {n_samples}")
    grid, tgrid = cfg.grid, cfg.tgrid
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n_samples):
        a = rng.standard_normal(grid.n_interior)
        data.append(a / h10_norm(a, grid))
    m = min(grid.n_interior, n_samples)

    # one row per solved sample: the H10 differences of phi(0), the midpoint
    # averages of each theta and of the observation
    d0, thetas, obs = [], [], []
    width = _block_width(cfg)
    for start in range(0, m, width):
        pairs = solve_adjoints(cfg, data[start:min(start + width, m)], params)
        for pair in pairs:
            d0.append(np.diff(pair.phi.interior[0], prepend=0.0, append=0.0))
            thetas.append([favg(th.interior).ravel() for th in pair.thetas])
            observed, weight = _observed(cfg, pair.phi.interior)
            obs.append(observed.ravel())
        del pairs   # release this block's fields before solving the next
    d0, obs = np.array(d0), np.array(obs)
    w_inv = np.repeat(target_weight_inv_sq(cfg.configuration, cfg.wspec, cfg.eta(),
                                           tgrid.midpoint_times()), grid.n_interior)
    lhs = d0 @ d0.T / grid.dx
    for th in map(np.array, zip(*thetas)):
        lhs += tgrid.dt * grid.dx * ((th * w_inv) @ th.T)
    obs_form = weight * (obs @ obs.T)

    coords = np.eye(m)
    if n_samples > m:
        later = np.linalg.solve(np.array(data[:m]).T, np.array(data[m:]).T)
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

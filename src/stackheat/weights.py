"""Exponential space-time weights used in the observability machinery.

Everything here evaluates Carleman-type weights exactly, in log space where
the dynamic range requires it: near the ends of the time interval the weights
span hundreds of orders of magnitude, so quantities like rho_star**(-2) are
computed directly from the exponent (never by squaring or inverting a huge
value), underflow to an exact 0.0, and blow-ups saturate at CAP = 1e300 with
a flag instead of returning inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import LEFT, RIGHT, SpatialGrid

CAP = 1e300
_LOG_CAP = math.log(CAP)
_GROWTH_TOL = 1.05  # admissible growth of the weighted target integral per refinement
_REFINEMENTS = (64, 128, 256)  # midpoint counts of the admissibility quadrature's time grids


@dataclass(frozen=True)
class WeightSpec:
    """Parameters (lambda, s, m) of the weight family plus the horizon."""

    lam: float = 1.0
    s: float = 1.0
    m: int = 4
    horizon: float = 1.0

    def __post_init__(self):
        if self.lam < 1.0:
            raise ValueError(f"lambda must be >= 1, got {self.lam}")
        if not self.s > 0:
            raise ValueError(f"s must be positive, got {self.s}")
        if int(self.m) != self.m or self.m < 2:
            raise ValueError(f"m must be an integer >= 2, got {self.m}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


def _smoothstep(sigma):
    """C^2 quintic step: 0 -> 1 with vanishing first and second derivatives."""
    sigma = np.clip(sigma, 0.0, 1.0)
    return sigma ** 3 * (10.0 - 15.0 * sigma + 6.0 * sigma ** 2)


@dataclass(frozen=True)
class Eta0:
    """Profile positive in the domain and vanishing on the designated boundary part.

    1D adaptation: with the set {left}, eta(x) = x(2L-x)/L^2, whose derivative
    vanishes only at the far endpoint; with both endpoints, 4x(L-x)/L^2 with
    the gradient zero at the midpoint (the interior patch).
    """

    length: float
    vanishing: tuple = (LEFT,)

    def __post_init__(self):
        if not set(self.vanishing) <= {LEFT, RIGHT} or not self.vanishing:
            raise ValueError(f"vanishing set must be a nonempty subset of sides, got {self.vanishing}")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        L = self.length
        if self.vanishing == (LEFT,):
            v = x * (2 * L - x) / L ** 2
        elif self.vanishing == (RIGHT,):
            v = (L - x) * (L + x) / L ** 2
        else:
            v = 4.0 * x * (L - x) / L ** 2
        return v if v.ndim else float(v)

    @property
    def sup(self) -> float:
        return 1.0

    @property
    def min_value(self) -> float:
        return 0.0

    def gradient_zero(self) -> float:
        """Location of the single critical point (the 1D interior patch)."""
        if self.vanishing == (LEFT,):
            return self.length
        if self.vanishing == (RIGHT,):
            return 0.0
        return 0.5 * self.length

    def check(self, grid: SpatialGrid) -> list:
        problems = []
        x = grid.interior_nodes()
        if np.any(self.value(x) <= 0):
            problems.append("eta0 not positive at some interior node")
        for side in self.vanishing:
            xb = 0.0 if side == LEFT else self.length
            if abs(self.value(xb)) > 1e-14:
                problems.append(f"eta0 does not vanish at the {side} endpoint")
        x0 = self.gradient_zero()
        away = x[np.abs(x - x0) > 1.5 * grid.dx]
        d = (self.value(away + 1e-7) - self.value(away - 1e-7)) / 2e-7
        if np.any(np.abs(d) <= 0):
            problems.append("eta0 gradient vanishes outside the declared patch")
        return problems


@dataclass(frozen=True)
class EtaPair:
    """Pair (eta1, eta2), both positive and strictly monotone, built so that
    eta1 >= eta2 everywhere, eta1 = eta2 on the observation interval and
    eta1 >= max over the control/disturbance closures of eta2 there.

    ``side`` is the boundary part the leader observes from; ``b`` is the far
    end of the control/disturbance intervals attached to that side; ``c`` is
    the near end of the observation interval (b < c).
    """

    length: float
    b: float
    c: float
    side: str = LEFT

    def __post_init__(self):
        if not 0 < self.b < self.c < self.length:
            raise ValueError(
                f"need 0 < b < c < L for the pair construction, got b={self.b}, c={self.c}")
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"unknown side {self.side!r}")

    def _s(self, x):
        """Distance-from-the-leader coordinate in [0, L]."""
        x = np.asarray(x, dtype=float)
        return x if self.side == LEFT else self.length - x

    @property
    def bump_amplitude(self) -> float:
        gap = _smoothstep((self.c - self.b) / self.c)
        return 2.0 * (self.b / self.length) / gap

    def value2(self, x):
        v = 2.0 - self._s(x) / self.length
        return v if np.ndim(v) else float(v)

    def value1(self, x):
        s = self._s(x)
        bump = self.bump_amplitude * _smoothstep((self.c - s) / self.c)
        v = 2.0 - s / self.length + np.where(s < self.c, bump, 0.0)
        return v if np.ndim(v) else float(v)

    @property
    def sup1(self) -> float:
        return 2.0 + self.bump_amplitude

    @property
    def sup2(self) -> float:
        return 2.0

    @property
    def min2(self) -> float:
        return 1.0

    def check(self, grid: SpatialGrid, obs_interval=None, control_intervals=()) -> list:
        problems = []
        x = np.concatenate(([0.0], grid.interior_nodes(), [self.length]))
        e1, e2 = self.value1(x), self.value2(x)
        if np.any(e1 <= 0) or np.any(e2 <= 0):
            problems.append("eta pair not positive at some node")
        if np.any(e1 < e2 - 1e-12):
            problems.append("eta1 < eta2 at some node")
        h = 1e-7
        for name, f in (("eta1", self.value1), ("eta2", self.value2)):
            d = (f(grid.interior_nodes() + h) - f(grid.interior_nodes() - h)) / (2 * h)
            if np.any(np.abs(d) < 1e-12):
                problems.append(f"{name} gradient vanishes at some interior node")
        if obs_interval is not None:
            a, bb = obs_interval
            mask = (x >= a - 1e-12) & (x <= bb + 1e-12)
            if np.any(np.abs(e1[mask] - e2[mask]) > 1e-12):
                problems.append("eta1 != eta2 on the observation interval")
        for a, bb in control_intervals:
            mask = (x >= a - 1e-12) & (x <= bb + 1e-12)
            if mask.any() and np.any(e1[mask] < e2[mask].max() - 1e-12):
                problems.append("eta1 below max of eta2 on a control interval")
        return problems


@dataclass(frozen=True)
class EtaBar:
    """Strictly monotone positive profile; only its sup and min enter rho_star."""

    length: float
    side: str = LEFT

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s = x if self.side == LEFT else self.length - x
        v = 2.0 - s / self.length
        return v if v.ndim else float(v)

    @property
    def sup(self) -> float:
        return 2.0

    @property
    def min_value(self) -> float:
        return 1.0


# --- the time profile l(t) and its truncations ------------------------------

def l_of_t(t, T: float):
    """Positive C^2 time profile: equals t near 0, T - t near T, peaks at 5T/16.

    Between T/4 and 3T/8 a monotone quartic blend joins the linear ramp to the
    plateau l = 5T/16 that covers [3T/8, 5T/8]; the construction is symmetric
    about T/2, so the maximum l(T/2) = 5T/16 bounds the profile.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-15) or np.any(t > T + 1e-15):
        raise ValueError("t outside [0, T]")
    tau = np.minimum(t, T - t)
    sigma = np.clip((tau - T / 4.0) / (T / 8.0), 0.0, 1.0)
    blend = T / 4.0 + T * (sigma / 8.0 - sigma ** 3 / 8.0 + sigma ** 4 / 16.0)
    out = np.where(tau <= T / 4.0, tau, np.where(tau <= 3.0 * T / 8.0, blend, 5.0 * T / 16.0))
    return out if out.ndim else float(out)


def lbar_of_t(t, T: float):
    """Truncation of l: constant max value on [0, T/2], l(t) afterwards."""
    t = np.asarray(t, dtype=float)
    out = np.where(t <= T / 2.0, 5.0 * T / 16.0, l_of_t(np.maximum(t, T / 2.0), T))
    return out if out.ndim else float(out)


def _quartic_den(t, T):
    t = np.asarray(t, dtype=float)
    return (t * (T - t)) ** 2


def _quartic_den_trunc(t, T):
    t = np.asarray(t, dtype=float)
    out = np.where(t <= T / 2.0, T ** 4 / 16.0, _quartic_den(np.minimum(np.maximum(t, T / 2.0), T), T))
    return out if out.ndim else float(out)


def _capped_ratio(num, den):
    """num/den saturated at CAP; den == 0 maps to CAP."""
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.where(den > 0, num / np.maximum(den, 1e-320), np.inf)
    sat = ~(ratio < CAP)
    return np.where(sat, CAP, ratio), sat


def _capped_exp(expo):
    """exp(expo) saturated exactly at CAP."""
    expo = np.asarray(expo, dtype=float)
    with np.errstate(over="ignore"):
        out = np.where(expo >= _LOG_CAP, CAP, np.exp(np.minimum(expo, _LOG_CAP)))
    return out


@dataclass(frozen=True)
class AlphaXi:
    alpha: float
    xi: float
    alpha_star: float
    xi_star: float
    saturated: bool


@dataclass(frozen=True)
class BetaPhi:
    beta: float
    phi: float
    beta_star: float
    phi_star: float
    saturated: bool


def _pointwise_weights(spec: WeightSpec, eta, x: float, den) -> tuple:
    """(weight, xi, weight_star, xi_star, saturated) for one time denominator."""
    e_sup = math.exp(2.0 * spec.lam * eta.sup)
    e_here = math.exp(spec.lam * eta.value(x))
    e_min = math.exp(spec.lam * eta.min_value)
    a, sa = _capped_ratio(e_sup - e_here, den)
    xi, sx = _capped_ratio(e_here, den)
    a_star, ss = _capped_ratio(e_sup - e_min, den)
    xi_star, sm = _capped_ratio(e_min, den)
    return float(a), float(xi), float(a_star), float(xi_star), bool(sa | sx | ss | sm)


def alpha_xi(spec: WeightSpec, eta: Eta0, x: float, t: float) -> AlphaXi:
    """Pointwise weights (alpha, xi) plus their extremal envelopes in space.

    alpha_star is realized at the node minimizing eta0 and so is xi_star.
    Undefined at t = 0 and t = T; near those ends the values saturate at CAP
    with the flag raised.
    """
    T = spec.horizon
    if t <= 0.0 or t >= T:
        raise ValueError(f"alpha/xi weights are undefined at t={t}; use interior times")
    return AlphaXi(*_pointwise_weights(spec, eta, x, l_of_t(t, T) ** spec.m))


def beta_weights(spec: WeightSpec, eta: Eta0, x: float, t: float) -> BetaPhi:
    """Truncated weights built with the lbar profile: finite at t = 0."""
    T = spec.horizon
    if t >= T:
        raise ValueError(f"beta weights are undefined at t={t} >= T")
    if t < 0:
        raise ValueError("t before 0")
    return BetaPhi(*_pointwise_weights(spec, eta, x, lbar_of_t(t, T) ** spec.m))


def section3_weights(spec: WeightSpec, pair: EtaPair, x: float, t: float):
    """The two-profile weights (alpha~_i, xi~_i) with the t^2(T-t)^2 denominator.

    Returns (alpha1, alpha2, xi1, xi2) and enforces the pointwise ordering
    xi2 <= xi1 and alpha1 <= alpha2 that the pair construction guarantees.
    """
    T = spec.horizon
    if t <= 0.0 or t >= T:
        raise ValueError(f"weights undefined at t={t}")
    den = float(_quartic_den(t, T))
    e_top = math.exp(spec.lam * (pair.sup1 + pair.sup2))
    e1 = math.exp(spec.lam * pair.value1(x))
    e2 = math.exp(spec.lam * pair.value2(x))
    a1, _ = _capped_ratio(e_top - e1, den)
    a2, _ = _capped_ratio(e_top - e2, den)
    x1, _ = _capped_ratio(e1, den)
    x2, _ = _capped_ratio(e2, den)
    if not (x2 <= x1 * (1 + 1e-12) and a1 <= a2 * (1 + 1e-12)):
        raise ValueError("eta pair violates the weight ordering; check the pair invariants")
    return float(a1), float(a2), float(x1), float(x2)


def _log_weight(spec: WeightSpec, num: float, den):
    """s * num / den; +inf where the denominator vanishes."""
    den = np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        expo = np.where(den > 0, spec.s * num / np.maximum(den, 1e-320), np.inf)
    return expo if expo.ndim else float(expo)


def _exp_neg(expo, k: float):
    """exp(-k * expo) computed from the exponent; exact 0 where expo is +inf or on underflow."""
    expo = np.asarray(expo, dtype=float)
    with np.errstate(under="ignore"):
        out = np.where(np.isinf(expo), 0.0, np.exp(-np.minimum(k * expo, 746.0)))
    return out if out.ndim else float(out)


def _alpha_bar_star_exponent(spec: WeightSpec, eta_bar: EtaBar, t):
    """s * alpha_bar_star(t); +inf where the denominator vanishes."""
    num = math.exp(2.0 * spec.lam * eta_bar.sup) - math.exp(spec.lam * eta_bar.min_value)
    return _log_weight(spec, num, _quartic_den(t, spec.horizon))


def rho_star(spec: WeightSpec, eta_bar: EtaBar, t):
    """exp(s * alpha_bar_star / 2), saturated at CAP near the ends."""
    expo = np.asarray(_alpha_bar_star_exponent(spec, eta_bar, t), dtype=float)
    out = _capped_exp(expo / 2.0)
    return out if out.ndim else float(out)


def rho_star_inv_sq(spec: WeightSpec, eta_bar: EtaBar, t):
    """exp(-s * alpha_bar_star), computed from the exponent; exact 0 on underflow."""
    return _exp_neg(_alpha_bar_star_exponent(spec, eta_bar, t), 1.0)


def rho_star_log(spec: WeightSpec, eta_bar: EtaBar, t):
    """log rho_star**2 = s * alpha_bar_star; +inf at t in {0, T}."""
    return _alpha_bar_star_exponent(spec, eta_bar, t)


def _target_exponent(configuration: str, spec: WeightSpec, eta, t):
    """log of the target-admissibility weight for each configuration; D shares C's."""
    T = spec.horizon
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr >= T):
        raise ValueError("target weight undefined at t = T")
    if configuration == "B":
        num = math.exp(spec.lam * (eta.sup1 + eta.sup2)) - math.exp(spec.lam * eta.min2)
        return _log_weight(spec, num, _quartic_den_trunc(t_arr, T))
    if configuration == "A":
        den = np.asarray(lbar_of_t(t_arr, T), dtype=float) ** spec.m
    elif configuration in ("C", "D"):
        den = _quartic_den_trunc(t_arr, T)
    else:
        raise ValueError(f"target weight defined for configurations A-D, got {configuration!r}")
    num = math.exp(2.0 * spec.lam * eta.sup) - math.exp(spec.lam * eta.min_value)
    return _log_weight(spec, num, den)


def target_weight(configuration: str, spec: WeightSpec, eta, t):
    """The weight multiplying the target in the admissibility integral.

    Finite and constant on [0, T/2], blowing up (saturated at CAP) as t -> T.
    """
    expo = np.asarray(_target_exponent(configuration, spec, eta, t), dtype=float)
    out = _capped_exp(expo)
    return out if out.ndim else float(out)


def target_weight_inv_sq(configuration: str, spec: WeightSpec, eta, t):
    """Companion exp(-2 * log target), exact 0 on underflow."""
    return _exp_neg(_target_exponent(configuration, spec, eta, t), 2.0)


@dataclass(frozen=True)
class AdmissibilityReport:
    values: tuple
    ratios: tuple
    admissible: bool


def admissibility_check(configuration: str, spec: WeightSpec, eta, ydfun,
                        refinements=_REFINEMENTS) -> AdmissibilityReport:
    """Numerically probe the weighted integral of the squared target in time.

    ``ydfun(t)`` returns the squared spatial L2 norm of the target over the
    observation region at time t.  The integral is evaluated by midpoint
    quadrature on successively refined time grids, entirely in log space so
    that the weight's blow-up is not masked by saturation; growth under
    refinement flags an inadmissible target.  A polynomial-in-(T-t) tail can
    never beat the exponential blow-up of the weight, so such targets are
    reported as inadmissible rather than assigned a finite threshold.
    ``ydfun`` is sampled point by point; ``_admissibility`` does the rest.
    """
    return _admissibility(configuration, spec, eta,
                          lambda tm: [float(ydfun(t)) for t in tm], refinements)


def _logsumexp(a: np.ndarray):
    """log(sum(exp(a))) of a nonempty real vector: ``scipy.special.logsumexp``'s algorithm.

    The m entries tied at the maximum are taken out of the sum and the rest
    shifted by it, s = sum(exp(a - max)) / m, so the value is
    log1p(s) + log(m) + max.  Where that is not finite (an infinite or nan
    maximum, or every entry -inf) it is log(sum(exp(a))) instead.  The same
    numpy operations in the same order, so the bits of scipy's value,
    without its array-API dispatch or the import of ``scipy.special``.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a)
        ties = a == top
        s = np.sum(np.exp(np.where(ties, -np.inf, a) - top))
        m = float(np.count_nonzero(ties))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + top
        return out if np.isfinite(out) else np.log(np.sum(np.exp(a)))


def _admissibility(configuration: str, spec: WeightSpec, eta, profile,
                   refinements=_REFINEMENTS) -> AdmissibilityReport:
    """``admissibility_check`` of ``profile(tm)``: the squared norms at the midpoints ``tm``."""
    T = spec.horizon
    log_vals = []
    for n in refinements:
        tm = (np.arange(n) + 0.5) * (T / n)
        expo = np.asarray(_target_exponent(configuration, spec, eta, tm), dtype=float)
        y2 = np.maximum(np.asarray(profile(tm), dtype=float), 0.0)
        with np.errstate(divide="ignore"):
            logy = np.where(y2 > 0, np.log(np.maximum(y2, 1e-320)), -np.inf)
        logterm = 2.0 * expo + logy
        logterm = np.where(np.isnan(logterm), -np.inf, logterm)  # 0 * inf tail
        log_vals.append(float(_logsumexp(logterm) + math.log(T / n)))
    ratios = tuple(math.exp(min(b - a, _LOG_CAP)) if np.isfinite(a) or np.isfinite(b)
                   else 1.0 for a, b in zip(log_vals, log_vals[1:]))
    admissible = all(r <= _GROWTH_TOL for r in ratios)
    values = tuple(float(_capped_exp(v)) if np.isfinite(v) else 0.0 for v in log_vals)
    return AdmissibilityReport(values, ratios, admissible)

"""Weight functions: pinned values, orderings, saturation and admissibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackheat.grids import LEFT, RIGHT, SpatialGrid
from stackheat.weights import (CAP, AdmissibilityReport, Eta0, EtaBar, EtaPair,
                               WeightSpec, admissibility_check, alpha_xi,
                               beta_weights, l_of_t, rho_star,
                               rho_star_inv_sq, section3_weights, target_weight,
                               target_weight_inv_sq)


@pytest.mark.parametrize("T", [1.0, 0.5, 3.0])
def test_l_profile_pinned_values(T):
    assert l_of_t(T / 8, T) == pytest.approx(T / 8, rel=1e-14)
    assert l_of_t(7 * T / 8, T) == pytest.approx(T / 8, rel=1e-14)
    assert l_of_t(T / 2, T) == pytest.approx(5 * T / 16, rel=1e-14)


def test_l_profile_bounded_positive_and_symmetric():
    T = 1.0
    t = np.linspace(0, T, 4001)
    vals = l_of_t(t, T)
    assert np.all(vals <= 5 * T / 16 + 1e-14)
    assert np.all(vals[1:-1] > 0)
    assert np.allclose(vals, l_of_t(T - t, T)[()], atol=1e-14)


def test_l_profile_c2_joins():
    # second differences stay bounded through the joins at T/4 and 3T/8
    T, h = 1.0, 1e-5
    for t0 in (0.25, 0.375, 0.625, 0.75):
        d2 = (l_of_t(t0 + h, T) - 2 * l_of_t(t0, T) + l_of_t(t0 - h, T)) / h ** 2
        assert abs(d2) < 50.0


def test_l_out_of_range_rejected():
    with pytest.raises(ValueError):
        l_of_t(-0.1, 1.0)
    with pytest.raises(ValueError):
        l_of_t(1.2, 1.0)


def test_alpha_direct_value():
    # lambda=1, sup eta = 1, l = 1, eta(x) = 0 -> alpha = e^2 - 1
    spec = WeightSpec(lam=1.0, s=1.0, m=4, horizon=1.0)
    eta = Eta0(length=1.0, vanishing=(LEFT,))
    w = alpha_xi(spec, eta, 0.0, 0.5)
    den = l_of_t(0.5, 1.0) ** 4
    assert w.alpha == pytest.approx((math.e ** 2 - 1.0) / den, rel=1e-12)
    assert w.xi == pytest.approx(1.0 / den, rel=1e-12)


def test_alpha_star_is_max_over_nodes():
    spec = WeightSpec()
    eta = Eta0(length=1.0)
    grid = SpatialGrid(30)
    t = 0.37
    vals = [alpha_xi(spec, eta, x, t).alpha for x in grid.nodes()]
    w = alpha_xi(spec, eta, 0.0, t)
    assert max(vals) == pytest.approx(w.alpha_star, rel=1e-12)
    assert all(v <= w.alpha_star * (1 + 1e-12) for v in vals)


def test_alpha_xi_on_gamma_is_inverse_l_power():
    spec = WeightSpec(m=3)
    eta = Eta0(length=1.0, vanishing=(LEFT,))
    t = 0.21
    w = alpha_xi(spec, eta, 0.0, t)
    assert w.xi == pytest.approx(1.0 / l_of_t(t, 1.0) ** 3, rel=1e-12)


def test_alpha_equals_alpha_star_on_vanishing_boundary():
    spec = WeightSpec()
    eta = Eta0(length=1.0, vanishing=(LEFT,))
    w = alpha_xi(spec, eta, 0.0, 0.4)
    assert w.alpha == pytest.approx(w.alpha_star, rel=1e-14)


def test_alpha_rejects_endpoint_times():
    spec = WeightSpec()
    eta = Eta0(length=1.0)
    for t in (0.0, 1.0):
        with pytest.raises(ValueError):
            alpha_xi(spec, eta, 0.5, t)


def test_beta_constant_on_first_half_and_below_alpha():
    spec = WeightSpec()
    eta = Eta0(length=1.0)
    b0 = beta_weights(spec, eta, 0.3, 0.0)
    for t in np.linspace(0.0, 0.5, 21):
        b = beta_weights(spec, eta, 0.3, t)
        assert b.beta == pytest.approx(b0.beta, rel=1e-14)
        assert b.phi == pytest.approx(b0.phi, rel=1e-14)
    for t in np.linspace(0.01, 0.99, 37):
        a = alpha_xi(spec, eta, 0.3, t)
        b = beta_weights(spec, eta, 0.3, t)
        assert b.beta <= a.alpha * (1 + 1e-12)


def test_beta_saturates_near_terminal_time():
    # with a high power m the denominator underflows before t reaches T
    spec = WeightSpec(m=30)
    eta = Eta0(length=1.0)
    b = beta_weights(spec, eta, 0.5, 1.0 - 1e-12)
    assert b.saturated and b.beta == CAP
    with pytest.raises(ValueError):
        beta_weights(spec, eta, 0.5, 1.0)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(0.05, 0.95), t=st.floats(0.05, 0.95))
def test_exp_decay_strictly_decreasing_in_s(x, t):
    eta = Eta0(length=1.0)
    vals = []
    for s in (1.0, 2.0, 4.0):
        spec = WeightSpec(s=s)
        a = alpha_xi(spec, eta, x, t).alpha
        vals.append(math.exp(-min(2 * s * a, 700.0)))
    assert vals[0] > vals[1] > vals[2] or vals[0] < 1e-300


def test_section3_pair_invariants_and_values():
    pair = EtaPair(length=1.0, b=0.3, c=0.6)
    grid = SpatialGrid(64)
    assert pair.check(grid, obs_interval=(0.6, 0.9),
                      control_intervals=((0.0, 0.3), (0.0, 0.25))) == []
    spec = WeightSpec()
    # denominator at T=1, t=1/2 is 1/16
    a1, a2, x1, x2 = section3_weights(spec, pair, 0.7, 0.5)
    e_top = math.exp(pair.sup1 + pair.sup2)
    assert a1 == pytest.approx((e_top - math.exp(pair.value1(0.7))) * 16.0, rel=1e-12)
    # equality on the observation region, strict ordering where eta1 > eta2
    assert a1 == pytest.approx(a2, rel=1e-12)
    b1, b2, _, _ = section3_weights(spec, pair, 0.1, 0.5)
    assert b1 < b2


def test_rho_star_endpoints_and_symmetry():
    spec = WeightSpec()
    eta = EtaBar(length=1.0)
    assert rho_star_inv_sq(spec, eta, 0.0) == 0.0
    assert rho_star_inv_sq(spec, eta, 1.0) == 0.0
    t = np.linspace(0.05, 0.95, 19)
    assert np.allclose(rho_star_inv_sq(spec, eta, t), rho_star_inv_sq(spec, eta, 1.0 - t),
                       rtol=1e-12, atol=0.0)
    mid = rho_star(spec, eta, 0.5)
    num = math.exp(2 * spec.lam * eta.sup) - math.exp(spec.lam * eta.min_value)
    assert mid == pytest.approx(math.exp(spec.s * num * 16.0 / 2.0), rel=1e-12)
    assert np.isfinite(mid)


def test_rho_star_inv_sq_exact_zero_in_outer_two_percent():
    spec = WeightSpec()
    eta = EtaBar(length=1.0)
    for t in (0.005, 0.02, 0.98, 0.995):
        assert rho_star_inv_sq(spec, eta, t) == 0.0


def test_target_weight_constant_early_blows_up_late():
    spec = WeightSpec()
    eta = Eta0(length=1.0)
    v0 = target_weight("A", spec, eta, 0.0)
    for t in np.linspace(0.0, 0.5, 11):
        assert target_weight("A", spec, eta, t) == pytest.approx(v0, rel=1e-14)
    assert target_weight("A", spec, eta, 1.0 - 1e-9) == CAP
    with pytest.raises(ValueError):
        target_weight("A", spec, eta, 1.0)
    assert target_weight_inv_sq("A", spec, eta, 1.0 - 1e-12) == 0.0


def test_target_weight_config_b_and_c():
    spec = WeightSpec()
    pair = EtaPair(length=1.0, b=0.3, c=0.6)
    v = target_weight("B", spec, pair, 0.25)
    num = math.exp(pair.sup1 + pair.sup2) - math.exp(pair.min2)
    assert v == pytest.approx(math.exp(min(spec.s * num * 16.0, 690.0)), rel=1e-10) or v == CAP
    eta = EtaBar(length=1.0)
    assert target_weight("C", spec, eta, 0.1) == target_weight("C", spec, eta, 0.4)


def test_admissibility_flags_polynomial_tail_and_accepts_cutoff():
    spec = WeightSpec()
    eta = Eta0(length=1.0)
    poly = admissibility_check("A", spec, eta, lambda t: (1.0 - t) ** 12,
                               refinements=(32, 64, 128))
    assert not poly.admissible
    # supported where the weight is still constant -> quadrature stabilizes
    cut = admissibility_check("A", spec, eta,
                              lambda t: 1.0 if t < 0.5 else 0.0,
                              refinements=(32, 64, 128))
    assert cut.admissible
    assert isinstance(poly, AdmissibilityReport)


def test_no_weight_ever_returns_nan_or_inf():
    spec = WeightSpec(s=5.0, lam=2.0)
    eta = Eta0(length=1.0)
    ebar = EtaBar(length=1.0)
    ts = np.linspace(1e-9, 1.0 - 1e-9, 101)
    for t in ts:
        w = alpha_xi(spec, eta, 0.5, float(t))
        assert np.isfinite([w.alpha, w.xi, w.alpha_star, w.xi_star]).all()
    assert np.all(np.isfinite(rho_star(spec, ebar, ts)))
    assert np.all(np.isfinite(rho_star_inv_sq(spec, ebar, ts)))


def test_eta0_profiles():
    for sides in ((LEFT,), (RIGHT,), (LEFT, RIGHT)):
        eta = Eta0(length=2.0, vanishing=sides)
        assert eta.check(SpatialGrid(40, 2.0)) == []


def _logsumexp_cases():
    """Random vectors of several scales, with ties, with -inf entries and with
    one +inf, -inf or nan entry, plus constant vectors of each special value."""
    rng = np.random.default_rng(0)
    cases = []
    for n in (1, 2, 3, 64, 128, 256):
        for _ in range(20):
            cases.append(rng.standard_normal(n) * rng.choice([1e-3, 1.0, 50.0, 800.0]))
            cases.append(np.round(rng.standard_normal(n) * 3.0))   # ties at the maximum
            holes = rng.standard_normal(n) * 300.0
            holes[rng.integers(0, n, size=max(1, n // 3))] = -np.inf
            cases.append(holes)
            special = rng.standard_normal(n)
            special[rng.integers(0, n)] = rng.choice([np.inf, -np.inf, np.nan])
            cases.append(special)
        cases += [np.full(n, v) for v in (-np.inf, np.inf, np.nan, 0.0, 2.5, 710.0, -745.0)]
    return cases


def test_logsumexp_port_has_the_bits_of_scipys():
    # the admissibility quadrature's logsumexp is a numpy port of scipy's
    # algorithm for real input: the same value, nan payload and type
    from scipy.special import logsumexp

    from stackheat.weights import _logsumexp

    for a in _logsumexp_cases():
        ours, theirs = _logsumexp(a), logsumexp(a)
        assert type(ours) is type(theirs) and ours.tobytes() == theirs.tobytes(), a

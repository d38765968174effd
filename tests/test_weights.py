"""Weight functions: pinned values, orderings, saturation and admissibility."""

import math

import numpy as np
import pytest

from stackheat.grids import LEFT, RIGHT, SpatialGrid
from stackheat.weights import (CAP, AdmissibilityReport, Eta0, EtaBar, EtaPair,
                               WeightSpec, admissibility_check, l_of_t, lbar_of_t,
                               rho_star_inv_sq, rho_star_log, target_weight,
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


def test_lbar_is_the_maximum_of_l_on_the_first_half_and_l_after():
    # the truncated profile, so the truncated weights are constant on [0, T/2]
    # and never above the untruncated ones
    T = 1.0
    t = np.linspace(0.0, T, 401)
    lbar = lbar_of_t(t, T)
    assert np.all(lbar[t <= T / 2] == 5 * T / 16)
    assert np.array_equal(lbar[t >= T / 2], l_of_t(t[t >= T / 2], T))
    assert np.all(lbar >= l_of_t(t, T))


def test_section3_pair_invariants_and_values():
    pair = EtaPair(length=1.0, b=0.3, c=0.6)
    grid = SpatialGrid(64)
    assert pair.check(grid, obs_interval=(0.6, 0.9),
                      control_intervals=((0.0, 0.3), (0.0, 0.25))) == []
    # equality on the observation interval, strict ordering inside the bump
    x = np.linspace(0.6, 0.9, 31)
    assert np.array_equal(pair.value1(x), pair.value2(x))
    assert pair.value1(0.1) > pair.value2(0.1)


def test_eta_pair_check_reports_each_broken_hypothesis():
    pair, grid = EtaPair(length=1.0, b=0.3, c=0.6), SpatialGrid(64)
    assert pair.check(grid, obs_interval=(0.5, 0.9)) == [
        "eta1 != eta2 on the observation interval"]
    assert pair.check(grid, control_intervals=((0.0, 0.5),)) == [
        "eta1 below max of eta2 on a control interval"]
    with pytest.raises(ValueError):
        EtaPair(length=1.0, b=0.6, c=0.3)


def test_rho_star_endpoints_and_symmetry():
    spec = WeightSpec()
    eta = EtaBar(length=1.0)
    assert rho_star_inv_sq(spec, eta, 0.0) == 0.0
    assert rho_star_inv_sq(spec, eta, 1.0) == 0.0
    t = np.linspace(0.05, 0.95, 19)
    assert np.all(rho_star_inv_sq(spec, eta, t) == 0.0)
    # at s = 0.002 rho_star^-2 is live at every t of the grid, and symmetric
    live = WeightSpec(s=0.002)
    values = rho_star_inv_sq(live, eta, t)
    assert np.count_nonzero(values) > 0
    assert np.allclose(values, rho_star_inv_sq(live, eta, 1.0 - t), rtol=1e-12, atol=0.0)
    # at the default s rho_star^-2 underflows to 0 at every t here, so its
    # exponent carries the symmetry and the midpoint value
    assert np.allclose(rho_star_log(spec, eta, t), rho_star_log(spec, eta, 1.0 - t),
                       rtol=1e-12, atol=0.0)
    num = math.exp(2 * spec.lam * eta.sup) - math.exp(spec.lam * eta.min_value)
    assert rho_star_log(spec, eta, 0.5) == pytest.approx(spec.s * num * 16.0, rel=1e-12)


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
    ebar = EtaBar(length=1.0)
    ts = np.linspace(1e-9, 1.0 - 1e-9, 101)
    # s = 5 underflows to 0 at every t; s = 0.002 reaches the finite branch
    assert np.all(rho_star_inv_sq(WeightSpec(s=5.0, lam=2.0), ebar, ts) == 0.0)
    values = rho_star_inv_sq(WeightSpec(s=0.002, lam=2.0), ebar, ts)
    assert np.all(np.isfinite(values)) and np.count_nonzero(values) > 0


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

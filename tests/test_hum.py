"""HUM machinery: adjoint pairs, Gram duality, CG minimization, probe."""

import numpy as np
import pytest

from stackheat import hum as hum_module
from stackheat.errors import ConvergenceError
from stackheat.hum import (GramBasis, HumSettings, data_vector, gradient_check, gram_apply,
                           hum_minimize, observability_probe, observation,
                           observation_pairing, solve_adjoint)
from stackheat.oracle import dense_adjoint_solve
from stackheat.products import h10_inner, h10_norm

from _scenarios import builders, params, scenario_a, scenario_b, scenario_c


def test_adjoint_zero_datum():
    cfg = scenario_a()
    pair = solve_adjoint(cfg, np.zeros(cfg.grid.n_interior), params())
    assert pair.iterations == 1
    assert np.all(pair.phi.values == 0.0)
    assert np.all(pair.theta.values == 0.0)


@pytest.mark.parametrize("conf", ["A", "B", "C", "D"])
def test_adjoint_dense_oracle(conf):
    kw = {"s": 0.002} if conf in ("C", "D") else {}
    cfg = builders()[conf](n=4, k=4, **kw)
    p = params(ell=3.0) if conf in ("C", "D") else params()
    rng = np.random.default_rng(17)
    a = rng.standard_normal(cfg.grid.n_interior)
    pair = solve_adjoint(cfg, a, p)
    phi, thetas = dense_adjoint_solve(cfg, a, p)
    scale = max(np.max(np.abs(phi)), 1.0)
    assert np.max(np.abs(pair.phi.interior - phi)) <= 1e-10 * scale
    for tf, td in zip(pair.thetas, thetas):
        assert np.max(np.abs(tf.interior - td)) <= 1e-10 * scale


def test_adjoint_terminal_and_initial_conditions():
    cfg = scenario_a(n=8, k=8)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(cfg.grid.n_interior)
    pair = solve_adjoint(cfg, a, params())
    assert np.array_equal(pair.phi.interior[-1], a)
    assert np.all(pair.theta.interior[0] == 0.0)


def test_adjoint_boundary_underflow_config_c():
    # the theta boundary datum carries rho_star^{-2}: exact zeros near t in {0, T};
    # at s = 1 it underflows at every level, so a live s shows the rest is nonzero
    cfg = scenario_c(n=10, k=50, s=0.01)
    rng = np.random.default_rng(5)
    pair = solve_adjoint(cfg, rng.standard_normal(cfg.grid.n_interior), params())
    t = cfg.tgrid.times()
    edge = pair.theta.values[:, -1]  # follower side is the right endpoint
    early_late = (t <= 0.02 * cfg.tgrid.horizon) | (t >= 0.98 * cfg.tgrid.horizon)
    assert np.all(edge[early_late] == 0.0)
    assert np.any(edge[~early_late] != 0.0)


@pytest.mark.parametrize("conf", ["A", "B", "C", "D"])
def test_gram_symmetry_and_positivity(conf):
    kw = {"s": 0.002} if conf in ("C", "D") else {}
    cfg = builders()[conf](n=8, k=8, **kw)
    p = params(ell=4.0) if conf in ("C", "D") else params()
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = rng.standard_normal(cfg.grid.n_interior)
        b = rng.standard_normal(cfg.grid.n_interior)
        ga = gram_apply(cfg, a, p)
        gb = gram_apply(cfg, b, p)
        gab = h10_inner(ga, b, cfg.grid)
        gba = h10_inner(gb, a, cfg.grid)
        na, nb = h10_norm(a, cfg.grid), h10_norm(b, cfg.grid)
        assert abs(gab - gba) <= 1e-12 * na * nb
        # the quadratic form is exactly the observation pairing
        pa = solve_adjoint(cfg, a, p)
        pb = solve_adjoint(cfg, b, p)
        obs = observation_pairing(cfg, pa, pb)
        assert gab == pytest.approx(obs, abs=1e-12 * na * nb, rel=1e-9)
        gaa = h10_inner(ga, a, cfg.grid)
        assert gaa >= -1e-12 * na * na


def test_gram_zero_datum_maps_to_zero():
    cfg = scenario_a()
    out = gram_apply(cfg, np.zeros(cfg.grid.n_interior), params())
    assert np.all(out == 0.0)


def test_gradient_check_config_a():
    cfg = scenario_a(n=10, k=10, y0_kind="sine", target_kind="sine_cutoff")
    rng = np.random.default_rng(2)
    a = rng.standard_normal(cfg.grid.n_interior)
    rep = gradient_check(cfg, params(), HumSettings(epsilon=1e-3), a,
                         n_directions=10, seed=7)
    assert rep.max_relative_error <= 1e-6
    assert rep.quadratic_spread <= 1e-10
    assert rep.passed


def test_gradient_check_zero_direction():
    cfg = scenario_a(n=8, k=8, y0_kind="sine", target_kind="zero")
    a = np.ones(cfg.grid.n_interior)
    rep = gradient_check(cfg, params(), HumSettings(epsilon=1e-3), a,
                         directions=[np.zeros(cfg.grid.n_interior)])
    assert rep.max_relative_error == 0.0


def test_hum_zero_data():
    cfg = scenario_a(n=8, k=8, y0_kind="zero", target_kind="zero")
    res = hum_minimize(cfg, params(), HumSettings(epsilon=1e-4))
    assert res.cg_iterations == 0
    assert res.terminal_residual_hminus1 == 0.0
    assert np.all(res.phi_terminal == 0.0)


def _residual_sweep(cfg, p, epsilons):
    basis = GramBasis(cfg, p)
    return [hum_minimize(cfg, p, HumSettings(epsilon=eps, cg_tol=1e-11), basis=basis,
                         check_admissibility=False)
            for eps in epsilons]


def test_hum_epsilon_law_config_a():
    cfg = scenario_a(n=24, k=24, T=0.5, y0_kind="sine", target_kind="sine_cutoff")
    results = _residual_sweep(cfg, params(), (1e-2, 1e-4, 1e-6))
    res = [r.terminal_residual_hminus1 for r in results]
    assert res[0] > res[1] > res[2] > 0
    for a, b in zip(res, res[1:]):
        assert 3.0 <= a / b <= 30.0
    # certificate independence: internal estimate matches the fresh solve
    for r in results:
        assert r.internal_residual_estimate == pytest.approx(
            r.terminal_residual_hminus1, rel=1e-8)
    # CG monotonically decreases the functional
    fvals = [f for (_, f, _) in results[-1].trace]
    assert all(b < a + 1e-15 for a, b in zip(fvals, fvals[1:]))


def test_hum_epsilon_law_config_b():
    cfg = scenario_b(n=24, k=24, T=0.5, y0_kind="sine", target_kind="sine_cutoff")
    results = _residual_sweep(cfg, params(), (1e-2, 1e-4, 1e-6))
    res = [r.terminal_residual_hminus1 for r in results]
    for a, b in zip(res, res[1:]):
        assert 3.0 <= a / b <= 30.0


_LADDER = (1e-2, 1e-4, 1e-6)


def _solve(cfg, p, eps, basis=None, cg_tol=1e-11):
    return hum_minimize(cfg, p, HumSettings(epsilon=eps, cg_tol=cg_tol), basis=basis,
                        check_admissibility=False)


@pytest.mark.parametrize("conf", "ABCD")
def test_shared_basis_results_equal_lone_solves_bit_for_bit(conf):
    cfg = builders()[conf](n=16, k=16)
    p = params()
    lone = {eps: _solve(cfg, p, eps) for eps in _LADDER}
    for order in (_LADDER, _LADDER[::-1]):
        basis = GramBasis(cfg, p)
        for eps in order:
            got, ref = _solve(cfg, p, eps, basis), lone[eps]
            assert np.array_equal(got.phi_terminal, ref.phi_terminal)
            assert np.array_equal(got.leader.values, ref.leader.values)
            assert got.trace == ref.trace
            assert (got.terminal_residual_hminus1, got.internal_residual_estimate,
                    got.cg_iterations, got.functional_value, got.leader_norm_sq) == \
                (ref.terminal_residual_hminus1, ref.internal_residual_estimate,
                 ref.cg_iterations, ref.functional_value, ref.leader_norm_sq)


@pytest.mark.parametrize("conf", "AB")
def test_descending_ladder_applies_gram_as_often_as_its_smallest_rung(conf, monkeypatch):
    cfg = builders()[conf](n=16, k=16)
    p = params()
    calls = []
    real = hum_module.gram_apply

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hum_module, "gram_apply", counted)
    smallest = _solve(cfg, p, _LADDER[-1])
    lone = len(calls)
    assert lone == smallest.cg_iterations > 0
    calls.clear()
    basis = GramBasis(cfg, p)
    for eps in _LADDER:
        _solve(cfg, p, eps, basis)
    assert len(calls) == lone


def _unit_orthogonal_to(b, grid, seed=0):
    e1 = b / h10_norm(b, grid)
    r = np.random.default_rng(seed).standard_normal(b.shape)
    e2 = r - h10_inner(r, e1, grid) * e1
    return e1, e2 / h10_norm(e2, grid)


@pytest.mark.parametrize("kind", ["negative", "indefinite"])
def test_non_positive_gram_operator_raises(kind, monkeypatch):
    cfg = scenario_a(n=8, k=8)
    p = params()
    e1, e2 = _unit_orthogonal_to(data_vector(cfg, p), cfg.grid)

    def indefinite(cfg, a, params):
        # [[0.5, 1], [1, 0.5]] on span(e1, e2): positive diagonal, one negative eigenvalue
        return 0.5 * a + h10_inner(a, e1, cfg.grid) * e2 + h10_inner(a, e2, cfg.grid) * e1

    gram = indefinite if kind == "indefinite" else (lambda cfg, a, params: -a)
    monkeypatch.setattr(hum_module, "gram_apply", gram)
    with pytest.raises(ConvergenceError, match="not positive"):
        _solve(cfg, p, 1e-4)


def test_invariant_krylov_space_ends_with_the_exact_solution(monkeypatch):
    # Gram = 2 I: the Krylov space of b is one-dimensional, so an unreachable
    # tolerance still ends after one vector, at -b / (2 + eps)
    cfg = scenario_a(n=8, k=8)
    p = params()
    monkeypatch.setattr(hum_module, "gram_apply", lambda cfg, a, params: 2.0 * a)
    res = _solve(cfg, p, 1e-4, cg_tol=1e-300)
    assert res.cg_iterations == 1
    np.testing.assert_allclose(res.phi_terminal, -data_vector(cfg, p) / (2.0 + 1e-4),
                               rtol=1e-14)


def test_basis_of_another_scenario_is_rejected():
    p = params()
    basis = GramBasis(scenario_a(n=8, k=8), p)
    with pytest.raises(ValueError, match="another scenario"):
        _solve(scenario_a(n=8, k=8), p, 1e-4, basis)


def test_hum_leader_formula_consistency_config_a():
    cfg = scenario_a(n=12, k=12, y0_kind="sine", target_kind="sine_cutoff")
    p = params()
    res = hum_minimize(cfg, p, HumSettings(epsilon=1e-3), check_admissibility=False)
    pair = solve_adjoint(cfg, res.phi_terminal, p)
    h = observation(cfg, pair)
    mask = cfg.omega.interior_mask(cfg.grid)
    assert np.array_equal(res.leader.interior[:, mask], pair.phi.interior[:, mask])
    assert np.all(res.leader.interior[:, ~mask] == 0.0)
    assert isinstance(h.values if hasattr(h, "values") else None, np.ndarray)


def test_hum_inadmissible_target_warns():
    cfg = scenario_a(n=8, k=8, y0_kind="zero", target_kind="constant")
    with pytest.warns(RuntimeWarning):
        hum_minimize(cfg, params(), HumSettings(epsilon=1e-2, cg_tol=1e-8))


def test_probe_homogeneity_and_report():
    cfg = scenario_a(n=10, k=10)
    p = params()
    rep = observability_probe(cfg, p, n_samples=10, seed=0)
    assert rep.max_ratio >= rep.median_ratio >= rep.min_ratio > 0
    assert np.isfinite(rep.max_ratio)
    assert rep.refined_max >= rep.max_ratio * (1 - 1e-12)
    # degree-0 homogeneity: scaling the datum leaves the ratio unchanged
    from stackheat.hum import solve_adjoint as sa
    rng = np.random.default_rng(4)
    a = rng.standard_normal(cfg.grid.n_interior)
    from stackheat.products import h10_inner as hi

    def ratio(v):
        pair = sa(cfg, v, p)
        den = observation_pairing(cfg, pair, pair)
        from stackheat.weights import target_weight_inv_sq
        from stackheat.heat import favg
        w = np.asarray(target_weight_inv_sq("A", cfg.wspec, cfg.eta(),
                                            cfg.tgrid.midpoint_times()))
        num = hi(pair.phi.interior[0], pair.phi.interior[0], cfg.grid)
        fa = favg(pair.theta.interior, cfg.theta)
        num += float(cfg.tgrid.dt * cfg.grid.dx * np.sum(w[:, None] * fa * fa))
        return num / den

    r1, r2 = ratio(a), ratio(2.0 * a)
    assert abs(r1 - r2) <= 1e-12 * abs(r1)


def test_probe_max_nonincreasing_when_weights_double():
    from _scenarios import probe_scenario_a

    for seed in (0, 1, 2):
        cfg = probe_scenario_a()
        lo = observability_probe(cfg, params(ell=10.0, gamma=10.0),
                                 n_samples=100, seed=seed)
        hi = observability_probe(cfg, params(ell=20.0, gamma=20.0),
                                 n_samples=100, seed=seed)
        assert hi.max_ratio <= lo.max_ratio

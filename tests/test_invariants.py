"""Cross-module invariants: error paths, contraction triples, floors."""

import numpy as np
import pytest

from stackheat.errors import ConfigError, ConvergenceError, NonContractionError
from stackheat.grids import Region
from stackheat.hum import GramBasis, HumSettings, gram_apply, hum_minimize
from stackheat.products import h10_inner, h10_norm
from stackheat.saddle import measure_contraction, solve_optimality, verify_saddle

from _scenarios import params, scenario_a, scenario_b


def test_non_contraction_detected_and_reported():
    cfg = scenario_a(n=8, k=8, y0_kind="sine", target_kind="sine_cutoff")
    with pytest.raises(NonContractionError) as exc:
        solve_optimality(cfg, None, params(ell=0.05, gamma=0.05))
    assert exc.value.ratio >= 1.0
    assert "ell" in str(exc.value) and "gamma" in str(exc.value)


def test_max_iterations_exceeded():
    cfg = scenario_a(n=8, k=8, y0_kind="sine", target_kind="sine_cutoff")
    with pytest.raises(ConvergenceError):
        solve_optimality(cfg, None,
                         params(ell=2.0, gamma=2.0, fixed_point_tol=1e-15,
                                max_iterations=2))


def test_cg_iteration_budget_enforced():
    cfg = scenario_a(n=12, k=12, y0_kind="sine", target_kind="sine_cutoff")
    with pytest.raises(ConvergenceError):
        hum_minimize(cfg, params(), HumSettings(epsilon=1e-6, cg_tol=1e-13,
                                                cg_max_iters=1))


def test_contraction_monotone_across_mu_triple():
    # mu in {25, 100, 400}: measured ratio non-increasing
    for seed in (0, 1):
        cfg = scenario_a(n=12, k=12, y0_kind="random", target_kind="random", seed=seed)
        meds = [np.median(measure_contraction(cfg, None, params(ell=e, gamma=e), sweeps=8))
                for e in (5.0, 10.0, 20.0)]
        assert meds[0] > meds[1] > meds[2]


def test_disturbance_concavity_three_point_second_difference():
    # J(v_bar, psi) along lines through psi_bar is concave at large gamma
    cfg = scenario_a(n=14, k=14, y0_kind="random", target_kind="random", seed=5)
    p = params()
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, n_perturbations=5, seed=3)
    assert all(c < 0 for c in rep.concavity_estimates)

    from stackheat.saddle import build_problem, evaluate_functional_raw
    prob = build_problem(cfg, p)
    rng = np.random.default_rng(11)
    vbar = tuple(sol.follower[side].values for (side, _, _) in prob.follower_edges)
    psibar = sol.disturbance.interior
    dpsi = rng.standard_normal(psibar.shape)
    j0 = evaluate_functional_raw(prob, vbar, psibar, None)
    jp = evaluate_functional_raw(prob, vbar, psibar + dpsi, None)
    jm = evaluate_functional_raw(prob, vbar, psibar - dpsi, None)
    assert jp - 2 * j0 + jm <= 0.0


def test_residual_floor_decreases_under_refinement():
    import warnings
    floors = []
    for n in (24, 50):
        cfg = scenario_a(n=n, k=n, T=1.0, y0_kind="sine", target_kind="sine_cutoff")
        p = params()
        basis = GramBasis(cfg, p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for eps in (1e-2, 1e-4, 1e-6):
                res = hum_minimize(cfg, p, HumSettings(epsilon=eps, cg_tol=1e-11),
                                   basis=basis)
        floors.append(res.terminal_residual_hminus1)
    assert floors[1] < floors[0]


def test_global_disturbance_variant_runs_through_hum():
    # open-question experiment flag: disturbance supported on all of Q
    cfg = scenario_b(n=10, k=10, y0_kind="sine", target_kind="sine_cutoff",
                     global_disturbance=True)
    cfg.b2 = Region(0.0, 1.0)
    p = params()
    rng = np.random.default_rng(2)
    a = rng.standard_normal(cfg.grid.n_interior)
    b = rng.standard_normal(cfg.grid.n_interior)
    ga, gb = gram_apply(cfg, a, p), gram_apply(cfg, b, p)
    sym = abs(h10_inner(ga, b, cfg.grid) - h10_inner(gb, a, cfg.grid))
    assert sym <= 1e-12 * h10_norm(a, cfg.grid) * h10_norm(b, cfg.grid)
    res = hum_minimize(cfg, p, HumSettings(epsilon=1e-3, cg_tol=1e-9))
    assert np.isfinite(res.terminal_residual_hminus1)


def test_ladder_must_increase(tmp_path):
    from stackheat.config import parse_config
    p = tmp_path / "bad.ini"
    p.write_text("[scenario]\nconfiguration = A\n\n[grid]\nladder = 50, 25\n",
                 encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        parse_config(str(p))
    assert "increasing" in str(exc.value)


def _with_edge_weights(cfg):
    """The scenario with non-unit follower edge weights, so rho shows in every row."""
    from stackheat.grids import LEFT, RIGHT, BoundarySet

    c = cfg.configuration
    if c == "A":
        cfg.gamma_set = BoundarySet(((LEFT, 0.7),))
    elif c == "C":
        cfg.gamma2 = BoundarySet(((RIGHT, 0.8),))
    elif c == "D":
        cfg.gamma1 = BoundarySet(((RIGHT, 0.6),))
        cfg.gamma2 = BoundarySet(((RIGHT, 1.3),))
    return cfg


@pytest.mark.parametrize("conf", ["A", "B", "C", "D"])
def test_boundary_rows_carry_the_marched_controls(conf):
    # state edges = leader + sum of rho * v; adjoint-pair edges = rho * feedback(phi)
    from stackheat.grids import LEFT, BoundaryTrace
    from stackheat.hum import solve_adjoint
    from stackheat.weights import rho_star_inv_sq

    from _scenarios import builders, random_leader

    def col(side):
        return 0 if side == LEFT else -1

    def assert_edges(field, expected):
        got = field.values[:, [0, -1]]
        scale = max(float(np.max(np.abs(expected))), 1e-300)
        assert np.max(np.abs(got - expected[:, [0, -1]])) <= 1e-13 * scale

    kw = {"s": 0.002} if conf in ("C", "D") else {}
    cfg = _with_edge_weights(builders()[conf](n=10, k=12, y0_kind="random",
                                              target_kind="random", seed=3, **kw))
    p = params(ell=3.0, gamma=10.0, ell2=4.0)
    klev, dx = cfg.tgrid.n_levels, cfg.grid.dx
    leader = random_leader(cfg, seed=9)
    sol = solve_optimality(cfg, leader, p)

    # (side, rho, ell, trace) per follower edge, from the returned traces
    if conf == "A":
        edges = [(side, cfg.gamma_set.weight(side), p.ell, tr.values)
                 for side, tr in sol.follower.items()]
    elif conf == "B":
        edges = []
    elif conf == "C":
        tr = sol.follower
        edges = [(tr.side, cfg.gamma2.weight(tr.side), p.ell, tr.values)]
    else:
        edges = [(tr.side, bs.weight(tr.side), ell, tr.values)
                 for tr, bs, ell in zip(sol.follower, (cfg.gamma1, cfg.gamma2),
                                        (p.ell, p.second_ell))]
    expected = np.zeros((klev, cfg.grid.n_nodes))
    for side, rho, _, v in edges:
        expected[:, col(side)] += rho * v
    if isinstance(leader, BoundaryTrace):
        expected[:, col(leader.side)] += leader.values
    assert_edges(sol.state, expected)
    if conf != "B":
        assert np.any(sol.state.values[1:-1, [0, -1]] != 0.0)

    rng = np.random.default_rng(4)
    pair = solve_adjoint(cfg, rng.standard_normal(cfg.grid.n_interior), p)
    phi = pair.phi.interior
    wtrap = np.ones(klev)
    wtrap[[0, -1]] = 0.5

    def feedback(side, rho, ell):
        dn = -phi[:, col(side)] / dx
        if conf == "A":
            return rho * dn / ell ** 2
        g2inv = np.asarray(rho_star_inv_sq(cfg.wspec, cfg.eta(), cfg.tgrid.times()))
        mid = 0.5 * (dn[:-1] + dn[1:])
        smooth = 0.5 * (np.concatenate([[0.0], mid]) + np.concatenate([mid, [0.0]]))
        return rho * g2inv * smooth / (ell ** 2 * wtrap)

    # A: one theta fed by every edge; B: no edge; C/D: one theta per follower
    blocks = [edges] if conf in ("A", "B") else [[e] for e in edges]
    assert len(pair.thetas) == len(blocks)
    for theta, block in zip(pair.thetas, blocks):
        expected = np.zeros((klev, cfg.grid.n_nodes))
        for side, rho, ell, _ in block:
            expected[:, col(side)] = rho * feedback(side, rho, ell)
        assert_edges(theta, expected)
        if block:
            assert np.any(theta.values[1:-1, [0, -1]] != 0.0)

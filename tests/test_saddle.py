"""Follower equilibria: oracle equivalence, stationarity, saddle inequalities."""

import os

import numpy as np
import pytest

from stackheat import heat, saddle
from stackheat.config import parse_config
from stackheat.errors import ConvergenceError
from stackheat.grids import (LEFT, RIGHT, BoundarySet, BoundaryTrace, Region,
                             SpaceTimeField, SpatialGrid, TimeGrid)
from stackheat.oracle import dense_optimality_solve
from stackheat.saddle import (_leader_array, _picard_columns, build_problem, evaluate_functional,
                              gateaux_check, measure_contraction, picard_coupled,
                              solve_optimality, verify_saddle)
from stackheat.scenario import (ScenarioConfig, make_initial,
                                make_target, validate_config)

from _scenarios import builders, params, random_leader, scenario_a, scenario_b, scenario_c, scenario_d


# --- geometry validation ------------------------------------------------------

def test_validate_config_a_ok():
    assert validate_config(scenario_a()) == []


def test_validate_config_a_disjoint_regions():
    grid, tgrid = SpatialGrid(8), TimeGrid(4, 1.0)
    obs = Region(0.5, 0.9)
    cfg = ScenarioConfig(
        configuration="A", grid=grid, tgrid=tgrid,
        y0=make_initial(grid, "zero"),
        target=make_target(grid, tgrid, obs, "zero"),
        omega=Region(0.1, 0.3), obs=obs,
        gamma_set=BoundarySet.from_sides(LEFT))
    errs = validate_config(cfg)
    assert len(errs) == 1 and "Theorem 1" in errs[0]


def test_validate_config_b_ok_and_violations():
    assert validate_config(scenario_b()) == []
    cfg = scenario_b()
    cfg.b1 = Region(0.1, 0.3)  # detached from the leader endpoint
    errs = validate_config(cfg)
    assert any("Theorem 2" in e for e in errs)
    cfg2 = scenario_b()
    cfg2.obs = Region(0.25, 0.5)  # touches closure of B2
    cfg2.target = make_target(cfg2.grid, cfg2.tgrid, cfg2.obs, "zero")
    errs2 = validate_config(cfg2)
    assert any("Theorem 2" in e for e in errs2)


def test_validate_config_c_and_d():
    assert validate_config(scenario_c()) == []
    assert validate_config(scenario_d()) == []
    cfg = scenario_c()
    cfg.gamma2 = BoundarySet.from_sides(LEFT)  # collides with the leader
    assert any("Gamma1 n Gamma2" in e for e in validate_config(cfg))
    cfg2 = scenario_d()
    cfg2.gamma1 = BoundarySet.from_sides(LEFT)
    assert any("Gamma n Gamma_i" in e for e in validate_config(cfg2))


def test_global_disturbance_flag_downgrades_b2_checks():
    cfg = scenario_b(global_disturbance=True)
    cfg.b2 = Region(0.0, 1.0)
    assert validate_config(cfg) == []


# --- zero data ---------------------------------------------------------------

@pytest.mark.parametrize("conf", ["A", "B", "C", "D"])
def test_zero_data_zero_fixed_point(conf):
    cfg = builders()[conf](y0_kind="zero", target_kind="zero")
    sol = solve_optimality(cfg, None, params())
    assert sol.iterations == 1
    assert sol.residual == 0.0
    assert np.all(sol.state.values == 0.0)
    assert sol.functional_value == 0.0


# --- dense oracle equivalence --------------------------------------------------

@pytest.mark.parametrize("conf", ["A", "B", "C", "D"])
def test_tiny_grid_dense_oracle(conf):
    cfg = builders()[conf](n=4, k=4, y0_kind="random", target_kind="random", seed=5)
    p = params()
    leader = random_leader(cfg, seed=9, amplitude=0.5)
    sol = solve_optimality(cfg, leader, p)
    state, adjoints = dense_optimality_solve(cfg, leader, p)
    scale = max(np.max(np.abs(state)), 1.0)
    assert np.max(np.abs(sol.state.interior - state)) <= 1e-10 * scale
    for a_fp, a_dense in zip(sol.adjoints, adjoints):
        assert np.max(np.abs(a_fp.interior - a_dense)) <= 1e-10 * scale


@pytest.mark.parametrize("conf,s", [("C", 0.002), ("D", 0.002)])
def test_tiny_grid_oracle_with_active_weight_coupling(conf, s):
    # small s makes rho_star^{-2} order one, so the boundary feedback matters
    cfg = builders()[conf](n=4, k=4, y0_kind="random", target_kind="random", seed=3, s=s)
    p = params(ell=3.0)
    leader = random_leader(cfg, seed=4)
    sol = solve_optimality(cfg, leader, p)
    state, adjoints = dense_optimality_solve(cfg, leader, p)
    scale = max(np.max(np.abs(state)), 1.0)
    assert np.max(np.abs(sol.state.interior - state)) <= 1e-10 * scale
    for a_fp, a_dense in zip(sol.adjoints, adjoints):
        assert np.max(np.abs(a_fp.interior - a_dense)) <= 1e-10 * scale


@pytest.mark.parametrize("n,k", [(4, 4), (8, 8), (4, 16), (16, 4)])
def test_oracle_equivalence_across_small_grids(n, k):
    cfg = scenario_a(n=n, k=k, y0_kind="random", target_kind="random", seed=n + k)
    p = params()
    sol = solve_optimality(cfg, None, p)
    state, (q,) = dense_optimality_solve(cfg, None, p)
    scale = max(np.max(np.abs(state)), 1.0)
    assert np.max(np.abs(sol.state.interior - state)) <= 1e-10 * scale
    assert np.max(np.abs(sol.adjoint.interior - q)) <= 1e-10 * scale


# --- functional quadrature oracle ----------------------------------------------

def test_functional_constant_target_value():
    # zero controls, y_d = 1 on (0.4, 0.8), T = 1 -> J ~ 0.5 * |O_d| * T
    cfg = scenario_a(n=99, k=40, y0_kind="zero", target_kind="constant")
    zero_v = {LEFT: BoundaryTrace.zeros(cfg.tgrid, LEFT)}
    zero_psi = SpaceTimeField.zeros(cfg.grid, cfg.tgrid)
    val = evaluate_functional(cfg, params(), zero_v, zero_psi)
    assert abs(val - 0.2) < 2 * cfg.grid.dx


def test_functional_matches_dumb_quadrature_oracle():
    rng = np.random.default_rng(12)
    cfg = scenario_a(n=6, k=5, y0_kind="random", target_kind="random", seed=2)
    p = params(ell=3.0, gamma=7.0)
    v = {LEFT: BoundaryTrace(cfg.tgrid, LEFT, rng.standard_normal(cfg.tgrid.n_levels))}
    psi = SpaceTimeField(cfg.grid, cfg.tgrid,
                         np.pad(rng.standard_normal((cfg.tgrid.n_levels, cfg.grid.n_interior)),
                                ((0, 0), (1, 1))))
    leader = random_leader(cfg, seed=8)
    val = evaluate_functional(cfg, p, v, psi, leader)

    # independent re-implementation: explicit loops over midpoints
    from stackheat.heat import march
    src = psi.interior + leader.interior
    bnd = v[LEFT].values  # rho = 1
    y = march(cfg.grid, cfg.tgrid, cfg.y0, src, left=bnd)
    dt, dx = cfg.tgrid.dt, cfg.grid.dx
    mask = cfg.obs.interior_mask(cfg.grid)
    track = ctrl = dist = 0.0
    yd = cfg.target.interior
    for k in range(cfg.tgrid.n_steps):
        for i in range(cfg.grid.n_interior):
            if mask[i]:
                mid = 0.5 * (y[k, i] - yd[k, i] + y[k + 1, i] - yd[k + 1, i])
                track += dt * dx * mid ** 2
            dmid = 0.5 * (psi.interior[k, i] + psi.interior[k + 1, i])
            dist += dt * dx * dmid ** 2
        vmid = 0.5 * (bnd[k] + bnd[k + 1])
        ctrl += dt * vmid ** 2
    expected = 0.5 * track + 0.5 * p.ell ** 2 * ctrl - 0.5 * p.gamma ** 2 * dist
    assert val == pytest.approx(expected, rel=1e-12)


def test_functional_debug_mode_rejects_inconsistent_state():
    cfg = scenario_a(n=6, k=5)
    zero_v = {LEFT: BoundaryTrace.zeros(cfg.tgrid, LEFT)}
    zero_psi = SpaceTimeField.zeros(cfg.grid, cfg.tgrid)
    bad_state = SpaceTimeField.from_function(cfg.grid, cfg.tgrid, lambda x, t: x + t + 1)
    with pytest.raises(ValueError):
        evaluate_functional(cfg, params(), zero_v, zero_psi, state=bad_state)


# --- typed controls to raw arrays -------------------------------------------------

def _assert_same_controls(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_controls(g, w)
    elif want is None:
        assert got is None
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("conf", ["A", "B", "C", "D"])
def test_raw_reverses_the_packaged_solution(conf):
    # the typed controls of a solution unpack to exactly what feedback reads off its adjoints
    live = {"s": 0.002} if conf in ("C", "D") else {}  # rho_star^-2 not underflowing
    cfg = builders()[conf](n=8, k=8, y0_kind="random", target_kind="random", seed=1, **live)
    p = params(ell=3.0, ell2=4.0)
    sol = solve_optimality(cfg, random_leader(cfg, seed=2, amplitude=0.3), p)
    prob = build_problem(cfg, p)
    adjoints = tuple(a.interior for a in sol.adjoints)
    _assert_same_controls(prob.raw(sol.follower, sol.disturbance),
                          prob.feedback(adjoints, prob.g2inv))
    if conf in ("C", "D"):
        _assert_same_controls(prob.raw(sol.follower_weighted),
                              prob.feedback(adjoints, prob.ginv))


def test_raw_fills_missing_edge_and_disturbance_with_zeros():
    cfg = scenario_a(n=6, k=5)
    cfg.gamma_set = BoundarySet.from_sides(LEFT, RIGHT)
    prob = build_problem(cfg, params())
    left = BoundaryTrace(cfg.tgrid, LEFT, np.arange(cfg.tgrid.n_levels, dtype=float))
    (v_left, v_right), psi = prob.raw({LEFT: left})
    np.testing.assert_array_equal(v_left, left.values)
    np.testing.assert_array_equal(v_right, np.zeros(cfg.tgrid.n_levels))
    np.testing.assert_array_equal(psi, np.zeros((cfg.tgrid.n_levels, cfg.grid.n_interior)))
    cfg_b = scenario_b(n=6, k=5)
    fol = SpaceTimeField.from_function(cfg_b.grid, cfg_b.tgrid, lambda x, t: x * t)
    v, psi = build_problem(cfg_b, params()).raw(fol)
    np.testing.assert_array_equal(v, fol.interior)
    np.testing.assert_array_equal(psi, np.zeros_like(fol.interior))


# --- equilibrium quality --------------------------------------------------------

@pytest.mark.parametrize("conf", ["A", "B"])
def test_verify_computes_the_equilibrium_cost_from_the_controls(conf):
    # a wrong functional_value on the solution must not move the verdict
    import dataclasses
    cfg = builders()[conf](n=10, k=10, y0_kind="random", target_kind="random", seed=2)
    p = params()
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, n_perturbations=20, seed=3)
    off = dataclasses.replace(sol, functional_value=sol.functional_value + 1.0)
    assert rep.passed
    assert verify_saddle(cfg, off, None, p, n_perturbations=20, seed=3) == rep


def test_zero_data_equilibrium_perturbations():
    # J(0, psi) <= 0 and J(v, 0) >= 0: every perturbation moves the right way
    cfg = scenario_a(n=12, k=12, y0_kind="zero", target_kind="zero")
    p = params()
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, n_perturbations=30, seed=4)
    assert rep.functional_value == 0.0
    assert rep.max_min_violation == 0.0 and rep.max_max_violation == 0.0
    assert rep.passed and rep.worst_perturbation == ()


def _broken_follower(cfg, sol, shift):
    """The equilibrium follower shifted by ``shift`` where a deviation has finite cost."""
    c = cfg.configuration
    if c == "A":
        return {side: BoundaryTrace(cfg.tgrid, side, tr.values + shift)
                for side, tr in sol.follower.items()}
    if c == "B":
        vals = sol.follower.values.copy()
        vals[:, 1:-1][:, cfg.b1.interior_mask(cfg.grid)] += shift
        return SpaceTimeField(cfg.grid, cfg.tgrid, vals)
    # C/D: rho_star is infinite at t = 0 and T, so the shift spares those levels
    live = np.zeros(cfg.tgrid.n_levels)
    live[1:-1] = shift
    traces = sol.follower if c == "D" else (sol.follower,)
    broken = tuple(BoundaryTrace(cfg.tgrid, tr.side, tr.values + live) for tr in traces)
    return broken if c == "D" else broken[0]


@pytest.mark.parametrize("config", ["A", "B", "C", "D"])
def test_verify_reports_offending_direction_when_rejected(config):
    # verifying a non-equilibrium pair must reject and name the offender
    if config in ("A", "B"):
        cfg = builders()[config](n=10, k=10, y0_kind="random", target_kind="random", seed=2)
        p = params()
    else:
        # a live follower weight: at the default s the check cannot see the follower
        cfg = builders()[config](n=10, k=10, y0_kind="random", target_kind="random",
                                 seed=2, s=0.002)
        p = params(ell=3.0, ell2=4.0)
    sol = solve_optimality(cfg, None, p)
    broken = _broken_follower(cfg, sol, 0.5)
    j_broken = evaluate_functional(cfg, p, broken, sol.disturbance, None)
    import dataclasses
    bad = dataclasses.replace(sol, follower=broken, functional_value=j_broken)
    rep = verify_saddle(cfg, bad, None, p, n_perturbations=30, seed=4)
    assert not rep.passed
    assert rep.worst_perturbation != ()


def test_saddle_verification_config_a():
    cfg = scenario_a(n=20, k=20, y0_kind="random", target_kind="random", seed=7)
    p = params()
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, n_perturbations=100, seed=1)
    assert rep.max_min_violation <= 1e-9
    assert rep.max_max_violation <= 1e-9
    assert rep.max_directional_derivative <= 1e-8 * (1 + abs(rep.functional_value))
    assert all(c < 0 for c in rep.concavity_estimates)
    assert rep.passed


def test_saddle_verification_config_b():
    cfg = scenario_b(n=16, k=16, y0_kind="random", target_kind="random", seed=3)
    p = params()
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, n_perturbations=50, seed=2)
    assert rep.passed


def test_minimality_config_c():
    cfg = scenario_c(n=16, k=16, y0_kind="random", target_kind="random", seed=3, s=0.002)
    p = params(ell=3.0)
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, n_perturbations=50, seed=2)
    assert rep.max_min_violation <= 1e-9
    assert rep.passed


def test_nash_conditions_config_d():
    cfg = scenario_d(n=12, k=12, y0_kind="random", target_kind="random", seed=3, s=0.002)
    p = params(ell=3.0, ell2=4.0)
    leader = random_leader(cfg, seed=11, amplitude=0.3)
    sol = solve_optimality(cfg, leader, p)
    rep = verify_saddle(cfg, sol, leader, p, n_perturbations=50, seed=2)
    assert rep.max_min_violation <= 1e-9
    assert rep.passed


def test_nash_conditions_config_d_default_weights():
    # the shipped weight makes the boundary penalty huge; deviations still lose
    cfg = scenario_d(n=10, k=10, y0_kind="random", target_kind="random", seed=6)
    p = params()
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, n_perturbations=50, seed=5)
    assert rep.max_min_violation <= 1e-9


# --- contraction ----------------------------------------------------------------

def test_contraction_ratio_decreases_with_mu():
    for seed in (0, 1, 2):
        cfg = scenario_a(n=12, k=12, y0_kind="random", target_kind="random", seed=seed)
        slow = measure_contraction(cfg, None, params(ell=5.0, gamma=5.0,
                                                     max_iterations=400), sweeps=8)
        fast = measure_contraction(cfg, None, params(ell=20.0, gamma=20.0,
                                                     max_iterations=400), sweeps=8)
        assert np.median(fast) < np.median(slow)


def test_contraction_example_10_vs_5():
    cfg = scenario_a(n=10, k=10, y0_kind="random", target_kind="random", seed=4)
    r5 = measure_contraction(cfg, None, params(ell=5.0, gamma=5.0), sweeps=8)
    r10 = measure_contraction(cfg, None, params(ell=10.0, gamma=10.0), sweeps=8)
    assert np.median(r10) < np.median(r5)


@pytest.mark.parametrize("demo", ["demo_a", "demo_b"])
def test_contraction_ratio_does_not_depend_on_the_march(demo, monkeypatch):
    # the two marches agree to round-off; the reported ratio must too, so it
    # may not read ratios of corrections that are themselves round-off
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"{demo}.ini"))
    ratios = []
    for fwd, bwd in ((heat.march, heat.march_backward),
                     (heat.modal_march, heat.modal_march_backward)):
        monkeypatch.setattr(saddle, "modal_march", fwd)
        monkeypatch.setattr(saddle, "modal_march_backward", bwd)
        ratios.append(solve_optimality(spec.scenario, None, spec.robust).contraction_ratio)
    assert ratios[0] > 0
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-6)


def test_picard_round_off_exit_has_its_own_status():
    # scripted corrections 1, 1e-7, 2e-7, 4e-7: two growing ones below 1e-6
    # of the first take the round-off exit at sweep 4
    cfg = scenario_a(n=8, k=8)
    prob = build_problem(cfg, params())
    unit = np.ones((cfg.tgrid.n_levels, cfg.grid.n_interior))
    steps = iter([1.0, 1e-7, 2e-7, 4e-7])
    adjoint = [0.0 * unit]

    def backward(state):
        adjoint.append(adjoint[-1] + next(steps) * unit)
        return (adjoint[-1],)

    out = picard_coupled(prob, lambda adjoints: unit, backward, 1)
    assert len(out) == 6 and out[5] == "round-off"
    assert out[2] == 4
    # the cumulative sums lose about 1e-9 relative to cancellation
    assert out[3] == pytest.approx(4e-7, rel=1e-6)
    assert out[4] == pytest.approx((1e-7, 2.0, 2.0), rel=1e-6)


def test_batch_out_of_sweeps_counts_its_unconverged_columns():
    # scripted corrections: column 0 is exact at once, columns 1 and 2 contract
    # at 0.5 and 0.9 and run out of sweeps with last relative corrections
    # 0.5^3 and 0.9^3; the error counts both and gives the larger
    cfg = scenario_a(n=8, k=8)
    prob = build_problem(cfg, params(max_iterations=4))
    amplitude, rate = np.array([0.0, 1.0, 1.0]), np.array([0.5, 0.5, 0.9])
    unit = np.ones((cfg.tgrid.n_levels, cfg.grid.n_interior, 1))
    sweep = {"cols": None, "count": 0}

    def forward(adjoints, cols):
        sweep["cols"], sweep["count"] = cols, sweep["count"] + 1
        return np.zeros(unit.shape[:2] + (len(cols),))

    def backward(state):
        r, k = rate[sweep["cols"]], sweep["count"]
        return (unit * amplitude[sweep["cols"]] * (1 - r ** k) / (1 - r),)

    with pytest.raises(ConvergenceError, match=r"within 4 sweeps \(in 2 of 3 columns; "
                                               r"largest last relative correction 0\.729\)"):
        _picard_columns(prob, forward, backward, 1, width=3)


def _assert_column_bits(batched, single, j):
    """``single`` equals column ``j`` of ``batched`` bit for bit, through tuples and Nones.

    A length-1 batch axis (a shared input, such as the leader) serves every column.
    """
    if isinstance(single, tuple):
        assert isinstance(batched, tuple) and len(batched) == len(single)
        for b, s in zip(batched, single):
            _assert_column_bits(b, s, j)
    elif single is None:
        assert batched is None
    else:
        column = batched[..., j if batched.shape[-1] > 1 else 0]
        assert np.ascontiguousarray(column).tobytes() == np.asarray(single).tobytes()


@pytest.mark.parametrize("conf", "ABCD")
def test_batched_feedback_and_forcing_match_per_column_calls(conf):
    # adjoints with a trailing batch axis of 3 columns; s = 0.01 keeps the
    # C/D feedback weights live (at s = 1 they underflow to 0)
    kw = {"s": 0.01} if conf in "CD" else {}
    cfg = builders()[conf](n=10, k=10, **kw)
    prob = build_problem(cfg, params())
    rng = np.random.default_rng(11)
    shape = (cfg.tgrid.n_levels, cfg.grid.n_interior, 3)
    adjoints = tuple(rng.standard_normal(shape) for _ in range(prob.n_adjoints))
    leader = _leader_array(prob, random_leader(cfg, seed=2))
    for weight in (prob.g2inv, prob.ginv):
        follower, disturbance = prob.feedback(adjoints, weight)
        forcing = prob.forcing(follower, disturbance, leader[..., None])
        for j in range(shape[-1]):
            column = tuple(np.ascontiguousarray(a[..., j]) for a in adjoints)
            fol_j, dist_j = prob.feedback(column, weight)
            _assert_column_bits((follower, disturbance), (fol_j, dist_j), j)
            _assert_column_bits(forcing, prob.forcing(fol_j, dist_j, leader), j)


def test_solution_carries_the_picard_exit_status():
    cfg = scenario_a(n=8, k=8)
    assert solve_optimality(cfg, None, params()).exit_status == "converged"
    assert solve_optimality(cfg, None, params(), sweeps=3).exit_status == "fixed-sweeps"


# --- directional derivative of the control-to-state map -------------------------

def test_gateaux_zero_direction():
    cfg = scenario_a(n=10, k=10)
    zero_tr = {LEFT: BoundaryTrace.zeros(cfg.tgrid, LEFT)}
    zero_f = SpaceTimeField.zeros(cfg.grid, cfg.tgrid)
    rep = gateaux_check(cfg, params(), zero_tr, zero_f, (zero_tr, zero_f))
    assert rep.max_discrepancy == 0.0


def test_gateaux_exactness_zero_base():
    rng = np.random.default_rng(21)
    cfg = scenario_a(n=20, k=20, y0_kind="zero", target_kind="zero")
    zero_tr = {LEFT: BoundaryTrace.zeros(cfg.tgrid, LEFT)}
    zero_f = SpaceTimeField.zeros(cfg.grid, cfg.tgrid)
    vdir = {LEFT: BoundaryTrace(cfg.tgrid, LEFT, rng.standard_normal(cfg.tgrid.n_levels))}
    psid = SpaceTimeField(cfg.grid, cfg.tgrid,
                          np.pad(rng.standard_normal((cfg.tgrid.n_levels, cfg.grid.n_interior)),
                                 ((0, 0), (1, 1))))
    rep = gateaux_check(cfg, params(), zero_tr, zero_f, (vdir, psid))
    assert rep.max_discrepancy <= 1e-11
    assert rep.initial_level_max == 0.0


def test_gateaux_nonzero_base_within_cancellation_floor():
    rng = np.random.default_rng(22)
    cfg = scenario_a(n=16, k=16, y0_kind="sine", target_kind="sine_cutoff")
    v = {LEFT: BoundaryTrace(cfg.tgrid, LEFT, rng.standard_normal(cfg.tgrid.n_levels))}
    psi = SpaceTimeField(cfg.grid, cfg.tgrid,
                         np.pad(rng.standard_normal((cfg.tgrid.n_levels, cfg.grid.n_interior)),
                                ((0, 0), (1, 1))))
    vdir = {LEFT: BoundaryTrace(cfg.tgrid, LEFT, rng.standard_normal(cfg.tgrid.n_levels))}
    psid = SpaceTimeField(cfg.grid, cfg.tgrid,
                          np.pad(rng.standard_normal((cfg.tgrid.n_levels, cfg.grid.n_interior)),
                                 ((0, 0), (1, 1))))
    rep = gateaux_check(cfg, params(), v, psi, (vdir, psid))
    for disc, floor in zip(rep.discrepancies, rep.noise_floors):
        assert disc <= max(1e-11, 100.0 * floor)

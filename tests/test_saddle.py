"""Follower equilibria: oracle equivalence, stationarity, saddle inequalities."""

import inspect
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from stackheat import heat, hum, saddle
from stackheat.config import parse_config
from stackheat.errors import ConvergenceError
from stackheat.grids import (LEFT, RIGHT, BoundarySet, BoundaryTrace, Region,
                             SpaceTimeField, SpatialGrid, TimeGrid)
from stackheat.oracle import dense_optimality_solve
from stackheat.products import qmid_field
from stackheat.saddle import (_leader_array, _picard_columns, build_problem, evaluate_functional,
                              solve_optimality, verify_saddle)
from stackheat.scenario import (ScenarioConfig, make_initial,
                                make_target, validate_config)

import _gtsv
from _instruments import (gateaux_check, l2q_norm_interior, reference_direction_values,
                          reference_equilibria)
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
    src = psi.interior + leader.interior
    bnd = v[LEFT].values  # rho = 1
    y = _gtsv.march(cfg.grid, cfg.tgrid, cfg.y0, src, left=bnd)
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
    rep = verify_saddle(cfg, sol, None, p, seed=3)
    off = dataclasses.replace(sol, functional_value=sol.functional_value + 1.0)
    assert rep.passed
    assert verify_saddle(cfg, off, None, p, seed=3) == rep



def test_verify_saddle_builds_no_modal_projector(monkeypatch):
    # the checks march in space, so on demo A they build none of the Picard
    # sweeps' modal operators (_Problem.modal is built on first use)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", "demo_a.ini"))
    cfg, p = spec.recipe.build(12, 12), spec.robust
    sol = solve_optimality(cfg, None, p)
    built = []
    real = saddle._modal_operators

    def counted(prob):
        built.append(prob)
        return real(prob)

    monkeypatch.setattr(saddle, "_modal_operators", counted)
    assert verify_saddle(cfg, sol, None, p, seed=3).passed
    evaluate_functional(cfg, p, sol.follower, sol.disturbance, None)
    assert built == []
    solve_optimality(cfg, None, p)   # a sweep builds them
    assert len(built) == 1

@pytest.mark.parametrize("count", [0, -1])
def test_verify_rejects_fewer_than_one_perturbation(count, monkeypatch):
    # a check along no direction would pass C/D without testing anything
    cfg = scenario_a(n=8, k=8)
    p = params()
    sol = solve_optimality(cfg, None, p)
    monkeypatch.setattr(saddle, "STATIONARITY_DIRECTIONS", count)
    with pytest.raises(ValueError, match="at least one direction"):
        verify_saddle(cfg, sol, None, p)


def test_zero_data_equilibrium_perturbations():
    # J(0, psi) <= 0 and J(v, 0) >= 0: at the zero equilibrium every direction
    # is exactly stationary, the control's curvature is at least ell^2 and the
    # disturbance's gain lies within the certified bound
    cfg = scenario_a(n=12, k=12, y0_kind="zero", target_kind="zero")
    p = params()
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, seed=4)
    assert rep.functional_value == 0.0
    assert rep.max_directional_derivative == 0.0
    control, disturbance = rep.players
    assert control.curvature >= 1.0 and 0.0 < disturbance.curvature <= rep.concavity.bound
    assert rep.passed and rep.offender == ""


def _broken(cfg, sol, shift):
    """``sol`` with the follower that verify reads shifted by ``shift``.

    A/B: the follower, on B's region; C/D: the rho_star-weighted follower, on
    the interior levels, since verify does not read the raw one.
    """
    import dataclasses
    c = cfg.configuration
    if c == "A":
        return dataclasses.replace(sol, follower={
            side: BoundaryTrace(cfg.tgrid, side, tr.values + shift)
            for side, tr in sol.follower.items()})
    if c == "B":
        vals = sol.follower.values.copy()
        vals[:, 1:-1][:, cfg.b1.interior_mask(cfg.grid)] += shift
        return dataclasses.replace(sol, follower=SpaceTimeField(cfg.grid, cfg.tgrid, vals))
    live = np.zeros(cfg.tgrid.n_levels)
    live[1:-1] = shift
    traces = sol.follower_weighted if c == "D" else (sol.follower_weighted,)
    broken = tuple(BoundaryTrace(cfg.tgrid, tr.side, tr.values + live) for tr in traces)
    return dataclasses.replace(sol, follower_weighted=broken if c == "D" else broken[0])


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
    rep = verify_saddle(cfg, _broken(cfg, sol, 0.5), None, p, seed=4)
    assert not rep.passed and not rep.conditions_hold
    assert rep.offender in [check.label for check in rep.players]


def _verify_case(conf):
    """A scenario with random data, and its parameters; C/D at s = 0.002, where
    rho_star^-2 is live and capped_weighted_sq takes its exp/log path."""
    if conf in "CD":
        return (builders()[conf](n=10, k=12, y0_kind="random", target_kind="random",
                                 seed=2, s=0.002), params(ell=3.0, ell2=4.0))
    return builders()[conf](n=10, k=12, y0_kind="random", target_kind="random", seed=2), params()


def _column_fields(slots: tuple, pairs: int, forward_time: bool) -> list:
    """Each column's fields, pairs first, of a sweep march's output in slots (``saddle._slots``).

    Slot 0 holds every column's first field; the further slots hold the
    further fields of the role that has them in this direction: a pair's
    thetas forward in time, an equilibrium's adjoints backward.
    """
    further = slots[1:]
    columns = []
    for row in range(len(slots[0])):
        pair = row < pairs
        own = [s[row if pair else row - pairs] for s in further] if pair == forward_time else []
        columns.append([slots[0][row]] + own)
    return columns


@pytest.mark.parametrize("conf", "ABCD")
def test_adjoints_are_one_batched_march_equal_to_lone_marches(conf, monkeypatch):
    # each sweep march (saddle._forward_hat, saddle._backward_hat) is one
    # march of its whole batch, D's two adjoints and two thetas among its
    # fields; every column equals its lone single-role march bit for bit at
    # every width, whether the batch holds equilibria, adjoint pairs, or
    # both (that many pairs, then that many equilibria); s = 0.01 keeps the
    # C/D feedback live
    kw = {"s": 0.01} if conf in "CD" else {}
    cfg = builders()[conf](n=10, k=12, y0_kind="random", target_kind="random", seed=3, **kw)
    prob = build_problem(cfg, params())
    hom, k = prob.homogeneous, prob.n_adjoints
    klev, n = cfg.tgrid.n_levels, cfg.grid.n_interior
    rng = np.random.default_rng(8)
    back = rng.standard_normal((k, 25, klev, n))   # phi (a pair's first), p_i (an equilibrium's)
    fwd = rng.standard_normal((k, 25, klev, n))    # theta_i (a pair's), y (an equilibrium's first)
    drive = _leader_array(prob, random_leader(cfg, seed=2))
    drive = np.stack([drive if prob.leader_side else drive @ prob.modal.s] * 25)
    data = rng.standard_normal((25, n)) @ prob.modal.s

    def forward(problem, pc, ec):
        """The forward-time march of pair columns ``pc``, then equilibrium columns ``ec``."""
        slots = (np.concatenate((back[0, pc], back[0, ec])),) + tuple(back[1:, ec])
        levels = saddle._forward_hat(problem, slots, len(pc), len(ec), drive[ec] if ec else None)
        return levels, len(pc) + len(ec) + (k - 1) * len(pc)

    def backward(problem, pc, ec):
        """The backward-time march of pair columns ``pc``, then equilibrium columns ``ec``."""
        slots = (np.concatenate((fwd[0, pc], fwd[0, ec])),) + tuple(fwd[1:, pc])
        # every field's terminal level: the pairs' data, zero for the equilibria's adjoints
        terminals = np.concatenate((data[pc], np.zeros((k * len(ec), n)))) if pc else None
        levels = saddle._backward_hat(problem, slots, len(pc), len(ec), terminals)
        return levels, len(pc) + len(ec) + (k - 1) * len(ec)

    real, shapes = heat._modal_levels, []

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(saddle, "_modal_levels", recorded)

    def columns(march, problem, pc, ec):
        """Each column's fields, copied out of the plan's buffer; the march is one of ``rows``."""
        shapes.clear()
        levels, rows = march(problem, pc, ec)
        assert shapes == [(rows, klev, n)]
        slots = saddle._slots(np.copy(levels), len(pc) + len(ec), k)
        return _column_fields(slots, len(pc), march is forward)

    for march in (forward, backward):
        for problem, roles in ((prob, "e"), (hom, "p"), (hom, "pe")):
            for width in (1, 2, 3, 25):
                pc, ec = ([list(range(width)) if r in roles else [] for r in "pe"])
                batched = columns(march, problem, pc, ec)
                lone = ([columns(march, problem, [j], [])[0] for j in pc]
                        + [columns(march, problem, [], [j])[0] for j in ec])
                assert [[f.tobytes() for f in c] for c in batched] == \
                    [[f.tobytes() for f in c] for c in lone], (march.__name__, roles, width)


@pytest.mark.parametrize("conf", "ABCD")
def test_verify_report_does_not_depend_on_the_block_width(conf, monkeypatch):
    cfg, p = _verify_case(conf)
    sol = solve_optimality(cfg, None, p)
    bad = _broken(cfg, sol, 0.5)
    one_block = [verify_saddle(cfg, s, None, p, seed=4) for s in (sol, bad)]
    assert one_block[0].passed and one_block[1].offender
    widths = []
    real = saddle._modal_levels

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        widths.append(out.shape[:-2])
        return out

    monkeypatch.setattr(saddle, "_modal_levels", recorded)
    # three directions per response march: a player's 10 (or C's 20) leave
    # a last block of one (two); one per march: every response is a lone march
    for width in (3, 1):
        widths.clear()
        monkeypatch.setattr(saddle, "_BLOCK_BYTES",
                            width * 8 * cfg.tgrid.n_levels * cfg.grid.n_interior)
        blocked = [verify_saddle(cfg, s, None, p, seed=4) for s in (sol, bad)]
        assert max(widths) == (width,)
        assert repr(blocked) == repr(one_block)


@pytest.mark.parametrize("conf", "ABCD")
def test_verify_marches_the_base_state_once_and_every_response_in_blocks(conf, monkeypatch):
    # the equilibrium's state is the one march in space (of the weighted
    # controls in C/D); every direction is a column of a modal response march
    # no wider than a block, one march per player at n = 50, and the two
    # points of a direction share one column; the closed bound certifies
    # the demos' concavity with no march
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"demo_{conf.lower()}.ini"))
    cfg, p = spec.recipe.build(50, 50), spec.robust
    sol = solve_optimality(cfg, None, p)
    spatial, widths = [], []
    real_march, real_levels = saddle.modal_march, saddle._modal_levels

    def march(*args, **kwargs):
        out = real_march(*args, **kwargs)
        spatial.append(out.shape)
        return out

    def levels(*args, **kwargs):
        out = real_levels(*args, **kwargs)
        widths.append(out.shape[:-2])
        return out

    monkeypatch.setattr(saddle, "modal_march", march)
    monkeypatch.setattr(saddle, "_modal_levels", levels)
    assert verify_saddle(cfg, sol, None, p, seed=3).passed
    assert spatial == [(cfg.tgrid.n_levels, cfg.grid.n_interior)]
    players = 1 if conf == "C" else 2
    assert all(len(w) == 1 and 1 <= w[0] <= saddle._block_width(cfg) for w in widths)
    assert sum(w[0] for w in widths) == saddle.STATIONARITY_DIRECTIONS
    assert len(widths) == players


def _verified_state(cfg, p):
    """(problem, raw leader, equilibrium, state, players) as ``verify_saddle`` builds them.

    The equilibrium is solved under a random leader; C/D's state and players
    are those of the rho_star-weighted followers.
    """
    prob = build_problem(cfg, p)
    leader = _leader_array(prob, random_leader(cfg, seed=3))
    sol = saddle._solve(prob, leader)
    if cfg.configuration in "AB":
        follower, disturbance = prob.raw(sol.follower, sol.disturbance)
        state = prob.state(follower, disturbance, leader)
    else:
        follower, disturbance = prob.raw(sol.follower_weighted)[0], None
        state = prob.state(tuple(prob.ginv * u for u in follower), None, leader)
    return prob, leader, sol, state, saddle._players(prob, follower, disturbance)


@pytest.mark.parametrize("n", [12, 50])
@pytest.mark.parametrize("conf", "ABCD")
def test_verify_values_agree_with_the_physical_scorer(conf, n, monkeypatch):
    # every player's cost at the equilibrium and at each point x +- step d,
    # read off the base state plus the response on the observed nodes, agrees
    # with marching each deviated control whole; so does the curvature d'Hd
    # the check reads off the points, (J+ + J- - 2 J) / step^2, to 1e-12 of
    # |J|; the tracking terms are held to the reference on their own
    kw = {"s": 0.002} if conf in "CD" else {}
    cfg = builders()[conf](n=n, k=n, y0_kind="random", target_kind="random", seed=2, **kw)
    p = params(ell=3.0, ell2=4.0) if conf in "CD" else params()
    prob, leader, sol, state, players = _verified_state(cfg, p)
    reference = reference_direction_values(prob, sol, leader, np.random.default_rng(4))

    tracking = []
    real = saddle._block_values

    def recorded(readout, observed, costs):
        # before the scorer consumes the readout's buffer
        tracking.append(0.5 * qmid_field(observed, observed, cfg.grid, cfg.tgrid.dt))
        return real(readout, observed, costs)

    monkeypatch.setattr(saddle, "_block_values", recorded)
    readout = saddle._Readout(prob)
    rng = np.random.default_rng(4)
    count = saddle.STATIONARITY_DIRECTIONS // len(players)
    assert len(reference) == len(players)
    for player, (ref_j0, ref_pairs, ref_norms, ref_tracking) in zip(players, reference):
        tracking.clear()
        j0, pairs, norms = saddle._direction_values(readout, state, player, count, rng)
        scale = abs(ref_j0)
        assert abs(j0 - ref_j0) <= 1e-12 * scale
        assert pairs.shape == ref_pairs.shape == (count, 2)
        assert np.max(np.abs(pairs - ref_pairs)) <= 1e-12 * scale
        assert np.max(np.abs(norms - ref_norms)) <= 1e-12 * np.max(ref_norms)
        curvature = (pairs[:, 0] + pairs[:, 1] - 2 * j0) / saddle._STEP ** 2
        ref_curvature = (ref_pairs[:, 0] + ref_pairs[:, 1] - 2 * ref_j0) / saddle._STEP ** 2
        assert np.max(np.abs(curvature - ref_curvature)) <= 1e-12 * scale / saddle._STEP ** 2
        # one block per player here: x, then the +step points, then the -step points
        assert [len(np.atleast_1d(t)) for t in tracking] == [1, count, count]
        got = np.concatenate([np.atleast_1d(t) for t in tracking])
        assert np.max(np.abs(got - ref_tracking)) <= 1e-12 * np.max(np.abs(ref_tracking))


@pytest.mark.parametrize("conf", "ABCD")
def test_block_functional_equals_lone_calls_bit_for_bit(conf, monkeypatch):
    # a block of one player's deviations, a strided slice of it and each
    # deviation alone score the same bits: the response march, its read-back
    # and the quadratures (B's masked costs node-major) keep each column's
    # lone arithmetic; so do every player's direction values at every block
    # width
    cfg, p = _verify_case(conf)
    prob, _, _, state, players = _verified_state(cfg, p)
    readout = saddle._Readout(prob)
    rng = np.random.default_rng(5)
    every_other = slice(1, None, 2)

    def values(player, deviations):
        residual = readout.residual(state, player.index)
        r = readout.response(player.index, *player.forcing(deviations))
        costs = player.costs(readout, deviations)
        return saddle._block_values(readout, np.add(residual, r, out=r), costs)

    for player in players:
        deviations = rng.uniform(1e-3, 1.0, (7,) + (1,) * len(player.shape)) \
            * rng.standard_normal((7,) + player.shape)
        block = values(player, deviations)
        lone = np.concatenate([values(player, deviations[j:j + 1]) for j in range(len(deviations))])
        strided = values(player, deviations[every_other])
        assert block.tobytes() == lone.tobytes()
        assert strided.tobytes() == lone[every_other].tobytes()
        assert player.norm(deviations).tobytes() == np.concatenate(
            [player.norm(deviations[j:j + 1]) for j in range(len(deviations))]).tobytes()
    scored = []
    for width in (saddle.STATIONARITY_DIRECTIONS, 3, 1):
        monkeypatch.setattr(saddle, "_BLOCK_BYTES",
                            width * 8 * cfg.tgrid.n_levels * cfg.grid.n_interior)
        # a readout's buffers are as wide as the block width when it is built
        readout = saddle._Readout(prob)
        rng = np.random.default_rng(6)
        scored.append(pickle.dumps([saddle._direction_values(readout, state, player, 10, rng)
                                    for player in players]))
    assert scored[1:] == scored[:1] * 2


def _verify_capture(root, cases) -> list:
    """``verify_saddle`` on each (demo, n) in turn, in this process: its report and the bytes
    of each player's direction values it scored.

    Each case is the demo's zero-leader equilibrium at n = K = n, checked
    with seed 0.  The source of this function is also the script a fresh
    interpreter runs.
    """
    import os
    import pickle

    from stackheat import saddle
    from stackheat.config import parse_config

    real, seen = saddle._direction_values, []

    def kept(*args):
        values = real(*args)
        seen.append(pickle.dumps(values))
        return values

    saddle._direction_values = kept
    try:
        out = []
        for demo, n in cases:
            spec = parse_config(os.path.join(root, "configs", f"demo_{demo}.ini"))
            cfg = spec.recipe.build(n, n)
            sol = saddle.solve_optimality(cfg, None, spec.robust)
            seen.clear()
            report = saddle.verify_saddle(cfg, sol, None, spec.robust, seed=0)
            out.append((repr(report), tuple(seen)))
        return out
    finally:
        saddle._direction_values = real


def test_verify_scratch_leaks_nothing_between_players_blocks_or_calls():
    # a call's buffers serve both players and every block, and the next call
    # starts on fresh ones: A, B, A on a smaller grid
    # and A again in one process each equal the same call made alone in a
    # fresh interpreter, bit for bit
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cases = [("a", 50), ("b", 50), ("a", 12), ("a", 50)]
    script = inspect.getsource(_verify_capture) + (
        "import pickle, sys\n"
        "case = (sys.argv[2], int(sys.argv[3]))\n"
        "sys.stdout.write(pickle.dumps(_verify_capture(sys.argv[1], [case])).hex())\n")
    src = os.path.dirname(os.path.dirname(saddle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh = {case: subprocess.Popen([sys.executable, "-c", script, root, case[0], str(case[1])],
                                    stdout=subprocess.PIPE, env=env, text=True)
             for case in dict.fromkeys(cases)}
    reused = _verify_capture(root, cases)
    for case, proc in fresh.items():
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        fresh[case] = pickle.loads(bytes.fromhex(out))[0]
    for case, got in zip(cases, reused):
        assert len(got[1]) == 2   # the control's direction values, then the disturbance's
        assert got == fresh[case]
    assert reused[0] == reused[3]


# --- the concavity certificate and the curvature check ---------------------------

def _demo_problem(conf, n, **robust):
    """Demo ``conf``'s problem at n = K = n, its parameters replaced by ``robust``; no solve."""
    import dataclasses
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"demo_{conf.lower()}.ini"))
    return build_problem(spec.recipe.build(n, n), dataclasses.replace(spec.robust, **robust))


def _dense_gain(prob) -> float:
    """|G|^2 by a dense SVD, G assembled column by column from ``heat.modal_march`` in space.

    Column j is the midpoint values, on the observed nodes, of the state
    driven from zero by a disturbance whose midpoint values are the j-th unit
    z: level 0 zero and level k + 1 = 2 z_k - level k.
    """
    cfg = prob.cfg
    k, n = cfg.tgrid.n_steps, cfg.grid.n_interior
    nodes = np.arange(n) if prob.b2_mask is None else np.flatnonzero(prob.b2_mask)
    units = np.eye(k * len(nodes)).reshape(-1, k, len(nodes))
    psi = np.zeros((len(units), k + 1, n))
    for level in range(k):
        psi[:, level + 1, nodes] = 2 * units[:, level] - psi[:, level, nodes]
    y = heat.modal_march(cfg.grid, cfg.tgrid, np.zeros(n), psi)
    g = heat.favg(y[..., prob.obs_masks[0]], 1).reshape(len(units), -1).T
    return float(np.linalg.norm(g, 2) ** 2)


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("conf", "AB")
def test_concavity_bounds_bracket_the_dense_gain(conf, n):
    # closed bound >= Lanczos value >= dense |G|^2 - tol, and the Lanczos
    # bound is at least the dense value; Lanczos runs here until its bound
    # is at most 1, and the demos' gamma^2 = 100 takes the closed bound
    prob = _demo_problem(conf, n)
    readout = saddle._Readout(prob)
    dense = _dense_gain(prob)
    demo = saddle._concavity(readout, np.random.default_rng(0))
    closed = demo.bound
    nodes = slice(None) if conf == "A" else np.flatnonzero(prob.b2_mask)
    cert = saddle._lanczos_gain(readout, readout.plan.s[nodes], 1.0, np.random.default_rng(0))
    assert cert.method == "lanczos" and 1 <= cert.steps < saddle.LANCZOS_STEPS
    assert closed >= cert.value >= dense * (1 - 1e-10)
    assert dense <= cert.bound <= 1.0
    assert demo == saddle.Concavity(closed, closed, "closed", 0)


def test_the_transpose_march_is_the_gain_s_transpose():
    # <G z, y> = <z, G'y> to round-off, G'y being one backward march
    prob = _demo_problem("A", 12)
    readout = saddle._Readout(prob)
    rows, k = readout.plan.s, prob.cfg.tgrid.n_steps
    rng = np.random.default_rng(1)
    z, y = rng.standard_normal((k, 12)), rng.standard_normal((k, len(readout.nodes[0])))
    source = np.zeros((1, k + 1, 12))
    for level in range(k):
        source[0, level + 1] = 2 * z[level] - source[0, level]
    gz = heat.favg(readout.response(0, source, rows, None)[0])
    gty = readout.transpose(y, rows)
    assert abs(np.vdot(gz, y) - np.vdot(z, gty)) <= 1e-14 * np.linalg.norm(gz) * np.linalg.norm(y)


@pytest.mark.parametrize("gamma, status", [(0.05, "fail"), (0.1, "pass")])
def test_disturbance_concavity_verdict_at_small_gamma(gamma, status):
    # no saddle point exists at gamma = 0.05 (|G|^2 = 5.0e-3 at n = 12); at
    # gamma = 0.1 the closed bound 1.02e-2 exceeds gamma^2 = 0.01, and
    # Lanczos certifies it; the problem is built directly, since Picard
    # does not contract there
    from stackheat.runner import _verify_verdicts
    closed = saddle._concavity(saddle._Readout(_demo_problem("A", 12)), None).bound
    assert closed > gamma ** 2
    prob = _demo_problem("A", 12, ell=gamma, gamma=gamma)
    cert = saddle._concavity(saddle._Readout(prob), np.random.default_rng(1000))
    assert cert.method == "lanczos"
    rep = saddle.VerifyReport(0.0, (saddle.PlayerCheck("control", False, 0.0, 1.0),
                                    saddle.PlayerCheck("disturbance", True, 0.0, 0.0)),
                              cert, gamma ** 2)
    (verdict,) = [v for v in _verify_verdicts(prob.cfg, rep) if v.name == "disturbance_concavity"]
    assert verdict.status == status and rep.passed == (status == "pass")
    assert verdict.value == cert.bound and "Lanczos" in verdict.reason
    if status == "fail":
        assert cert.value > gamma ** 2   # the Ritz value alone refutes concavity
    else:
        assert cert.value <= cert.bound <= gamma ** 2


@pytest.mark.parametrize("conf", "AC")
def test_a_minimizer_with_a_flipped_control_cost_fails_the_curvature_check(conf, monkeypatch):
    # negate the minimizing player's cost terms: its curvature turns
    # negative; C's follower is inert at the demo weight, so its directional
    # derivatives stay 0 and only the curvature check sees the flip
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"demo_{conf.lower()}.ini"))
    cfg = spec.recipe.build(12, 12)
    sol = solve_optimality(cfg, None, spec.robust)
    assert verify_saddle(cfg, sol, None, spec.robust).passed
    real = saddle._players

    def flipped(*args):
        def negated(costs):
            return lambda readout, delta: tuple(-term for term in costs(readout, delta))
        return [p if p.maximizes else p._replace(costs=negated(p.costs)) for p in real(*args)]

    monkeypatch.setattr(saddle, "_players", flipped)
    rep = verify_saddle(cfg, sol, None, spec.robust)
    assert rep.players[0].curvature < 0 and not rep.conditions_hold
    assert rep.offender == rep.players[0].label
    assert rep.stationary == (conf == "C")


def test_saddle_verification_config_a():
    cfg = scenario_a(n=20, k=20, y0_kind="random", target_kind="random", seed=7)
    p = params()
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, seed=1)
    control, disturbance = rep.players
    assert control.curvature >= 1.0   # d'Hd >= ell^2 |d|^2
    assert disturbance.curvature <= rep.concavity.bound <= p.gamma ** 2
    assert rep.max_directional_derivative <= 1e-8 * (1 + abs(rep.functional_value))
    assert rep.passed


def test_saddle_verification_config_b():
    cfg = scenario_b(n=16, k=16, y0_kind="random", target_kind="random", seed=3)
    p = params()
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, seed=2)
    assert rep.passed and rep.concavity.method == "closed"


def test_minimality_config_c():
    cfg = scenario_c(n=16, k=16, y0_kind="random", target_kind="random", seed=3, s=0.002)
    p = params(ell=3.0)
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, seed=2)
    assert rep.players[0].curvature >= 1.0 - 1e-12 and rep.concavity is None
    assert rep.passed


def test_nash_conditions_config_d():
    cfg = scenario_d(n=12, k=12, y0_kind="random", target_kind="random", seed=3, s=0.002)
    p = params(ell=3.0, ell2=4.0)
    leader = random_leader(cfg, seed=11, amplitude=0.3)
    sol = solve_optimality(cfg, leader, p)
    rep = verify_saddle(cfg, sol, leader, p, seed=2)
    assert [check.label for check in rep.players] == ["control 1", "control 2"]
    assert min(check.curvature for check in rep.players) >= 1.0 - 1e-12
    assert rep.passed


def test_nash_conditions_config_d_default_weights():
    # the shipped weight makes the boundary penalty huge; in the weighted
    # variable the checks stay finite and deviations still lose
    cfg = scenario_d(n=10, k=10, y0_kind="random", target_kind="random", seed=6)
    p = params()
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, seed=5)
    # the followers are inert here: d'Hd is ell^2 |d|^2 to round-off
    assert min(check.curvature for check in rep.players) >= 1.0 - 1e-12 and rep.conditions_hold


# --- contraction ----------------------------------------------------------------

def test_contraction_ratio_decreases_with_mu():
    for seed in (0, 1, 2):
        cfg = scenario_a(n=12, k=12, y0_kind="random", target_kind="random", seed=seed)
        slow = solve_optimality(cfg, None, params(ell=5.0, gamma=5.0,
                                                  max_iterations=400)).contraction_ratios
        fast = solve_optimality(cfg, None, params(ell=20.0, gamma=20.0,
                                                  max_iterations=400)).contraction_ratios
        assert np.median(fast) < np.median(slow)


def test_contraction_example_10_vs_5():
    cfg = scenario_a(n=10, k=10, y0_kind="random", target_kind="random", seed=4)
    r5 = solve_optimality(cfg, None, params(ell=5.0, gamma=5.0)).contraction_ratios
    r10 = solve_optimality(cfg, None, params(ell=10.0, gamma=10.0)).contraction_ratios
    assert np.median(r10) < np.median(r5)


@pytest.mark.parametrize("demo", ["demo_a", "demo_b"])
def test_contraction_ratio_does_not_depend_on_the_march(demo):
    # the modal sweeps and the physical coupling on the gtsv march agree to
    # round-off; the reported ratio must too, so it may not read ratios of
    # corrections that are themselves round-off
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"{demo}.ini"))
    prob = build_problem(spec.scenario, spec.robust)
    ratios = reference_equilibria(prob, None, (_gtsv.march, _gtsv.march_backward))[0][4]
    modal = solve_optimality(spec.scenario, None, spec.robust).contraction_ratio
    assert np.median(ratios) > 0
    assert modal == pytest.approx(float(np.median(ratios)), rel=1e-6)


def _keep(state, adjoints, cols):
    """A ``finish`` that keeps the final state and adjoints as they are."""
    return state, adjoints


def _scripted(steps, **kw):
    """One ``_picard_columns`` column whose adjoint moves by the scripted corrections ``steps``."""
    cfg = scenario_a(n=8, k=8)
    prob = build_problem(cfg, params(**kw))
    unit = np.ones((1, cfg.tgrid.n_levels, cfg.grid.n_interior))
    steps = iter(steps)
    adjoint = [0.0 * unit]

    def backward(state):
        adjoint.append(adjoint[-1] + next(steps) * unit)
        return (adjoint[-1],)

    out, = _picard_columns(prob, lambda adjoints, cols: unit, backward, 1, width=1, finish=_keep)
    return out


def test_picard_round_off_exit_has_its_own_status():
    # scripted corrections 1, 1e-7, 2e-7, 4e-7: two growing ones below 1e-6
    # of the first take the round-off exit at sweep 4
    out = _scripted([1.0, 1e-7, 2e-7, 4e-7])
    assert len(out) == 6 and out[5] == "round-off"
    assert out[2] == 4
    # the cumulative sums lose about 1e-9 relative to cancellation
    assert out[3] == pytest.approx(4e-7, rel=1e-6)
    assert out[4] == pytest.approx((1e-7, 2.0, 2.0), rel=1e-6)


def test_picard_stops_on_the_contraction_error_bound():
    # ratio 3e-4 throughout: at sweep 4 the correction 2.7e-11 is far above
    # tol = 1e-13 of the first, but theta / (1 - theta) * 2.7e-11 = 8.1e-15
    # bounds the remaining error below it; the plain rule alone would take
    # one more sweep (8.1e-15)
    out = _scripted([1.0, 3e-4, 9e-8, 2.7e-11])
    assert out[5] == "converged" and out[2] == 4
    # the residual keeps its definition, last over first, above the tolerance
    assert out[3] == pytest.approx(2.7e-11, rel=1e-4)
    assert out[3] > params().fixed_point_tol


def test_picard_single_small_ratio_stops_no_column():
    # 1e-7 / (1 - 1e-7) * 1e-7 would pass the bound at sweep 2, but theta
    # holds two ratios from sweep 3 on: the 1e-2 of sweep 3 keeps the column
    # going (bound 1e-11), and sweep 4 stops on the bound (1.01e-14)
    col = saddle._Column()
    tol = params().fixed_point_tol
    assert col.stop(1.0, 1, tol) is None and col.stop(1e-7, 2, tol) is None
    out = _scripted([1.0, 1e-7, 1e-9, 1e-12])
    assert out[5] == "converged" and out[2] == 4


def test_picard_bound_counts_ratios_below_the_floor():
    # the correction 5e-9 lies below _RATIO_FLOOR of the first, so its ratio
    # 5e-3 is not reported; theta still counts it, and at sweep 3 the bound
    # 5e-3 / (1 - 5e-3) * 5e-9 = 2.5e-11 keeps the column going
    out = _scripted([1.0, 1e-6, 5e-9, 1e-12])
    assert out[5] == "converged" and out[2] == 4
    assert out[4] == pytest.approx((1e-6,), rel=1e-6)


def test_picard_slow_contraction_stops_where_the_plain_rule_does():
    # theta = 0.6 makes the bound 1.5 times the correction, so only the
    # plain rule delta_s <= tol * delta_1 can stop the column
    tol = 1e-6
    plain = next(s for s in range(1, 100) if 0.6 ** (s - 1) <= tol)
    out = _scripted([0.6 ** j for j in range(plain + 5)], fixed_point_tol=tol)
    assert out[5] == "converged" and out[2] == plain == 29


@pytest.mark.parametrize("conf", "AD")
@pytest.mark.parametrize("width", [1, 2, 25])
def test_picard_correction_is_the_root_of_the_summed_squared_norms(conf, width, monkeypatch):
    # a column's correction is sqrt(sum over its adjoints (one in A, two in D)
    # of l2q_norm_interior(new - old)^2), bit for bit, at every width and as
    # columns stop one by one; the scripted adjoints move by random fields
    # shrinking at each column's own rate
    cfg = builders()[conf](n=12, k=10, y0_kind="random", target_kind="random", seed=3)
    prob = build_problem(cfg, params(fixed_point_tol=1e-6))
    shape = (cfg.tgrid.n_levels, cfg.grid.n_interior)
    rng = np.random.default_rng(width)
    rate = rng.uniform(0.05, 0.5, width)
    sweep = {"count": 0}
    expected, got = [], []

    def forward(adjoints, cols):
        # the first sweep's adjoints are zero, and the loop passes None for them
        old = [np.zeros((len(cols),) + shape)] * prob.n_adjoints if adjoints is None else adjoints
        sweep["old"], sweep["cols"] = [a.copy() for a in old], list(cols)
        return np.zeros((len(cols),) + shape)

    def backward(state):
        sweep["count"] += 1
        scale = rate[sweep["cols"]] ** sweep["count"]
        new = tuple(old + scale[:, None, None] * rng.standard_normal(old.shape)
                    for old in sweep["old"])
        for pos in range(len(scale)):
            expected.append(float(np.sqrt(sum(
                l2q_norm_interior(a[pos] - b[pos], cfg.grid, cfg.tgrid.dt) ** 2
                for a, b in zip(new, sweep["old"])))))
        return new

    real = saddle._Column.stop

    def recorded(self, delta, it, tol):
        got.append(delta)
        return real(self, delta, it, tol)

    monkeypatch.setattr(saddle._Column, "stop", recorded)
    out = _picard_columns(prob, forward, backward, prob.n_adjoints, width=width, finish=_keep)
    assert [r[5] for r in out] == ["converged"] * width
    assert len(got) == len(expected) >= sweep["count"] > 1
    assert [d.hex() for d in got] == [d.hex() for d in expected]


def test_batch_out_of_sweeps_counts_its_unconverged_columns():
    # scripted corrections: column 0 is exact at once, columns 1 and 2 contract
    # at 0.5 and 0.9 and run out of sweeps with last relative corrections
    # 0.5^3 and 0.9^3; the error counts both and gives the larger
    cfg = scenario_a(n=8, k=8)
    prob = build_problem(cfg, params(max_iterations=4))
    amplitude, rate = np.array([0.0, 1.0, 1.0]), np.array([0.5, 0.5, 0.9])
    unit = np.ones((1, cfg.tgrid.n_levels, cfg.grid.n_interior))
    sweep = {"cols": None, "count": 0}

    def forward(adjoints, cols):
        # the exact column's final forward solve is no sweep: backward counts them
        sweep["cols"] = cols
        return np.zeros((len(cols),) + unit.shape[1:])

    def backward(state):
        sweep["count"] += 1
        r, k = rate[sweep["cols"]], sweep["count"]
        return (unit * (amplitude[sweep["cols"]] * (1 - r ** k) / (1 - r))[:, None, None],)

    with pytest.raises(ConvergenceError, match=r"within 4 sweeps \(in 2 of 3 columns; "
                                               r"largest last relative correction 0\.729\)"):
        _picard_columns(prob, forward, backward, 1, width=3, finish=_keep)


def _assert_column_bits(batched, single, j):
    """``single`` equals column ``j`` of ``batched`` bit for bit, through tuples and Nones.

    An input without the batch axis (a shared one, such as the leader) serves every column.
    """
    if isinstance(single, tuple):
        assert isinstance(batched, tuple) and len(batched) == len(single)
        for b, s in zip(batched, single):
            _assert_column_bits(b, s, j)
    elif single is None:
        assert batched is None
    else:
        column = batched[j] if batched.ndim > np.ndim(single) else batched
        assert np.ascontiguousarray(column).tobytes() == np.asarray(single).tobytes()


@pytest.mark.parametrize("conf", "ABCD")
def test_batched_feedback_and_forcing_match_per_column_calls(conf):
    # adjoints with a leading batch axis of 3 columns; s = 0.01 keeps the
    # C/D feedback weights live (at s = 1 they underflow to 0)
    kw = {"s": 0.01} if conf in "CD" else {}
    cfg = builders()[conf](n=10, k=10, **kw)
    prob = build_problem(cfg, params())
    rng = np.random.default_rng(11)
    shape = (3, cfg.tgrid.n_levels, cfg.grid.n_interior)
    adjoints = tuple(rng.standard_normal(shape) for _ in range(prob.n_adjoints))
    leader = _leader_array(prob, random_leader(cfg, seed=2))
    for weight in (prob.g2inv, prob.ginv):
        follower, disturbance = prob.feedback(adjoints, weight)
        forcing = prob.forcing(follower, disturbance, leader)
        for j in range(shape[0]):
            column = tuple(a[j] for a in adjoints)
            fol_j, dist_j = prob.feedback(column, weight)
            _assert_column_bits((follower, disturbance), (fol_j, dist_j), j)
            _assert_column_bits(forcing, prob.forcing(fol_j, dist_j, leader), j)


def test_solution_carries_the_picard_exit_status():
    cfg = scenario_a(n=8, k=8)
    assert solve_optimality(cfg, None, params()).exit_status == "converged"


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

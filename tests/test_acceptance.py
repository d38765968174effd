"""Acceptance suite: one test per shipped criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Numerical regression baselines live in tests/baselines.json and
runs must stay within 5% of them.  A key missing from that file fails the
test: a new baseline is added to the file by hand, never by a test run.
"""

import json
import os
import time

import numpy as np
import pytest

from stackheat.csvio import sha256_of
from stackheat.grids import LEFT, BoundaryTrace, SpaceTimeField, SpatialGrid, TimeGrid
from stackheat.heat import solve_forward
from stackheat.hum import (GramBasis, HumSettings, gradient_check, gram_apply, hum_minimize,
                           observability_probe, observation_pairing, solve_adjoint)
from stackheat.oracle import dense_optimality_solve
from stackheat.products import h10_inner, h10_norm
from stackheat.saddle import (gateaux_check, measure_contraction,
                              solve_optimality, verify_saddle)

from _scenarios import (builders, params, probe_scenario_a, random_leader,
                        scenario_a, scenario_b, scenario_c, scenario_d)

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines.json")


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _check_baseline(key: str, values, rel: float = 0.05) -> str:
    with open(BASELINE_PATH) as fh:
        data = json.load(fh)
    if key not in data:
        pytest.fail(f"no baseline {key!r} in {os.path.basename(BASELINE_PATH)}; "
                    f"record {[float(v) for v in np.atleast_1d(values)]} there to add one")
    ref = np.asarray(data[key])
    got = np.atleast_1d(np.asarray(values, dtype=float))
    if got.shape != ref.shape:
        return f"baseline shape mismatch: {got.shape} vs {ref.shape}"
    dev = np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300))
    return f"within {dev:.2%} of baseline" if dev <= rel else \
        f"DEVIATES {dev:.2%} from baseline"


def _eps_sweep_residuals(cfg, p, epsilons=(1e-2, 1e-4, 1e-6)):
    import warnings
    basis, out = GramBasis(cfg, p), []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for eps in epsilons:
            res = hum_minimize(cfg, p, HumSettings(epsilon=eps, cg_tol=1e-11),
                               basis=basis)
            out.append(res.terminal_residual_hminus1)
    return out


def test_criterion_1_solver_accuracy():
    t0 = time.perf_counter()
    errs, hs = [], []
    for n in (25, 50, 100):
        grid = SpatialGrid(n)
        tgrid = TimeGrid(max(2, round(0.5 / grid.dx)), 0.5)  # dt = dx
        y = solve_forward(grid, tgrid, np.sin(np.pi * grid.interior_nodes()))
        exact = (np.exp(-np.pi ** 2 * tgrid.times())[:, None]
                 * np.sin(np.pi * grid.nodes())[None, :])
        errs.append(float(np.max(np.abs(y.values - exact))))
        hs.append(grid.dx)
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    _report(1, order >= 1.9 and elapsed < 5.0,
            f"observed order {order:.3f} over grids (25, 50, 100), {elapsed:.2f} s")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for conf, maker in builders().items():
        cfg = maker(n=4, k=4, y0_kind="random", target_kind="random", seed=11)
        p = params()
        leader = random_leader(cfg, seed=13, amplitude=0.5)
        sol = solve_optimality(cfg, leader, p)
        state, adjoints = dense_optimality_solve(cfg, leader, p)
        scale = max(float(np.max(np.abs(state))), 1.0)
        disc = float(np.max(np.abs(sol.state.interior - state))) / scale
        for a_fp, a_d in zip(sol.adjoints, adjoints):
            disc = max(disc, float(np.max(np.abs(a_fp.interior - a_d))) / scale)
        worst = max(worst, disc)
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-10 and elapsed < 1.0,
            f"max Picard-vs-dense discrepancy {worst:.2e} over A-D, {elapsed:.2f} s")


def test_criterion_3_saddle_verification():
    t0 = time.perf_counter()
    cfg = scenario_a(n=50, k=50, y0_kind="random", target_kind="random", seed=23)
    p = params(ell=10.0, gamma=10.0)
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, n_perturbations=100, seed=29)
    elapsed = time.perf_counter() - t0
    stat_tol = 1e-8 * (1 + abs(rep.functional_value))
    ok = (rep.max_min_violation <= 1e-9 and rep.max_max_violation <= 1e-9
          and rep.max_directional_derivative <= stat_tol and elapsed < 30.0)
    _report(3, ok, f"worst saddle violations ({rep.max_min_violation:.2e}, "
                   f"{rep.max_max_violation:.2e}), gradient {rep.max_directional_derivative:.2e}, "
                   f"{elapsed:.1f} s at n=50")


def test_criterion_4_contraction_trend():
    oks, pairs = [], []
    for seed in (0, 1, 2):
        cfg = scenario_a(n=16, k=16, y0_kind="random", target_kind="random", seed=seed)
        slow = np.median(measure_contraction(cfg, None, params(ell=5.0, gamma=5.0), sweeps=8))
        fast = np.median(measure_contraction(cfg, None, params(ell=20.0, gamma=20.0), sweeps=8))
        oks.append(fast < slow)
        pairs.append((slow, fast))
    detail = ", ".join(f"mu=25: {s:.2e} vs mu=400: {f:.2e}" for s, f in pairs)
    _report(4, all(oks), f"ratios strictly decrease over 3 seeds ({detail})")


def test_criterion_5_gateaux_exactness():
    rng = np.random.default_rng(31)
    cfg = scenario_a(n=30, k=30, y0_kind="zero", target_kind="zero")
    zero_tr = {LEFT: BoundaryTrace.zeros(cfg.tgrid, LEFT)}
    zero_f = SpaceTimeField.zeros(cfg.grid, cfg.tgrid)
    vdir = {LEFT: BoundaryTrace(cfg.tgrid, LEFT, rng.standard_normal(cfg.tgrid.n_levels))}
    psid = SpaceTimeField(cfg.grid, cfg.tgrid,
                          np.pad(rng.standard_normal((cfg.tgrid.n_levels, cfg.grid.n_interior)),
                                 ((0, 0), (1, 1))))
    rep = gateaux_check(cfg, params(), zero_tr, zero_f, (vdir, psid),
                        lambdas=(1.0, 1e-3, 1e-6))
    ok = rep.max_discrepancy <= 1e-11 and rep.initial_level_max == 0.0
    _report(5, ok, "difference-quotient vs linearized-solve discrepancies "
                   + str(tuple(f"{d:.1e}" for d in rep.discrepancies))
                   + " over steps (1, 1e-3, 1e-6)")


def test_criterion_6_hum_duality():
    cfg = scenario_a(n=16, k=16, y0_kind="sine", target_kind="sine_cutoff")
    p = params()
    rng = np.random.default_rng(37)
    worst_sym = 0.0
    min_pos = np.inf
    for _ in range(20):
        a = rng.standard_normal(cfg.grid.n_interior)
        b = rng.standard_normal(cfg.grid.n_interior)
        ga, gb = gram_apply(cfg, a, p), gram_apply(cfg, b, p)
        na, nb = h10_norm(a, cfg.grid), h10_norm(b, cfg.grid)
        worst_sym = max(worst_sym, abs(h10_inner(ga, b, cfg.grid)
                                       - h10_inner(gb, a, cfg.grid)) / (na * nb))
        min_pos = min(min_pos, h10_inner(ga, a, cfg.grid) / na ** 2)
    grep = gradient_check(cfg, p, HumSettings(epsilon=1e-3),
                          rng.standard_normal(cfg.grid.n_interior),
                          n_directions=10, seed=41)
    ok = worst_sym <= 1e-12 and min_pos >= -1e-12 and grep.max_relative_error <= 1e-6
    _report(6, ok, f"Gram asymmetry {worst_sym:.2e}, min Rayleigh {min_pos:.2e}, "
                   f"gradient-vs-FD error {grep.max_relative_error:.2e} (10 directions)")


def test_criterion_7_null_control_law_config_a():
    t0 = time.perf_counter()
    cfg = scenario_a(n=50, k=50, T=0.5, y0_kind="sine", target_kind="sine_cutoff")
    res = _eps_sweep_residuals(cfg, params())
    elapsed = time.perf_counter() - t0
    ratios = [a / b for a, b in zip(res, res[1:])]
    base = _check_baseline("criterion7_config_a_residuals", res)
    ok = all(3.0 <= r <= 30.0 for r in ratios) and "DEVIATES" not in base \
        and "mismatch" not in base and elapsed < 120.0
    _report(7, ok, f"residuals {tuple(f'{r:.3e}' for r in res)}, ratios "
                   f"{tuple(f'{r:.1f}' for r in ratios)}, {base}, {elapsed:.1f} s")


def test_criterion_8_boundary_leader_config_b():
    # oracle equivalence
    cfg4 = scenario_b(n=4, k=4, y0_kind="random", target_kind="random", seed=3)
    p = params()
    sol = solve_optimality(cfg4, random_leader(cfg4, 5), p)
    state, adjoints = dense_optimality_solve(cfg4, random_leader(cfg4, 5), p)
    scale = max(float(np.max(np.abs(state))), 1.0)
    disc = float(np.max(np.abs(sol.state.interior - state))) / scale
    # Gram duality with the boundary observation
    cfg = scenario_b(n=16, k=16, y0_kind="sine", target_kind="sine_cutoff")
    rng = np.random.default_rng(43)
    worst_sym = 0.0
    for _ in range(20):
        a = rng.standard_normal(cfg.grid.n_interior)
        b = rng.standard_normal(cfg.grid.n_interior)
        ga, gb = gram_apply(cfg, a, p), gram_apply(cfg, b, p)
        worst_sym = max(worst_sym, abs(h10_inner(ga, b, cfg.grid) - h10_inner(gb, a, cfg.grid))
                        / (h10_norm(a, cfg.grid) * h10_norm(b, cfg.grid)))
    grep = gradient_check(cfg, p, HumSettings(epsilon=1e-3),
                          rng.standard_normal(cfg.grid.n_interior),
                          n_directions=10, seed=47)
    # residual law
    cfg50 = scenario_b(n=50, k=50, T=0.5, y0_kind="sine", target_kind="sine_cutoff")
    res = _eps_sweep_residuals(cfg50, p)
    ratios = [a / b for a, b in zip(res, res[1:])]
    base = _check_baseline("criterion8_config_b_residuals", res)
    ok = (disc <= 1e-10 and worst_sym <= 1e-12 and grep.max_relative_error <= 1e-6
          and all(3.0 <= r <= 30.0 for r in ratios) and "DEVIATES" not in base)
    _report(8, ok, f"oracle {disc:.1e}, Gram asymmetry {worst_sym:.1e}, gradient "
                   f"{grep.max_relative_error:.1e}, boundary-observation ratios "
                   f"{tuple(f'{r:.1f}' for r in ratios)}, {base}")


def test_criterion_9_all_boundary_config_c():
    # exact-zero underflow of the adjoint boundary datum at default (s, lambda)
    cfg = scenario_c(n=10, k=50, T=1.0)
    rng = np.random.default_rng(53)
    pair = solve_adjoint(cfg, rng.standard_normal(cfg.grid.n_interior), params())
    t = cfg.tgrid.times()
    edge = pair.theta.values[:, -1]
    outer = (t <= 0.02 * cfg.tgrid.horizon) | (t >= 0.98 * cfg.tgrid.horizon)
    underflow_ok = bool(np.all(edge[outer] == 0.0))
    # oracle equivalence (criterion 2 for C)
    cfg4 = scenario_c(n=4, k=4, y0_kind="random", target_kind="random", seed=7)
    sol = solve_optimality(cfg4, None, params())
    state, adjoints = dense_optimality_solve(cfg4, None, params())
    disc = float(np.max(np.abs(sol.state.interior - state))) / max(float(np.max(np.abs(state))), 1.0)
    # residual law (criterion 7 for C)
    cfg50 = scenario_c(n=50, k=50, T=0.5, y0_kind="sine", target_kind="sine_cutoff")
    res = _eps_sweep_residuals(cfg50, params())
    ratios = [a / b for a, b in zip(res, res[1:])]
    base = _check_baseline("criterion9_config_c_residuals", res)
    ok = (underflow_ok and disc <= 1e-10 and all(3.0 <= r <= 30.0 for r in ratios)
          and "DEVIATES" not in base)
    _report(9, ok, f"boundary datum exactly 0 in the outer 2% of [0,T]: {underflow_ok}, "
                   f"oracle {disc:.1e}, ratios {tuple(f'{r:.1f}' for r in ratios)}, {base}")


def test_criterion_10_nash_config_d():
    cfg4 = scenario_d(n=4, k=4, y0_kind="random", target_kind="random", seed=9, s=0.002)
    p4 = params(ell=3.0, ell2=4.0)
    leader = random_leader(cfg4, seed=17, amplitude=0.4)
    sol4 = solve_optimality(cfg4, leader, p4)
    state, adjoints = dense_optimality_solve(cfg4, leader, p4)
    scale = max(float(np.max(np.abs(state))), 1.0)
    disc = float(np.max(np.abs(sol4.state.interior - state))) / scale
    for a_fp, a_d in zip(sol4.adjoints, adjoints):
        disc = max(disc, float(np.max(np.abs(a_fp.interior - a_d))) / scale)

    cfg = scenario_d(n=20, k=20, y0_kind="random", target_kind="random", seed=19)
    p = params()
    sol = solve_optimality(cfg, None, p)
    rep = verify_saddle(cfg, sol, None, p, n_perturbations=50, seed=59)
    ok = disc <= 1e-10 and rep.max_min_violation <= 1e-9
    _report(10, ok, f"dense-oracle discrepancy {disc:.1e}, worst unilateral-deviation "
                    f"violation {rep.max_min_violation:.2e} over 50 perturbations x 2 followers")


def test_criterion_11_observability_probe():
    p = params()
    cfg = probe_scenario_a()
    # degree-0 homogeneity
    rng = np.random.default_rng(61)
    a = rng.standard_normal(cfg.grid.n_interior)
    pair1 = solve_adjoint(cfg, a, p)
    pair2 = solve_adjoint(cfg, 2.0 * a, p)
    r1 = h10_inner(pair1.phi.interior[0], pair1.phi.interior[0], cfg.grid) \
        / observation_pairing(cfg, pair1, pair1)
    r2 = h10_inner(pair2.phi.interior[0], pair2.phi.interior[0], cfg.grid) \
        / observation_pairing(cfg, pair2, pair2)
    homog = abs(r1 - r2) / abs(r1)
    finite_ok = True
    trend_ok = True
    maxima = []
    for seed in (0, 1, 2):
        lo = observability_probe(cfg, params(ell=10.0, gamma=10.0), n_samples=100, seed=seed)
        hi = observability_probe(cfg, params(ell=20.0, gamma=20.0), n_samples=100, seed=seed)
        finite_ok &= np.isfinite(lo.max_ratio) and np.isfinite(hi.max_ratio)
        trend_ok &= hi.max_ratio <= lo.max_ratio
        maxima.append(lo.max_ratio)
    base = _check_baseline("criterion11_probe_max_ratios", maxima)
    ok = homog <= 1e-12 and finite_ok and trend_ok and "DEVIATES" not in base
    _report(11, ok, f"homogeneity defect {homog:.1e}, max ratios finite and "
                    f"non-increasing under doubled weights over 3 seeds, {base}")


def test_criterion_12_determinism(tmp_path):
    from stackheat.config import parse_config
    from stackheat.runner import run_experiment

    lines = ["[scenario]", "configuration = A", "horizon = 0.5",
             "y0 = random", "target = random", "",
             "[grid]", "n_interior = 12", "n_steps = 12", "",
             "[hum]", "epsilon = 1e-3", "cg_tol = 1e-9", "",
             "[output]", "seed = 7", "verify_perturbations = 10"]
    path = tmp_path / "exp.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    r1 = run_experiment(parse_config(str(path)), out_dir=str(tmp_path / "r1"), quiet=True)
    r2 = run_experiment(parse_config(str(path)), out_dir=str(tmp_path / "r2"), quiet=True)
    same = set(r1.files) == set(r2.files) and all(
        sha256_of(os.path.join(r1.out_dir, f)) == sha256_of(os.path.join(r2.out_dir, f))
        for f in r1.files)
    _report(12, same, f"{len(r1.files)} CSV files byte-identical across two runs")

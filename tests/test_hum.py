"""HUM machinery: adjoint pairs, Gram duality, CG minimization, probe."""

import numpy as np
import pytest
from scipy.linalg import eigh

from stackheat import hum as hum_module
from stackheat import saddle as saddle_module
from stackheat.errors import ConvergenceError, NonContractionError
from stackheat.heat import favg
from stackheat.hum import (GramBasis, HumSettings, gradient_check, gram_apply, hum_minimize,
                           observability_probe, observation, observation_pairing,
                           solve_adjoint, solve_adjoints)
from stackheat.oracle import dense_adjoint_solve
from stackheat.products import h10_inner, h10_norm
from stackheat.weights import target_weight_inv_sq

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
    return [hum_minimize(cfg, p, HumSettings(epsilon=eps, cg_tol=1e-11), basis=basis)
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
    return hum_minimize(cfg, p, HumSettings(epsilon=eps, cg_tol=cg_tol), basis=basis)


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
    e1, e2 = _unit_orthogonal_to(GramBasis(cfg, p).b, cfg.grid)

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
    np.testing.assert_allclose(res.phi_terminal, -GramBasis(cfg, p).b / (2.0 + 1e-4),
                               rtol=1e-14)


def test_basis_of_another_scenario_is_rejected():
    p = params()
    basis = GramBasis(scenario_a(n=8, k=8), p)
    with pytest.raises(ValueError, match="another scenario"):
        _solve(scenario_a(n=8, k=8), p, 1e-4, basis)


def _assert_same_equilibrium(got, ref):
    """Two ``SaddleSolution``s agree bit for bit, signed zeros included."""
    def bits(fields):
        return [f.values.tobytes() for f in fields]

    def followers(sol):
        f = sol.follower
        return bits(f[side] for side in sorted(f)) if isinstance(f, dict) \
            else bits(f if isinstance(f, tuple) else (f,))

    assert bits((got.state,) + got.adjoints) == bits((ref.state,) + ref.adjoints)
    assert followers(got) == followers(ref)
    assert (got.iterations, got.exit_status, got.functional_value) == \
        (ref.iterations, ref.exit_status, ref.functional_value)


@pytest.mark.parametrize("conf", "ABCD")
def test_basis_and_result_keep_the_equilibria_they_solved(conf):
    # GramBasis.free is the zero-leader equilibrium and HumResult.controlled
    # the one under the synthesized leader; each equals a fresh solve
    cfg = builders()[conf](n=8, k=8)
    p = params()
    basis = GramBasis(cfg, p)
    res = _solve(cfg, p, 1e-3, basis)
    _assert_same_equilibrium(basis.free, saddle_module.solve_optimality(cfg, None, p))
    _assert_same_equilibrium(res.controlled, saddle_module.solve_optimality(cfg, res.leader, p))


def test_zero_data_result_keeps_the_zero_leader_equilibrium():
    cfg = scenario_a(n=8, k=8, y0_kind="zero", target_kind="zero")
    p = params()
    res = _solve(cfg, p, 1e-3)
    assert res.cg_iterations == 0
    _assert_same_equilibrium(res.controlled, saddle_module.solve_optimality(cfg, res.leader, p))


def test_hum_leader_formula_consistency_config_a():
    cfg = scenario_a(n=12, k=12, y0_kind="sine", target_kind="sine_cutoff")
    p = params()
    res = hum_minimize(cfg, p, HumSettings(epsilon=1e-3))
    pair = solve_adjoint(cfg, res.phi_terminal, p)
    h = observation(cfg, pair)
    mask = cfg.omega.interior_mask(cfg.grid)
    assert np.array_equal(res.leader.interior[:, mask], pair.phi.interior[:, mask])
    assert np.all(res.leader.interior[:, ~mask] == 0.0)
    assert isinstance(h.values if hasattr(h, "values") else None, np.ndarray)


def _lhs_cross(cfg, pa, pb):
    """|phi(0)|_{H10} pairing plus the rho^{-2}-weighted midpoint pairing of every theta."""
    w = np.asarray(target_weight_inv_sq(cfg.configuration, cfg.wspec, cfg.eta(),
                                        cfg.tgrid.midpoint_times()))
    val = h10_inner(pa.phi.interior[0], pb.phi.interior[0], cfg.grid)
    for ta, tb in zip(pa.thetas, pb.thetas):
        fa, fb = favg(ta.interior), favg(tb.interior)
        val += float(cfg.tgrid.dt * cfg.grid.dx * np.sum(w[:, None] * fa * fb))
    return val


def _probe_pairs(cfg, p, n_samples, seed):
    """The probe's terminal data, drawn in its order, each with its own adjoint pair."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_samples):
        a = rng.standard_normal(cfg.grid.n_interior)
        pairs.append(solve_adjoint(cfg, a / h10_norm(a, cfg.grid), p))
    return pairs


def test_probe_homogeneity_and_report():
    cfg = scenario_a(n=10, k=10)
    p = params()
    rep = observability_probe(cfg, p, n_samples=10, seed=0)
    assert rep.max_ratio >= rep.median_ratio >= rep.min_ratio > 0
    assert np.isfinite(rep.max_ratio)
    assert rep.refined_max >= rep.max_ratio * (1 - 1e-12)
    # degree-0 homogeneity: scaling the datum leaves the ratio unchanged
    rng = np.random.default_rng(4)
    a = rng.standard_normal(cfg.grid.n_interior)

    def ratio(v):
        pair = solve_adjoint(cfg, v, p)
        return _lhs_cross(cfg, pair, pair) / observation_pairing(cfg, pair, pair)

    r1, r2 = ratio(a), ratio(2.0 * a)
    assert abs(r1 - r2) <= 1e-12 * abs(r1)


@pytest.mark.parametrize("conf", "ABCD")
def test_probe_ratios_match_per_sample_solves(conf):
    # the first n ratios come off the assembled forms' diagonals, the later
    # ones from coordinates in the first n data
    cfg = builders()[conf](n=10, k=10)
    p = params()
    rep = observability_probe(cfg, p, n_samples=25, seed=3)
    assert rep.skipped == 0 and len(rep.ratios) == 25
    expected = np.array([_lhs_cross(cfg, q, q) / observation_pairing(cfg, q, q)
                         for q in _probe_pairs(cfg, p, 25, 3)])
    rel = np.abs(np.array(rep.ratios) - expected) / expected
    assert rel[:10].max() <= 1e-12
    assert rel[10:].max() <= 1e-8
    assert rep.max_ratio == max(rep.ratios)
    assert rep.argmax_sample == int(np.argmax(rep.ratios))


def _count_probe_columns(monkeypatch) -> list:
    """Record the number of columns of every ``solve_adjoints`` call the probe makes."""
    calls = []
    real = hum_module.solve_adjoints

    def counted(cfg, terminals, params):
        calls.append(len(terminals))
        return real(cfg, terminals, params)

    monkeypatch.setattr(hum_module, "solve_adjoints", counted)
    return calls


@pytest.mark.parametrize("n_samples", [25, 6])
def test_probe_solves_one_adjoint_pair_per_assembled_sample(n_samples, monkeypatch):
    calls = _count_probe_columns(monkeypatch)
    cfg = scenario_a(n=10, k=10)
    rep = observability_probe(cfg, params(), n_samples=n_samples, seed=0)
    assert sum(calls) == min(cfg.grid.n_interior, n_samples)
    assert rep.n_samples == n_samples


@pytest.mark.parametrize("conf", "ABCD")
def test_probe_report_does_not_depend_on_the_block_width(conf, monkeypatch):
    cfg = builders()[conf](n=10, k=10)
    one_block = observability_probe(cfg, params(), n_samples=25, seed=1)
    calls = _count_probe_columns(monkeypatch)
    # three columns per block: blocks of 3, 3, 3 and 1 for the 10 solved samples
    monkeypatch.setattr(saddle_module, "_BLOCK_BYTES",
                        3 * 8 * cfg.tgrid.n_levels * cfg.grid.n_interior)
    blocked = observability_probe(cfg, params(), n_samples=25, seed=1)
    assert calls == [3, 3, 3, 1]
    assert blocked == one_block
    assert repr(blocked) == repr(one_block)


def _lone_pencil_max(lhs, obs_form):
    """The pencil value behind refined_max, computed on its own: the largest
    eigenvalue of (L, O) on all of O's eigenvectors above the cut."""
    evals, evecs = np.linalg.eigh(obs_form)
    cut = evals > max(evals[-1], 1e-300) * hum_module._OBSERVED_CUT
    proj = evecs[:, cut] / np.sqrt(evals[cut])
    return float(np.max(np.linalg.eigvalsh(proj.T @ lhs @ proj))), int(cut.sum())


@pytest.mark.parametrize("conf", "ABCD")
def test_probe_spectrum_interlaces_and_carries_refined_max(conf, monkeypatch):
    forms = []
    real = hum_module._pencil_spectrum

    def captured(lhs, obs_form):
        forms.append((lhs.copy(), obs_form.copy()))
        return real(lhs, obs_form)

    monkeypatch.setattr(hum_module, "_pencil_spectrum", captured)
    cfg = builders()[conf](n=10, k=10)
    rep = observability_probe(cfg, params(), n_samples=25, seed=0)
    assert len(rep.spectrum) == cfg.grid.n_interior
    rel, pencil, above = map(np.array, zip(*rep.spectrum))
    assert rel[0] == 1.0 and np.all(np.diff(rel) <= 0.0)
    # the kept modes are a leading run: those above the cut
    n_kept = int(above.sum())
    assert above[:n_kept].all() and np.all(rel[:n_kept] > hum_module._OBSERVED_CUT)
    assert not np.any(rel[n_kept:] > hum_module._OBSERVED_CUT)
    # nested subspaces: the pencil maximum cannot fall as modes are added
    # (up to the round-off of separate eigenvalue solves)
    finite = np.isfinite(pencil)
    assert np.all(pencil[finite] > 0.0) and np.all(rel[~finite] <= 0.0)
    assert np.all(np.diff(pencil[finite]) >= -1e-12 * pencil[finite][1:])
    lone, lone_kept = _lone_pencil_max(*forms[0])
    assert lone_kept == n_kept
    assert pencil[n_kept - 1] == lone
    assert rep.refined_max == max(pencil[n_kept - 1], rep.max_ratio)


@pytest.mark.parametrize("conf", "ABCD")
def test_solve_adjoints_columns_equal_single_solves(conf):
    # column 2 is a zero datum: it leaves the batch at sweep 1, the others go
    # on; s = 0.01 keeps the C/D coupling live (at s = 1 it underflows to 0)
    cfg = builders()[conf](n=10, k=10, **({"s": 0.01} if conf in "CD" else {}))
    p = params()
    data = np.random.default_rng(8).standard_normal((4, cfg.grid.n_interior))
    data[2] = 0.0
    pairs = solve_adjoints(cfg, data, p)
    assert len(pairs) == 4
    for a, pair in zip(data, pairs):
        lone = solve_adjoint(cfg, a, p)
        assert pair.iterations == lone.iterations
        assert pair.residual == lone.residual
        assert pair.phi.values.tobytes() == lone.phi.values.tobytes()
        assert len(pair.thetas) == len(lone.thetas)
        for th, th_lone in zip(pair.thetas, lone.thetas):
            assert th.values.tobytes() == th_lone.values.tobytes()
    assert pairs[2].iterations == 1 and np.all(pairs[2].phi.values == 0.0)
    assert min(pair.iterations for i, pair in enumerate(pairs) if i != 2) > 1
    assert solve_adjoints(cfg, data[:0], p) == []


def test_solve_adjoints_refuses_a_non_contracting_batch():
    cfg = scenario_a(n=10, k=10)
    data = np.random.default_rng(9).standard_normal((3, cfg.grid.n_interior))
    with pytest.raises(NonContractionError):
        solve_adjoints(cfg, data, params(ell=0.05, gamma=0.05))
    with pytest.raises(ValueError):
        solve_adjoints(cfg, data[:, :-1], params())


@pytest.mark.parametrize("conf, n_samples, rtol", [
    ("A", 6, 1e-10),    # O well conditioned on six samples: nothing is cut
    ("A", 25, 1e-4),    # O's smallest eigenvalue is 6e-11 of its largest
    ("B", 25, 1e-4),    # three of O's ten eigenvalues fall below the cut
])
def test_refined_max_is_the_top_eigenvalue_of_the_pruned_pencil(conf, n_samples, rtol):
    # the forms are assembled here pairwise from per-sample solves; the pencil
    # eigenvalue amplifies their round-off by O's condition on the kept modes
    cfg = builders()[conf](n=10, k=10)
    p = params()
    rep = observability_probe(cfg, p, n_samples=n_samples, seed=0)
    pairs = _probe_pairs(cfg, p, min(cfg.grid.n_interior, n_samples), 0)
    lmat = np.array([[_lhs_cross(cfg, pa, pb) for pb in pairs] for pa in pairs])
    omat = np.array([[observation_pairing(cfg, pa, pb) for pb in pairs] for pa in pairs])
    evals, evecs = np.linalg.eigh(omat)
    v = evecs[:, evals > evals[-1] * hum_module._OBSERVED_CUT]
    top = eigh(v.T @ lmat @ v, v.T @ omat @ v, eigvals_only=True)[-1]
    assert top > rep.max_ratio
    assert abs(rep.refined_max - top) <= rtol * top


def test_probe_max_nonincreasing_when_weights_double():
    from _scenarios import probe_scenario_a

    for seed in (0, 1, 2):
        cfg = probe_scenario_a()
        lo = observability_probe(cfg, params(ell=10.0, gamma=10.0),
                                 n_samples=100, seed=seed)
        hi = observability_probe(cfg, params(ell=20.0, gamma=20.0),
                                 n_samples=100, seed=seed)
        assert hi.max_ratio <= lo.max_ratio

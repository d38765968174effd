"""HUM machinery: adjoint pairs, Gram duality, CG minimization, probe."""

import copy
import csv
import dataclasses
import os

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, eigh

from stackheat import heat
from stackheat import hum as hum_module
from stackheat import saddle as saddle_module
from stackheat.config import parse_config
from stackheat.errors import ConvergenceError, NonContractionError
from stackheat.heat import favg
from stackheat.hum import (GramBasis, HumSettings, _adjoint_pairs, gram_apply, hum_ladder,
                           hum_minimize, observability_probe, observation, solve_adjoint,
                           target_admissibility)
from stackheat.products import h10_inner, h10_norm
from stackheat.runner import eps_sweep, run_experiment
from stackheat.saddle import build_problem
from stackheat.weights import admissibility_check, target_weight_inv_sq

from _instruments import (dense_adjoint_solve, gradient_check, march_count, observation_pairing,
                          to_coords, to_physical)
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


def _demo(letter, n=None):
    spec = parse_config(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                     "configs", f"demo_{letter}.ini"))
    return (spec.scenario if n is None else spec.recipe.build(n, n)), spec.robust


def _picard_loops(monkeypatch, solve):
    """Each Picard loop that ``solve()`` runs: per column, (first correction, final adjoints, sweeps).

    The final adjoints are the loop's own, before ``finish`` maps them, so
    a difference of two of them is measured in the loop's correction norm.
    """
    made, loops = [], []
    real = saddle_module._picard_columns

    class Column(saddle_module._Column):
        def __init__(self):
            super().__init__()
            made.append(self)

    def recorded(prob, forward, backward, n_adjoints, width, finish, final_forward=None):
        start, finals = len(made), {}

        def keep(state, adjoints, cols):
            for j, c in enumerate(cols):
                finals[c] = tuple(a[j].copy() for a in adjoints)
            return finish(state, adjoints, cols)

        out = real(prob, forward, backward, n_adjoints, width, keep, final_forward)
        loops.append([(run.first, finals[c], out[c][2]) for c, run in enumerate(made[start:])])
        return out

    with monkeypatch.context() as m:
        m.setattr(saddle_module, "_Column", Column)
        m.setattr(saddle_module, "_picard_columns", recorded)
        m.setattr(hum_module, "_picard_columns", recorded)
        solve()
    return loops


@pytest.mark.parametrize("n", [16, 50])
@pytest.mark.parametrize("demo", ["a", "b"])
def test_picard_exit_keeps_its_accuracy_promise(demo, n, monkeypatch):
    # each column stopped at the default tolerance, by the plain rule or the
    # contraction error bound, lies within tol * delta_1 of the same column
    # solved on at tol = 1e-300, until its corrections vanish or take the
    # round-off exit, in the loop's own correction norm:
    # the free equilibrium, the first Gram image's two columns and one probe
    # block of adjoint pairs
    cfg, p = _demo(demo, n)
    ref = dataclasses.replace(p, fixed_point_tol=1e-300)
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((min(n, saddle_module._block_width(cfg)), n))
    rows /= np.array([h10_norm(a, cfg.grid) for a in rows])[:, None]

    def solves(q):
        return (_picard_loops(monkeypatch, lambda: GramBasis(cfg, q).extend())
                + _picard_loops(monkeypatch, lambda: _adjoint_pairs(build_problem(cfg, q), rows)))

    loose, tight = solves(p), solves(ref)
    assert [len(loop) for loop in loose] == [len(loop) for loop in tight] == [1, 2, len(rows)]
    dtdx = cfg.tgrid.dt * cfg.grid.dx
    for got, want in zip(loose, tight):
        for (first, a, sweeps), (_, b, more) in zip(got, want):
            assert more > sweeps
            err = np.sqrt(sum(dtdx * np.sum((x - y) ** 2) for x, y in zip(a, b)))
            assert err <= p.fixed_point_tol * first


@pytest.mark.parametrize("demo", ["a", "b"])
def test_gram_basis_stays_symmetric(demo):
    # the images of 12 basis vectors at n = 50, each solved to the default
    # tolerance: max |V G' - G V'| / max |V G'| stays at round-off
    basis = GramBasis(*_demo(demo))
    for _ in range(12):
        assert basis.extend()
    pairing = basis.vectors @ basis.images.T
    assert np.abs(pairing - pairing.T).max() <= 1e-15 * np.abs(pairing).max()


@pytest.mark.parametrize("demo, marches", [("a", 11), ("b", 6)])
def test_first_gram_image_march_count(demo, marches):
    # at n = 50 demo A's image makes 11 marches, eight of them two columns
    # wide, and B's 6: both columns stop on the contraction error bound, one
    # sweep before the plain rule would
    basis = GramBasis(*_demo(demo))
    with march_count() as calls:
        basis.extend()
    assert calls[0] == marches


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


@pytest.mark.parametrize("kw", [{"n_directions": 0}, {"directions": []}])
def test_gradient_check_refuses_zero_directions(kw):
    # a check over no direction would pass without testing anything
    cfg = scenario_a(n=8, k=8)
    with pytest.raises(ValueError, match="at least one direction"):
        gradient_check(cfg, params(), HumSettings(epsilon=1e-3),
                       np.ones(cfg.grid.n_interior), **kw)


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
    real = hum_module._gram

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hum_module, "_gram", counted)
    smallest = _solve(cfg, p, _LADDER[-1])
    lone = len(calls)
    assert lone == smallest.cg_iterations > 0
    calls.clear()
    basis = GramBasis(cfg, p)
    for eps in _LADDER:
        _solve(cfg, p, eps, basis)
    assert len(calls) == lone


def _grown_basis(conf, n):
    basis = GramBasis(builders()[conf](n=n, k=n), params())
    while basis.extend():
        pass
    return basis


@pytest.mark.parametrize("n", [16, 50])
@pytest.mark.parametrize("conf", "ABCD")
def test_galerkin_solve_agrees_with_scipy_cholesky(conf, n):
    # the basis factors the projected matrix itself, on Python floats; scipy's
    # cho_factor and cho_solve are the reference to round-off
    basis = _grown_basis(conf, n)
    assert len(basis) >= 5
    for k in range(1, len(basis) + 1):
        for eps in _LADDER:
            a = np.empty((k, k))
            for i, row in enumerate(basis.projected[:k]):
                a[i, :i + 1] = a[:i + 1, i] = row
            a[np.diag_indices(k)] += eps
            y = cho_solve(cho_factor(a, lower=True), -np.asarray(basis.rhs[:k]))
            for got, ref in zip(basis.galerkin(k, eps), (y @ basis.vectors[:k], y @ basis.images[:k])):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("conf", "ABCD")
def test_galerkin_solve_does_not_depend_on_call_order(conf):
    # each (k, eps) on a basis that solved nothing before, against one basis
    # that solves them all: descending k and eps, then a shuffled order
    grown = _grown_basis(conf, 16)
    cases = [(k, eps) for k in range(1, len(grown) + 1) for eps in _LADDER]
    lone = {case: copy.deepcopy(grown).galerkin(*case) for case in cases}
    shared = copy.deepcopy(grown)
    order = cases[::-1] + [cases[i] for i in np.random.default_rng(5).permutation(len(cases))]
    for case in order:
        for got, ref in zip(shared.galerkin(*case), lone[case]):
            assert got.tobytes() == ref.tobytes()


def _unit_orthogonal_to(b, grid, seed=0):
    e1 = b / h10_norm(b, grid)
    r = np.random.default_rng(seed).standard_normal(b.shape)
    e2 = r - h10_inner(r, e1, grid) * e1
    return e1, e2 / h10_norm(e2, grid)


@pytest.mark.parametrize("kind", ["negative", "indefinite"])
def test_non_positive_gram_operator_raises(kind, monkeypatch):
    cfg = scenario_a(n=8, k=8)
    grid = cfg.grid
    p = params()
    e1, e2 = _unit_orthogonal_to(to_physical(GramBasis(cfg, p).b, grid), grid)

    def indefinite(prob, c):
        # [[0.5, 1], [1, 0.5]] on span(e1, e2): positive diagonal, one negative eigenvalue
        a = to_physical(c, grid)
        return to_coords(0.5 * a + h10_inner(a, e1, grid) * e2 + h10_inner(a, e2, grid) * e1, grid)

    gram = indefinite if kind == "indefinite" else (lambda prob, a: -a)
    monkeypatch.setattr(hum_module, "_gram", gram)
    with pytest.raises(ConvergenceError, match="not positive"):
        _solve(cfg, p, 1e-4)


def test_invariant_krylov_space_ends_with_the_exact_solution(monkeypatch):
    # Gram = 2 I: the Krylov space of b is one-dimensional, so an unreachable
    # tolerance still ends after one vector, at -b / (2 + eps)
    cfg = scenario_a(n=8, k=8)
    p = params()
    monkeypatch.setattr(hum_module, "_gram", lambda prob, a: 2.0 * a)
    basis = GramBasis(cfg, p)
    res = _solve(cfg, p, 1e-4, basis, cg_tol=1e-300)
    assert res.cg_iterations == 1
    # in the basis's coordinates, and phi_terminal is its physical form
    x, _ = basis.galerkin(1, 1e-4)
    np.testing.assert_allclose(x, -basis.b / (2.0 + 1e-4), rtol=1e-14)
    assert res.phi_terminal.tobytes() == to_physical(x, cfg.grid).tobytes()


def test_basis_and_hum_minimize_build_one_problem(monkeypatch):
    # the basis builds and validates the scenario's problem once; its Gram
    # images, the zero-leader solve and the certificate all run on it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = parse_config(os.path.join(root, "configs", "demo_a.ini")).recipe.build(8, 8)
    p = params()
    built = []
    real = saddle_module.build_problem

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(saddle_module, "build_problem", counted)
    monkeypatch.setattr(hum_module, "build_problem", counted)
    res = _solve(cfg, p, 1e-4, GramBasis(cfg, p))
    assert res.cg_iterations > 1
    assert len(built) == 1


def test_gram_images_share_one_homogeneous_problem(monkeypatch):
    # the zero-data problem of the Gram images, and its modal operators, are
    # built once per basis, not once per image
    cfg = scenario_a(n=8, k=8)
    basis = GramBasis(cfg, params())
    built = []
    real = saddle_module.replace

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(saddle_module, "replace", counted)
    while basis.extend():
        pass
    assert len(basis) > 2
    assert len(built) == 1
    hom = basis.prob.homogeneous
    assert hom is basis.prob.homogeneous
    assert hom.modal.obs is basis.prob.modal.obs and hom.modal.y0 is None



@pytest.mark.parametrize("demo", "abcd")
def test_picard_solves_march_on_the_plan_their_problem_holds(demo, monkeypatch):
    # once prob.modal is built, no Picard solve looks up a plan: with every
    # binding of heat._plan raising, a Gram image, an equilibrium and a block
    # of adjoint pairs run on the plan prob.modal holds, with the same bits
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"demo_{demo}.ini"))
    prob = saddle_module.build_problem(spec.recipe.build(12, 12), spec.robust)
    data = np.random.default_rng(4).standard_normal((3, prob.cfg.grid.n_interior))

    def solves():
        return [hum_module._gram(prob, data[0]), saddle_module._equilibria(prob, None)[0][0],
                *(pair[0] for pair in hum_module._adjoint_pairs(prob, data))]

    before = solves()

    def forbidden(*args):
        raise AssertionError("a Picard solve looked up its march plan")

    for module in (heat, saddle_module, hum_module):
        monkeypatch.setattr(module, "_plan", forbidden, raising=False)
    after = solves()
    assert [a.tobytes() for a in after] == [b.tobytes() for b in before]


def _exact_pair_marches(demo, monkeypatch):
    """(lone pair solve's marches, Gram image's loop sweeps and marches) on ``demo`` at n = 12.

    The demo's follower weight underflows, so the adjoint pair stops "exact"
    on its first sweep.  Each march is recorded as (batch shape, backward).
    Its phi is that sweep's, kept apart from the theta march's buffer, and
    equals a phi march of explicit zero thetas bit for bit.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"demo_{demo}.ini"))
    prob = saddle_module.build_problem(spec.recipe.build(12, 12), spec.robust)
    datum = np.random.default_rng(5).standard_normal((1, prob.cfg.grid.n_interior))
    marches = []
    real = saddle_module._modal_levels

    def counted(wk, *args, **kwargs):
        marches.append((wk.w_columns.shape[:-2], kwargs.get("backward", False)))
        return real(wk, *args, **kwargs)

    monkeypatch.setattr(saddle_module, "_modal_levels", counted)
    (phi, thetas, iterations, residual, _, status), = hum_module._pairs_hat(
        prob, datum @ prob.modal.s, lambda phi, thetas, cols: (phi, thetas))
    assert (iterations, residual, status) == (1, 0.0, "converged")
    assert not any(np.any(th) for th in thetas)
    pair = list(marches)
    zero = (np.zeros((1,) + phi.shape),) * prob.n_adjoints
    fresh = saddle_module._backward_hat(prob.homogeneous, zero, 1, 0, datum @ prob.modal.s)[0]
    assert np.array_equal(phi, fresh) and np.array_equal(np.signbit(phi), np.signbit(fresh))

    sweeps = []
    real_loop = hum_module._picard_columns

    def recorded(*args, **kwargs):
        out = real_loop(*args, **kwargs)
        sweeps.append([column[2] for column in out])
        return out

    monkeypatch.setattr(hum_module, "_picard_columns", recorded)
    marches.clear()
    hum_module._gram(prob, datum[0])
    return pair, sweeps, marches


def test_exact_adjoint_pair_of_a_gram_image_marches_once_each_way(monkeypatch):
    # demo C: the lone pair solve is one phi march and one theta march, with
    # no second phi march.  A whole image is one two-column loop: the pair and
    # the equilibrium march together on the first sweep, where the pair stops
    # "exact" and keeps that sweep's phi; the equilibrium takes its second
    # sweep alone and stops on its y with no further march, since its final p
    # is not read
    pair, sweeps, image = _exact_pair_marches("c", monkeypatch)
    assert pair == [((1,), True), ((1,), False)]
    assert sweeps == [[1, 2]]
    assert image == [((2,), True), ((2,), False), ((1,), True), ((1,), False)]


def test_exact_adjoint_pair_of_a_d_gram_image_marches_only_live_fields(monkeypatch):
    # demo D, as demo C above: each march carries the live fields only.  The
    # lone pair marches phi, then its two thetas; the image marches
    # [phi, p_1, p_2] and [theta_1, y, theta_2], then the equilibrium alone
    # [p_1, p_2] and [y]: 9 column-marches, where a zero slot per column made 12
    pair, sweeps, image = _exact_pair_marches("d", monkeypatch)
    assert pair == [((1,), True), ((2,), False)]
    assert sweeps == [[1, 2]]
    assert image == [((3,), True), ((3,), False), ((2,), True), ((1,), False)]


@pytest.mark.parametrize("demo", "abcd")
def test_first_sweep_of_every_loop_forms_no_product_of_zeros(demo, monkeypatch):
    # every Picard loop starts from zero fields, so its first march forms no
    # source or follower edge row of them: an equilibrium's leader alone
    # enters (A's modal leader as the source itself, B/C/D's as the leader
    # edge's row), and an adjoint pair's phi only its datum; that march has
    # the bits, signed zeros included, of one that forms the zero products
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"demo_{demo}.ini"))
    prob = saddle_module.build_problem(spec.recipe.build(12, 12), spec.robust)
    hom, k, s = prob.homogeneous, prob.n_adjoints, prob.modal.s
    klev, n = prob.cfg.tgrid.n_levels, prob.cfg.grid.n_interior
    data = np.random.default_rng(9).standard_normal((3, n))
    leaders = np.stack([prob.observe(pair[0]) for pair in _adjoint_pairs(prob, data)])
    drive = leaders if prob.leader_side else np.matmul(leaders, s)
    first = []   # (source, edges) of each loop's first march
    real_march, real_loop = saddle_module._modal_levels, saddle_module._picard_columns

    def loop(*args, **kwargs):
        first.append(None)
        return real_loop(*args, **kwargs)

    def march(wk, datum, source=None, edges=None, backward=False):
        if first[-1] is None:
            first[-1] = (None if source is None else source.copy(), dict(edges or {}))
        return real_march(wk, datum, source, edges, backward)

    for module in (saddle_module, hum_module):
        monkeypatch.setattr(module, "_picard_columns", loop)
    monkeypatch.setattr(saddle_module, "_modal_levels", march)

    def led(record, leader):
        """The march's source and edges are the leader's alone (None: the zero leader)."""
        source, edges = record
        if prob.leader_side is None:
            assert edges == {} and (source is None if leader is None else
                                    source.tobytes() == leader.tobytes())
        else:
            assert source is None and list(edges) == ([] if leader is None else [prob.leader_side])
            if leader is not None:
                assert edges[prob.leader_side].tobytes() == leader.tobytes()

    saddle_module._equilibria(prob, None)
    saddle_module._equilibria(prob, leaders)
    _adjoint_pairs(prob, data)
    hum_module._gram(prob, data[0])
    assert len(first) == 4
    led(first[0], None)
    led(first[1], drive)
    assert first[2] == (None, {}) and first[3] == (None, {})
    monkeypatch.setattr(saddle_module, "_BLOCK_BYTES", 0)   # the sequential image: two loops
    hum_module._gram(prob, data[0])
    assert len(first) == 6 and first[4] == (None, {})
    assert (first[5][0] is None) == (prob.leader_side is not None)
    assert set(first[5][1]) <= {prob.leader_side}

    def zeros(rows):
        return np.zeros((rows, klev, n))

    for march_of, pairs, equilibria, further in (
            (lambda f: saddle_module._forward_hat(prob, f, 0, 3, None), 0, 3, 3),
            (lambda f: saddle_module._forward_hat(prob, f, 0, 3, drive), 0, 3, 3),
            (lambda f: saddle_module._backward_hat(hom, f, 3, 0, data @ s), 3, 0, 3),
            (lambda f: saddle_module._backward_hat(
                hom, f, 1, 1, np.concatenate((data[:1] @ s, np.zeros((k, n))))), 1, 1, 1)):
        skipped = march_of(None).copy()
        formed = march_of((zeros(pairs + equilibria),) + (zeros(further),) * (k - 1))
        assert skipped.tobytes() == formed.tobytes()


def _sequential_gram(prob, c):
    """``hum._gram`` as the pair solve, the leader read off its phi, the equilibrium and the lift."""
    m = prob.modal
    _, scale = hum_module._coordinates(prob.cfg.grid)

    def leader(phi, thetas, cols):
        if prob.leader_side is None:
            return np.matmul(phi, m.omega), ()
        return -saddle_module._normal_hat(prob, phi, prob.leader_side), ()

    def lifted(state, adjoints, cols):
        return m.dx * state[..., -1, :] / scale, ()

    drive = hum_module._pairs_hat(prob, (c / scale)[None], leader)[0][0]
    return saddle_module._equilibria_hat(prob.homogeneous, drive[None], 1, lifted)[0][0]


@pytest.mark.parametrize("demo", "abcd")
@pytest.mark.parametrize("n", [12, 50])
def test_two_column_gram_image_equals_the_sequential_solves(demo, n):
    # the pair and the equilibrium as two columns of one loop give the image
    # of the pair solve followed by the equilibrium under its leader: the
    # same bytes in B, C and D, to round-off in A, whose equilibrium follows
    # the pair's moving phi for a few sweeps
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"demo_{demo}.ini"))
    prob = saddle_module.build_problem(spec.recipe.build(n, n), spec.robust)
    assert saddle_module._block_width(prob.cfg) >= 2
    rng = np.random.default_rng(6)
    for _ in range(3):
        c = rng.standard_normal(n)
        got, ref = hum_module._gram(prob, c), _sequential_gram(prob, c)
        if demo == "a":
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        else:
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("conf", "CD")
def test_two_column_gram_image_at_a_live_follower_weight(conf):
    # at a live weight the pair's theta moves, so the equilibrium follows a
    # moving leader for as many sweeps as the pair takes
    cfg = builders()[conf](n=8, k=8, s=0.002)
    prob = saddle_module.build_problem(cfg, params(ell=4.0))
    rng = np.random.default_rng(7)
    for _ in range(3):
        c = rng.standard_normal(cfg.grid.n_interior)
        got, ref = hum_module._gram(prob, c), _sequential_gram(prob, c)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("demo", "abcd")
def test_gram_image_of_one_column_blocks_is_the_sequential_solves(demo, monkeypatch):
    # where a block holds one column the pair and the equilibrium are solved
    # one after the other, as two loops of one column each
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"demo_{demo}.ini"))
    prob = saddle_module.build_problem(spec.recipe.build(12, 12), spec.robust)
    monkeypatch.setattr(saddle_module, "_BLOCK_BYTES", 0)
    assert saddle_module._block_width(prob.cfg) == 1
    widths = []
    real_loop = hum_module._picard_columns

    def recorded(*args, **kwargs):
        widths.append(kwargs["width"])
        return real_loop(*args, **kwargs)

    monkeypatch.setattr(hum_module, "_picard_columns", recorded)
    monkeypatch.setattr(saddle_module, "_picard_columns", recorded)
    c = np.random.default_rng(8).standard_normal(12)
    got = hum_module._gram(prob, c)
    assert widths == [1, 1]
    assert got.tobytes() == _sequential_gram(prob, c).tobytes()


@pytest.mark.parametrize("conf", "ABCD")
def test_basis_images_are_gram_images(conf):
    # each stored image is _gram of its vector, bit for bit, and the public
    # gram_apply of the physical vector is the physical image to round-off
    kw = {"s": 0.002} if conf in ("C", "D") else {}
    cfg = builders()[conf](n=8, k=8, **kw)
    p = params(ell=4.0) if conf in ("C", "D") else params()
    basis = GramBasis(cfg, p)
    while len(basis) < 3 and basis.extend():
        pass
    assert len(basis) == 3
    for v, g in zip(basis.vectors, basis.images):
        assert g.tobytes() == hum_module._gram(basis.prob, v).tobytes()
        got, ref = gram_apply(cfg, to_physical(v, cfg.grid), p), to_physical(g, cfg.grid)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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


@pytest.mark.parametrize("conf", "ABCD")
def test_batched_ladder_equals_lone_solves_bit_for_bit(conf):
    # the ladder certifies its rungs as one batch; each rung keeps the bits of
    # a lone hum_minimize on a fresh basis, its controlled equilibrium included
    cfg = builders()[conf](n=16, k=16)
    p = params()
    ladder = hum_ladder(cfg, p, [HumSettings(epsilon=eps, cg_tol=1e-11) for eps in _LADDER])
    assert [r.epsilon for r in ladder] == list(_LADDER)
    for got in ladder:
        ref = _solve(cfg, p, got.epsilon)
        assert np.array_equal(got.phi_terminal, ref.phi_terminal)
        assert np.array_equal(got.leader.values, ref.leader.values)
        _assert_same_equilibrium(got.controlled, ref.controlled)
        assert got.trace == ref.trace
        assert (got.terminal_residual_hminus1, got.internal_residual_estimate,
                got.cg_iterations, got.functional_value, got.leader_norm_sq) == \
            (ref.terminal_residual_hminus1, ref.internal_residual_estimate,
             ref.cg_iterations, ref.functional_value, ref.leader_norm_sq)


def _recording_widths(monkeypatch) -> dict:
    """Record the width of every ``_picard_columns`` loop: per binding, and a Gram image's apart.

    The loops that ``hum._gram`` runs go to the key "gram", every other loop
    to the module whose binding it called.
    """
    widths = {saddle_module: [], hum_module: [], "gram": []}
    imaging = []
    real_gram = hum_module._gram

    def gram(*args):
        imaging.append(True)
        try:
            return real_gram(*args)
        finally:
            imaging.pop()

    def recording(module, picard_columns):
        def recorded(prob, forward, backward, n_adjoints, width, finish, **kwargs):
            widths["gram" if imaging else module].append(width)
            return picard_columns(prob, forward, backward, n_adjoints, width, finish, **kwargs)
        return recorded

    monkeypatch.setattr(hum_module, "_gram", gram)
    for module in (saddle_module, hum_module):
        monkeypatch.setattr(module, "_picard_columns",
                            recording(module, module._picard_columns))
    return widths


@pytest.mark.parametrize("conf", "AB")
def test_sweep_eps_certifies_its_ladder_in_one_batch(conf, tmp_path, monkeypatch):
    # one Picard loop over every rung's leader certifies the ladder, and one
    # over their minimizers solves the adjoint pairs; every other loop is a
    # lone column (the zero-leader solve), and each Gram image is one loop of
    # two columns, its adjoint pair and its equilibrium
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"demo_{conf.lower()}.ini"))
    spec = dataclasses.replace(spec, scenario=spec.recipe.build(16, 16))
    widths = _recording_widths(monkeypatch)
    report = eps_sweep(spec, out_dir=str(tmp_path / "sweep"), quiet=True)
    assert "pipeline" not in [v.name for v in report.verdicts]
    rungs = len(spec.epsilon_ladder)
    assert rungs > 1
    for module in (saddle_module, hum_module):
        assert [w for w in widths[module] if w != 1] == [rungs]
    assert widths["gram"] and set(widths["gram"]) == {2}


@pytest.mark.parametrize("conf", "ABCD")
def test_run_certifies_its_eps_pair_in_one_batch(conf, tmp_path, monkeypatch):
    # the hum stage solves eps and the eps-law step 100 eps on the saddle
    # stage's basis and certifies both as one width-2 batch; its summary row
    # and the law's ratio keep the bits of two lone hum_minimize solves
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"demo_{conf.lower()}.ini"))
    spec = dataclasses.replace(spec, scenario=spec.recipe.build(16, 16))
    cfg, robust, hum = spec.scenario, spec.robust, spec.hum
    fine = hum_minimize(cfg, robust, hum)
    coarse = hum_minimize(cfg, robust, dataclasses.replace(hum, epsilon=hum.epsilon * 100.0))
    widths = _recording_widths(monkeypatch)
    report = run_experiment(spec, out_dir=str(tmp_path / "run"), quiet=True)
    for module in (saddle_module, hum_module):
        assert [w for w in widths[module] if w != 1] == [2]
    assert widths["gram"] and set(widths["gram"]) == {2}
    with open(tmp_path / "run" / "hum_summary.csv", newline="", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert [float(v) for v in row.values()] == [
        fine.epsilon, fine.cg_iterations, fine.terminal_residual_hminus1,
        fine.internal_residual_estimate, fine.leader_norm_sq, fine.functional_value]
    law = {v.name: v for v in report.verdicts}["epsilon_law"]
    assert law.status == "pass"
    assert law.value == coarse.terminal_residual_hminus1 / fine.terminal_residual_hminus1


def _pointwise_admissibility(cfg):
    """``target_admissibility`` as a per-level loop and a per-point ``admissibility_check``."""
    grid, tgrid = cfg.grid, cfg.tgrid
    masks = [reg.interior_mask(grid) for reg in cfg.observation_regions()]
    interiors = [tgt.interior for tgt in cfg.targets()]
    levels = [sum(float(np.sum(y[k][mask] ** 2) * grid.dx) for mask, y in zip(masks, interiors))
              for k in range(tgrid.n_levels)]

    def ydfun(t):
        return levels[min(int(round(t / tgrid.dt)), tgrid.n_steps)]

    return admissibility_check(cfg.configuration, cfg.wspec, cfg.eta(), ydfun)


@pytest.mark.parametrize("conf", "ABCD")
@pytest.mark.parametrize("n", [16, 50])
def test_target_admissibility_equals_the_pointwise_check(conf, n):
    # one masked reduction per region and one lookup of every midpoint give
    # the bits of the per-level sums and the per-point profile
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = parse_config(os.path.join(root, "configs", f"demo_{conf.lower()}.ini"))
    cfg = spec.recipe.build(n, n)
    assert target_admissibility(cfg) == _pointwise_admissibility(cfg)


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
    """Record the number of columns of every ``_adjoint_pairs`` call the probe makes."""
    calls = []
    real = hum_module._adjoint_pairs

    def counted(prob, terminals):
        calls.append(len(terminals))
        return real(prob, terminals)

    monkeypatch.setattr(hum_module, "_adjoint_pairs", counted)
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
    prob = saddle_module.build_problem(cfg, p)
    pairs = _adjoint_pairs(prob, data)
    assert len(pairs) == 4
    for a, (phi, thetas, iterations, residual, _, _) in zip(data, pairs):
        lone = solve_adjoint(cfg, a, p)
        assert iterations == lone.iterations
        assert residual == lone.residual
        assert phi.tobytes() == lone.phi.interior.tobytes()
        assert len(thetas) == len(lone.thetas)
        for th, th_lone in zip(thetas, lone.thetas):
            assert th.tobytes() == th_lone.interior.tobytes()
    assert pairs[2][2] == 1 and np.all(pairs[2][0] == 0.0)
    assert min(pair[2] for i, pair in enumerate(pairs) if i != 2) > 1
    assert _adjoint_pairs(prob, data[:0]) == []


def test_solve_adjoints_refuses_a_non_contracting_batch():
    cfg = scenario_a(n=10, k=10)
    data = np.random.default_rng(9).standard_normal((3, cfg.grid.n_interior))
    with pytest.raises(NonContractionError):
        _adjoint_pairs(saddle_module.build_problem(cfg, params(ell=0.05, gamma=0.05)), data)
    with pytest.raises(ValueError):
        _adjoint_pairs(saddle_module.build_problem(cfg, params()), data[:, :-1])


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


@pytest.mark.parametrize("conf", "AB")
def test_basis_is_h10_orthonormal_and_projects_by_h10_inner(conf):
    # in physical form the basis vectors are H^1_0-orthonormal, and rhs and
    # projected are h10_inner of the physical vectors, b and images
    cfg = builders()[conf](n=8, k=8)
    grid = cfg.grid
    basis = GramBasis(cfg, params())
    while basis.extend():
        pass
    vs, gs, b = (to_physical(a, grid) for a in (basis.vectors, basis.images, basis.b))
    assert len(vs) >= 3
    gram = np.array([[h10_inner(v, w, grid) for w in vs] for v in vs])
    assert np.max(np.abs(gram - np.eye(len(vs)))) <= 1e-12
    bnorm, gnorm = h10_norm(b, grid), max(h10_norm(g, grid) for g in gs)
    for i, (v, g) in enumerate(zip(vs, gs)):
        assert abs(basis.rhs[i] - h10_inner(v, b, grid)) <= 1e-12 * bnorm
        ref = [0.5 * (h10_inner(vj, g, grid) + h10_inner(v, gj, grid))
               for vj, gj in zip(vs[:i + 1], gs[:i + 1])]
        assert np.max(np.abs(np.subtract(basis.projected[i], ref))) <= 1e-12 * gnorm

"""The Picard solves on DST modal coefficients against the physical-space coupling.

``tests/_instruments.py`` keeps the coupling as it ran in physical space
(explicit sources marched through ``heat.modal_march``); every coupled solve
of the package must agree with it to round-off.  C and D also run at
s = 0.002, where rho_star^-2 is live and the follower is not zero.
"""

import numpy as np
import pytest

from stackheat import hum as hum_module
from stackheat import saddle as saddle_module
from stackheat.hum import HumSettings, gram_apply, hum_minimize, solve_adjoint
from stackheat.saddle import _leader_array, build_problem, solve_optimality

from _instruments import (reference_adjoint_pairs, reference_equilibria, reference_gram,
                          reference_pairs_hat, to_coords, to_physical)
from _scenarios import builders, params, random_leader

REL = 1e-12

CASES = ([(conf, n, None) for conf in "ABCD" for n in (12, 50)]
         + [(conf, n, 0.002) for conf in "CD" for n in (12, 50)])


def _case(conf, n, s):
    if s is None:
        return builders()[conf](n=n, k=n, y0_kind="random", target_kind="random", seed=5), params()
    cfg = builders()[conf](n=n, k=n, y0_kind="random", target_kind="random", seed=5, s=s)
    return cfg, params(ell=3.0, ell2=4.0)


def _assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= REL * np.max(np.abs(ref))


@pytest.mark.parametrize("conf, n, s", CASES)
def test_solve_optimality_agrees_with_the_physical_coupling(conf, n, s):
    cfg, p = _case(conf, n, s)
    prob = build_problem(cfg, p)
    leader = random_leader(cfg, seed=3, amplitude=0.3)
    sol = solve_optimality(cfg, leader, p)
    state, adjoints, *_ = reference_equilibria(prob, _leader_array(prob, leader)[None])[0]
    _assert_close(sol.state.interior, state)
    assert len(sol.adjoints) == len(adjoints)
    for got, ref in zip(sol.adjoints, adjoints):
        _assert_close(got.interior, ref)


@pytest.mark.parametrize("conf, n, s", CASES)
def test_solve_adjoint_agrees_with_the_physical_coupling(conf, n, s):
    cfg, p = _case(conf, n, s)
    a = np.random.default_rng(4).standard_normal(cfg.grid.n_interior)
    pair = solve_adjoint(cfg, a, p)
    phi, thetas, *_ = reference_adjoint_pairs(build_problem(cfg, p), a[None])[0]
    _assert_close(pair.phi.interior, phi)
    assert len(pair.thetas) == len(thetas)
    for got, ref in zip(pair.thetas, thetas):
        _assert_close(got.interior, ref)


@pytest.mark.parametrize("conf, n, s", CASES)
def test_gram_apply_agrees_with_the_physical_coupling(conf, n, s):
    cfg, p = _case(conf, n, s)
    a = np.random.default_rng(6).standard_normal(cfg.grid.n_interior)
    _assert_close(gram_apply(cfg, a, p), reference_gram(build_problem(cfg, p), a))


@pytest.mark.parametrize("conf, n, s", CASES)
def test_hum_leader_agrees_with_the_physical_coupling(conf, n, s, monkeypatch):
    cfg, p = _case(conf, n, s)
    settings = HumSettings(epsilon=1e-4)
    got = hum_minimize(cfg, p, settings)
    # the whole HUM solve on the physical coupling: Gram images, the free
    # equilibrium, the certificate's adjoint pairs and equilibria
    monkeypatch.setattr(hum_module, "_gram", lambda prob, c: to_coords(
        reference_gram(prob, to_physical(c, cfg.grid)), cfg.grid))
    monkeypatch.setattr(hum_module, "_pairs_hat", reference_pairs_hat)
    monkeypatch.setattr(hum_module, "_equilibria", reference_equilibria)
    monkeypatch.setattr(saddle_module, "_equilibria", reference_equilibria)
    ref = hum_minimize(cfg, p, settings)
    assert got.cg_iterations == ref.cg_iterations
    _assert_close(got.leader.values, ref.leader.values)

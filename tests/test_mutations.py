"""Mutation table: each verdict of ``verify_saddle`` against errors injected into a solved equilibrium.

Aim 3 says a "pass" must mean that something was tested.  Each row injects
one error into the zero-leader equilibrium of a demo at n = K = 16 and names
one verdict of ``runner._verify_verdicts`` (the verdicts ``run`` writes).  A
row expects ``fail``, or declares a blind spot: the verdict passes, and the
row says why and which ROADMAP item is to make it see the error.  A fix
then fails its row, so the table changes with the fix.

The 28 injections:
- A/B: the follower or the disturbance scaled by 1 + {1e-6, 1e-3, 0.1, 1};
- C/D: {1e-6, 1e-3, 1} added on the interior levels of the raw or the
  rho_star-weighted follower.

``disturbance_concavity`` certifies the problem, not the solution, so no
injection here moves it; its failing rows are ``test_saddle``'s at
gamma = 0.05.
"""

import dataclasses
import functools
import os

import numpy as np
import pytest

from stackheat import saddle
from stackheat.config import parse_config
from stackheat.grids import BoundaryTrace, SpaceTimeField
from stackheat.runner import _verify_verdicts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N = 16

BELOW_TOL = ("blind (ROADMAP item 16): a 1e-6 relative error moves a directional "
             "derivative below STATIONARITY_TOL * (1 + |J|)")
RAW_UNREAD = ("blind (ROADMAP item 5): C/D are checked in the weighted follower, "
              "and the raw follower is not read")
PROBLEM_ONLY = "blind by design: the certificate judges the problem, not the solution"


def _rows():
    """One pytest.param(configuration, injected, size, verdict, expected) per table row."""
    for conf in "AB":
        for injected in ("follower", "disturbance"):
            for size in (1e-6, 1e-3, 0.1, 1.0):
                for verdict in ("saddle_conditions", "equilibrium_stationarity",
                                "disturbance_concavity"):
                    expected = (PROBLEM_ONLY if verdict == "disturbance_concavity"
                                else BELOW_TOL if size == 1e-6 else "fail")
                    yield pytest.param(conf, injected, size, verdict, expected,
                                       id=f"{conf}-{injected}x(1+{size:g})-{verdict}")
    for conf, kind in (("C", "minimality_conditions"), ("D", "nash_conditions")):
        for injected in ("raw", "weighted"):
            for size in (1e-6, 1e-3, 1.0):
                for verdict in (kind, "equilibrium_stationarity"):
                    expected = RAW_UNREAD if injected == "raw" else "fail"
                    yield pytest.param(conf, injected, size, verdict, expected,
                                       id=f"{conf}-{injected}+{size:g}-{verdict}")


ROWS = list(_rows())


@functools.lru_cache(maxsize=None)
def _equilibrium(conf):
    spec = parse_config(os.path.join(ROOT, "configs", f"demo_{conf.lower()}.ini"))
    cfg = spec.recipe.build(N, N)
    return cfg, spec.robust, saddle.solve_optimality(cfg, None, spec.robust)


def _inject(sol, injected, size):
    """``sol`` with one error: a scaled A/B control, or an offset C/D follower."""
    if injected == "disturbance":
        d = sol.disturbance
        return dataclasses.replace(sol, disturbance=SpaceTimeField(d.grid, d.tgrid,
                                                                   d.values * (1 + size)))
    if injected == "follower":
        f = sol.follower
        if isinstance(f, dict):
            return dataclasses.replace(sol, follower={
                side: BoundaryTrace(tr.tgrid, side, tr.values * (1 + size))
                for side, tr in f.items()})
        return dataclasses.replace(sol, follower=SpaceTimeField(f.grid, f.tgrid,
                                                                f.values * (1 + size)))
    attr = "follower" if injected == "raw" else "follower_weighted"
    f = getattr(sol, attr)
    traces = f if isinstance(f, tuple) else (f,)
    offset = np.zeros(traces[0].tgrid.n_levels)
    offset[1:-1] = size
    shifted = tuple(BoundaryTrace(tr.tgrid, tr.side, tr.values + offset) for tr in traces)
    return dataclasses.replace(sol, **{attr: shifted if isinstance(f, tuple) else shifted[0]})


@functools.lru_cache(maxsize=None)
def _statuses(conf, injected=None, size=None):
    """verdict name -> status of ``run``'s verify verdicts on the (injected) equilibrium."""
    cfg, params, sol = _equilibrium(conf)
    if injected is not None:
        sol = _inject(sol, injected, size)
    report = saddle.verify_saddle(cfg, sol, None, params, seed=1000)
    return {v.name: v.status for v in _verify_verdicts(cfg, report)}


@pytest.mark.parametrize("conf", "ABCD")
def test_the_uninjected_equilibrium_passes_every_verdict(conf):
    statuses = _statuses(conf)
    assert set(statuses.values()) == {"pass"}
    assert len(statuses) == (3 if conf in "AB" else 2)


def test_the_table_has_a_row_per_injection_and_verdict():
    injections = {row.values[:3] for row in ROWS}
    assert len(injections) == 28
    for conf, injected, size in injections:
        named = sorted(row.values[3] for row in ROWS if row.values[:3] == (conf, injected, size))
        assert named == sorted(_statuses(conf, injected, size)), (conf, injected, size)


@pytest.mark.parametrize("conf, injected, size, verdict, expected", ROWS)
def test_mutation_row(conf, injected, size, verdict, expected):
    status = _statuses(conf, injected, size)[verdict]
    assert status == ("fail" if expected == "fail" else "pass"), expected

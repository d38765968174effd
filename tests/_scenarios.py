"""Shared scenario builders for the test suite."""

import numpy as np

from stackheat.grids import LEFT, RIGHT, BoundarySet, Region, SpatialGrid, TimeGrid
from stackheat.scenario import RobustParams, ScenarioConfig, make_initial, make_target
from stackheat.weights import WeightSpec


def grids(n=4, k=4, T=1.0):
    return SpatialGrid(n), TimeGrid(k, T)


def scenario_a(n=4, k=4, T=1.0, y0_kind="sine", target_kind="sine_cutoff",
               amplitude=1.0, seed=0):
    grid, tgrid = grids(n, k, T)
    obs = Region(0.4, 0.8)
    return ScenarioConfig(
        configuration="A", grid=grid, tgrid=tgrid,
        y0=make_initial(grid, y0_kind, seed=seed),
        target=make_target(grid, tgrid, obs, target_kind, amplitude, seed=seed + 1),
        wspec=WeightSpec(horizon=T),
        omega=Region(0.2, 0.6), obs=obs,
        gamma_set=BoundarySet.from_sides(LEFT))


def scenario_b(n=4, k=4, T=1.0, y0_kind="sine", target_kind="sine_cutoff",
               amplitude=1.0, seed=0, global_disturbance=False):
    grid, tgrid = grids(n, k, T)
    obs = Region(0.6, 0.9)
    return ScenarioConfig(
        configuration="B", grid=grid, tgrid=tgrid,
        y0=make_initial(grid, y0_kind, seed=seed),
        target=make_target(grid, tgrid, obs, target_kind, amplitude, seed=seed + 1),
        wspec=WeightSpec(horizon=T),
        obs=obs, b1=Region(0.0, 0.3), b2=Region(0.0, 0.25),
        gamma_set=BoundarySet.from_sides(LEFT),
        allow_global_disturbance=global_disturbance)


def scenario_c(n=4, k=4, T=1.0, y0_kind="sine", target_kind="sine_cutoff",
               amplitude=1.0, seed=0, s=1.0):
    grid, tgrid = grids(n, k, T)
    obs = Region(0.3, 0.7)
    return ScenarioConfig(
        configuration="C", grid=grid, tgrid=tgrid,
        y0=make_initial(grid, y0_kind, seed=seed),
        target=make_target(grid, tgrid, obs, target_kind, amplitude, seed=seed + 1),
        wspec=WeightSpec(s=s, horizon=T),
        obs=obs,
        gamma1=BoundarySet.from_sides(LEFT),
        gamma2=BoundarySet.from_sides(RIGHT))


def scenario_d(n=4, k=4, T=1.0, y0_kind="sine", target_kind="sine_cutoff",
               amplitude=1.0, seed=0, s=1.0):
    grid, tgrid = grids(n, k, T)
    obs1 = Region(0.2, 0.45)
    obs2 = Region(0.55, 0.8)
    return ScenarioConfig(
        configuration="D", grid=grid, tgrid=tgrid,
        y0=make_initial(grid, y0_kind, seed=seed),
        target=make_target(grid, tgrid, obs1, target_kind, amplitude, seed=seed + 1),
        target2=make_target(grid, tgrid, obs2, target_kind, amplitude, seed=seed + 2),
        wspec=WeightSpec(s=s, horizon=T),
        obs1=obs1, obs2=obs2,
        gamma_set=BoundarySet.from_sides(LEFT),
        gamma1=BoundarySet.from_sides(RIGHT),
        gamma2=BoundarySet.from_sides(RIGHT))


def probe_scenario_a(n=10, k=10, T=1.0):
    """Wide leader region: the coupling's systematic effect on the probe
    ratios dominates the sign-indefinite per-sample O(1/mu) jitter."""
    grid, tgrid = grids(n, k, T)
    obs = Region(0.3, 0.7)
    return ScenarioConfig(
        configuration="A", grid=grid, tgrid=tgrid,
        y0=make_initial(grid, "zero"),
        target=make_target(grid, tgrid, obs, "zero"),
        wspec=WeightSpec(horizon=T),
        omega=Region(0.1, 0.9), obs=obs,
        gamma_set=BoundarySet.from_sides(LEFT))


def builders():
    return {"A": scenario_a, "B": scenario_b, "C": scenario_c, "D": scenario_d}


def params(ell=10.0, gamma=10.0, **kw):
    return RobustParams(ell=ell, gamma=gamma, **kw)


def random_leader(cfg, seed=0, amplitude=1.0):
    """Random leader control of the right kind for the configuration."""
    from stackheat.grids import BoundaryTrace, SpaceTimeField

    rng = np.random.default_rng(seed)
    if cfg.configuration == "A":
        vals = np.zeros((cfg.tgrid.n_levels, cfg.grid.n_nodes))
        mask = cfg.omega.interior_mask(cfg.grid)
        vals[:, 1:-1][:, mask] = amplitude * rng.standard_normal(
            (cfg.tgrid.n_levels, int(mask.sum())))
        return SpaceTimeField(cfg.grid, cfg.tgrid, vals)
    side = cfg.leader_side()
    return BoundaryTrace(cfg.tgrid, side,
                         amplitude * rng.standard_normal(cfg.tgrid.n_levels))

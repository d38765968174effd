"""Scenario descriptions for the four control configurations.

Configuration A: distributed leader on omega, boundary follower on Gamma,
disturbance everywhere, tracking on O_d.
Configuration B: boundary leader on Gamma, distributed follower on B1,
disturbance on B2, tracking on O_d; the geometry must satisfy the separation
hypothesis (observation closure disjoint from the control closures, leader
boundary contained in their boundaries).
Configuration C: boundary leader on Gamma1, boundary follower on Gamma2 with
the blowing-up time weight in its cost, no disturbance.
Configuration D: boundary leader plus two boundary followers in a Nash
arrangement, each with its own tracking region and target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GeometryError
from .grids import (LEFT, RIGHT, BoundarySet, Region, SpaceTimeField,
                    SpatialGrid, TimeGrid)
from .weights import Eta0, EtaBar, EtaPair, WeightSpec

CONFIGURATIONS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class RobustParams:
    """Control/disturbance weights and fixed-point solver knobs."""

    ell: float = 10.0
    gamma: float = 10.0
    fixed_point_tol: float = 1e-13
    max_iterations: int = 400
    ell2: Optional[float] = None  # second follower weight (configuration D)

    def __post_init__(self):
        # an infinite weight makes J nan, and an infinite tolerance would stop
        # every Picard solve after one sweep as converged
        if not (0 < self.ell < math.inf and 0 < self.gamma < math.inf):
            raise ValueError("ell and gamma must be positive and finite, "
                             f"got ell = {self.ell}, gamma = {self.gamma}")
        if not 0 < self.fixed_point_tol < math.inf:
            raise ValueError(
                f"fixed_point_tol must be positive and finite, got {self.fixed_point_tol}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.ell2 is not None and not 0 < self.ell2 < math.inf:
            raise ValueError(f"ell2 must be positive and finite when given, got {self.ell2}")

    @property
    def second_ell(self) -> float:
        return self.ell if self.ell2 is None else self.ell2


@dataclass
class ScenarioConfig:
    configuration: str
    grid: SpatialGrid
    tgrid: TimeGrid
    y0: np.ndarray
    target: SpaceTimeField
    wspec: WeightSpec = field(default_factory=WeightSpec)
    omega: Optional[Region] = None          # A: leader support
    obs: Optional[Region] = None            # O_d (A, B, C)
    obs1: Optional[Region] = None           # D
    obs2: Optional[Region] = None           # D
    b1: Optional[Region] = None             # B: follower support
    b2: Optional[Region] = None             # B: disturbance support
    gamma_set: Optional[BoundarySet] = None  # A follower / B leader / D leader
    gamma1: Optional[BoundarySet] = None     # C leader / D follower 1
    gamma2: Optional[BoundarySet] = None     # C follower / D follower 2
    target2: Optional[SpaceTimeField] = None  # D: second target
    allow_global_disturbance: bool = False    # B variant: disturbance on all of Q

    def __post_init__(self):
        if self.configuration not in CONFIGURATIONS:
            raise ValueError(f"configuration must be one of {CONFIGURATIONS}")
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.shape == (self.grid.n_nodes,):
            self.y0 = self.y0[1:-1].copy()
        if self.y0.shape != (self.grid.n_interior,):
            raise ValueError(f"y0 must have {self.grid.n_interior} interior values")

    # -- derived helpers ----------------------------------------------------

    def leader_set(self) -> BoundarySet:
        if self.configuration in ("B", "D"):
            return self.gamma_set
        if self.configuration == "C":
            return self.gamma1
        raise ValueError("configuration A has a distributed leader")

    def leader_side(self) -> str:
        support = self.leader_set().support
        return support[0]

    def observation_regions(self) -> tuple:
        if self.configuration == "D":
            return (self.obs1, self.obs2)
        return (self.obs,)

    def targets(self) -> tuple:
        if self.configuration == "D":
            return (self.target, self.target2)
        return (self.target,)

    def eta(self):
        """The weight profile the configuration's estimates are built on."""
        L = self.grid.length
        if self.configuration == "A":
            return Eta0(L, tuple(self.gamma_set.support))
        if self.configuration == "B":
            side = self.leader_side()
            if side == LEFT:
                b = max(self.b1.b, self.b2.b)
                c = self.obs.a
            else:
                b = L - min(self.b1.a, self.b2.a)
                c = L - self.obs.b
            return EtaPair(L, b=b, c=c, side=side)
        return EtaBar(L, side=self.leader_side())


def validate_config(cfg: ScenarioConfig) -> list:
    """Return every violated geometric hypothesis, with the result it breaks."""
    errors = []
    L = cfg.grid.length

    def need(attr, name):
        if getattr(cfg, attr) is None:
            errors.append(f"configuration {cfg.configuration} requires {name}")
            return False
        return True

    if cfg.configuration == "A":
        ok = need("omega", "the leader region omega") & need("obs", "the observation region O_d")
        if need("gamma_set", "the follower boundary set Gamma"):
            try:
                cfg.gamma_set.require_support("follower boundary set Gamma")
            except ValueError as exc:
                errors.append(str(exc))
        if ok and not cfg.omega.intersects(cfg.obs):
            errors.append(
                f"omega=({cfg.omega.a}, {cfg.omega.b}) and O_d=({cfg.obs.a}, {cfg.obs.b}) "
                "are disjoint: omega n O_d = 0 violates the hypothesis of the "
                "distributed-leader null-controllability result (Theorem 1)")

    elif cfg.configuration == "B":
        ok = need("obs", "the observation region O_d")
        ok &= need("b1", "the follower region B1") & need("b2", "the disturbance region B2")
        if need("gamma_set", "the leader boundary set Gamma"):
            support = cfg.gamma_set.support
            if len(support) != 1:
                errors.append("boundary leader must act through exactly one endpoint in 1D")
            elif ok:
                side = support[0]
                for name, reg in (("B1", cfg.b1), ("B2", cfg.b2)):
                    if name == "B2" and cfg.allow_global_disturbance:
                        continue
                    touches = (side == LEFT and abs(reg.a) < 1e-12) or \
                              (side == RIGHT and abs(reg.b - L) < 1e-12)
                    if not touches:
                        errors.append(
                            f"closure of Gamma ({side}) not contained in the boundary of "
                            f"{name}=({reg.a}, {reg.b}): violates the separation hypothesis "
                            "of the boundary-leader result (Theorem 2)")
        if ok:
            for name, reg in (("B1", cfg.b1), ("B2", cfg.b2)):
                if name == "B2" and cfg.allow_global_disturbance:
                    continue
                if cfg.obs.closure_intersects(reg):
                    errors.append(
                        f"closures of O_d and {name} intersect: violates the separation "
                        "hypothesis of the boundary-leader result (Theorem 2)")

    elif cfg.configuration == "C":
        need("obs", "the observation region O_d")
        if need("gamma1", "the leader boundary set Gamma1") & need("gamma2", "the follower boundary set Gamma2"):
            for name, bs in (("Gamma1", cfg.gamma1), ("Gamma2", cfg.gamma2)):
                try:
                    bs.require_support(name)
                except ValueError as exc:
                    errors.append(str(exc))
            if not cfg.gamma1.disjoint(cfg.gamma2):
                errors.append(
                    "Gamma1 and Gamma2 share an endpoint: the all-boundary configuration "
                    "requires Gamma1 n Gamma2 = 0 (Theorem 3)")
            if len(cfg.gamma1.support) != 1:
                errors.append("boundary leader must act through exactly one endpoint in 1D")

    elif cfg.configuration == "D":
        need("obs1", "observation region O_1d") & need("obs2", "observation region O_2d")
        if cfg.target2 is None:
            errors.append("configuration D requires a second target field")
        if need("gamma_set", "the leader boundary set Gamma") & \
           need("gamma1", "follower boundary set Gamma1") & need("gamma2", "follower boundary set Gamma2"):
            for name, bs in (("Gamma", cfg.gamma_set), ("Gamma1", cfg.gamma1), ("Gamma2", cfg.gamma2)):
                try:
                    bs.require_support(name)
                except ValueError as exc:
                    errors.append(str(exc))
            for name, bs in (("Gamma1", cfg.gamma1), ("Gamma2", cfg.gamma2)):
                if not cfg.gamma_set.disjoint(bs):
                    errors.append(
                        f"leader set Gamma meets follower set {name}: the Nash configuration "
                        "requires Gamma n Gamma_i = 0")
            if len(cfg.gamma_set.support) != 1:
                errors.append("boundary leader must act through exactly one endpoint in 1D")

    # targets must live on the observation regions and the scenario grids
    for reg, tgt in zip(cfg.observation_regions(), cfg.targets()):
        if tgt is None or reg is None:
            continue
        if tgt.grid != cfg.grid or tgt.tgrid != cfg.tgrid:
            errors.append("target field lives on a different grid than the scenario")
            continue
        mask = reg.interior_mask(cfg.grid)
        if np.any(tgt.interior[:, ~mask] != 0.0) or np.any(tgt.values[:, [0, -1]] != 0.0):
            errors.append("target field has support outside its observation region")

    return errors


def require_valid(cfg: ScenarioConfig):
    errors = validate_config(cfg)
    if errors:
        raise GeometryError("; ".join(errors))


# --- data builders ----------------------------------------------------------

def make_initial(grid: SpatialGrid, kind: str = "sine", amplitude: float = 1.0,
                 seed: int = 0) -> np.ndarray:
    """Initial datum on the interior nodes."""
    x = grid.interior_nodes()
    if kind == "zero":
        return np.zeros(grid.n_interior)
    if kind == "sine":
        return amplitude * np.sin(np.pi * x / grid.length)
    if kind == "random":
        return amplitude * np.random.default_rng(seed).standard_normal(grid.n_interior)
    raise ValueError(f"unknown initial-datum kind {kind!r}")


def _time_cutoff(tgrid: TimeGrid) -> np.ndarray:
    """Smooth profile equal to 1 early, 0 from T/2 on (keeps targets admissible)."""
    t = tgrid.times()
    T = tgrid.horizon
    sigma = np.clip((t - 0.3 * T) / (0.2 * T), 0.0, 1.0)
    return 1.0 - sigma ** 3 * (10.0 - 15.0 * sigma + 6.0 * sigma ** 2)


def make_target(grid: SpatialGrid, tgrid: TimeGrid, region: Region,
                kind: str = "sine_cutoff", amplitude: float = 1.0,
                seed: int = 0) -> SpaceTimeField:
    """Target field supported on the observation region.

    All non-zero kinds are multiplied by a smooth time cutoff vanishing from
    T/2 on, which keeps the weighted admissibility integral finite.
    """
    mask = region.interior_mask(grid)
    vals = np.zeros((tgrid.n_levels, grid.n_nodes))
    x = grid.interior_nodes()
    if kind == "zero":
        pass
    elif kind == "constant":
        vals[:, 1:-1] = amplitude
    elif kind == "sine_cutoff":
        cut = _time_cutoff(tgrid)
        vals[:, 1:-1] = amplitude * cut[:, None] * np.sin(np.pi * x / grid.length)[None, :]
    elif kind == "random":
        rng = np.random.default_rng(seed)
        cut = _time_cutoff(tgrid)
        vals[:, 1:-1] = amplitude * cut[:, None] * rng.standard_normal((tgrid.n_levels, grid.n_interior))
    else:
        raise ValueError(f"unknown target kind {kind!r}")
    vals[:, 1:-1][:, ~mask] = 0.0
    return SpaceTimeField(grid, tgrid, vals)

"""Discrete geometry: tensor space-time grids, fields, traces and regions.

The spatial domain is the interval (0, L) with n_interior equispaced interior
nodes; nodes 0 and n_interior + 1 are the boundary points.  Time levels are
k * dt for k = 0..n_steps.  A space-time field stores one row per time level,
one column per node (including the boundary columns), which is also the CSV
layout used for serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EmptyRegionError, GridMismatchError

LEFT = "left"
RIGHT = "right"
SIDES = (LEFT, RIGHT)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on (0, L) with ``n_interior`` interior nodes."""

    n_interior: int
    length: float = 1.0

    def __post_init__(self):
        if self.n_interior < 2:
            raise ValueError(f"n_interior must be >= 2, got {self.n_interior}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def n_nodes(self) -> int:
        return self.n_interior + 2

    def nodes(self) -> np.ndarray:
        """All node coordinates, boundary points included."""
        return np.linspace(0.0, self.length, self.n_nodes)

    def interior_nodes(self) -> np.ndarray:
        return self.nodes()[1:-1]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into ``n_steps`` steps."""

    n_steps: int
    horizon: float = 1.0

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def n_levels(self) -> int:
        return self.n_steps + 1

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_levels)

    def midpoint_times(self) -> np.ndarray:
        t = self.times()
        return 0.5 * (t[:-1] + t[1:])


def check_same_grids(a, b):
    if a.grid != b.grid or a.tgrid != b.tgrid:
        raise GridMismatchError(f"grid mismatch: {a.grid}/{a.tgrid} vs {b.grid}/{b.tgrid}")


@dataclass
class SpaceTimeField:
    """Scalar field sampled on the tensor grid, shape (n_levels, n_nodes)."""

    grid: SpatialGrid
    tgrid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.tgrid.n_levels, self.grid.n_nodes)
        if self.values.shape != expected:
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grids {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    @classmethod
    def zeros(cls, grid: SpatialGrid, tgrid: TimeGrid) -> "SpaceTimeField":
        return cls(grid, tgrid, np.zeros((tgrid.n_levels, grid.n_nodes)))

    @classmethod
    def from_function(cls, grid: SpatialGrid, tgrid: TimeGrid,
                      f: Callable[[np.ndarray, float], np.ndarray]) -> "SpaceTimeField":
        x = grid.nodes()
        vals = np.stack([np.broadcast_to(f(x, t), x.shape) for t in tgrid.times()])
        return cls(grid, tgrid, np.array(vals, dtype=float))

    @property
    def interior(self) -> np.ndarray:
        """View of the interior columns, shape (n_levels, n_interior)."""
        return self.values[:, 1:-1]

    def copy(self) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.tgrid, self.values.copy())


@dataclass
class BoundaryTrace:
    """Time trace of a quantity attached to one boundary endpoint."""

    tgrid: TimeGrid
    side: str
    values: np.ndarray

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.tgrid.n_levels,):
            raise GridMismatchError(
                f"trace length {self.values.shape} does not match {self.tgrid.n_levels} levels"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trace contains non-finite entries")

    @classmethod
    def zeros(cls, tgrid: TimeGrid, side: str) -> "BoundaryTrace":
        return cls(tgrid, side, np.zeros(tgrid.n_levels))


# Role tags a region may carry; purely descriptive.
REGION_ROLES = ("omega", "O_d", "B1", "B2")


@dataclass(frozen=True)
class Region:
    """Open subinterval (a, b) of the domain with an optional role tag."""

    a: float
    b: float
    role: str = "omega"

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"region must have a < b, got ({self.a}, {self.b})")
        if self.a < 0:
            raise ValueError(f"region start {self.a} below 0")
        if self.role not in REGION_ROLES:
            raise ValueError(f"unknown region role {self.role!r}")

    def intersects(self, other: "Region") -> bool:
        return max(self.a, other.a) < min(self.b, other.b)

    def closure_intersects(self, other: "Region") -> bool:
        return max(self.a, other.a) <= min(self.b, other.b)

    def interior_mask(self, grid: SpatialGrid) -> np.ndarray:
        """Boolean mask over the interior nodes (characteristic quadrature)."""
        if self.b > grid.length + 1e-12:
            raise ValueError(f"region ({self.a}, {self.b}) exceeds the domain (0, {grid.length})")
        x = grid.interior_nodes()
        mask = (x >= self.a - 1e-12) & (x <= self.b + 1e-12)
        if not mask.any():
            raise EmptyRegionError(
                f"region ({self.a}, {self.b}) contains no interior node at dx={grid.dx:.4g}"
            )
        return mask


@dataclass(frozen=True)
class BoundarySet:
    """Subset of the two endpoints with nonnegative weights (discrete rho_Gamma).

    The weight plays the role of the smooth boundary cutoff: an endpoint
    belongs to the set iff its weight is positive.
    """

    weights: tuple = field(default=((LEFT, 1.0),))

    def __post_init__(self):
        seen = set()
        for side, w in self.weights:
            if side not in SIDES:
                raise ValueError(f"unknown boundary side {side!r}")
            if side in seen:
                raise ValueError(f"duplicate side {side!r}")
            if w < 0:
                raise ValueError(f"boundary weight for {side!r} must be >= 0, got {w}")
            seen.add(side)

    @classmethod
    def from_sides(cls, *sides: str, weight: float = 1.0) -> "BoundarySet":
        return cls(tuple((s, weight) for s in sides))

    def weight(self, side: str) -> float:
        for s, w in self.weights:
            if s == side:
                return w
        return 0.0

    @property
    def support(self) -> tuple:
        """Sides with positive weight."""
        return tuple(s for s, w in self.weights if w > 0)

    def require_support(self, what: str = "boundary set"):
        if not self.support:
            raise ValueError(f"{what} must have at least one positive endpoint weight")

    def disjoint(self, other: "BoundarySet") -> bool:
        return not set(self.support) & set(other.support)

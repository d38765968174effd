"""Exception types shared across the package."""


class StackheatError(Exception):
    """Base class for package errors."""


class GridMismatchError(StackheatError, ValueError):
    """Operands live on different space or time grids."""


class EmptyRegionError(StackheatError, ValueError):
    """A region contains no grid nodes after clipping."""


class GeometryError(StackheatError, ValueError):
    """A scenario violates one of the geometric hypotheses."""


class ConfigError(StackheatError, ValueError):
    """Experiment configuration file is malformed or violates the schema."""


class NonFiniteError(StackheatError, ValueError):
    """A march produced non-finite values: non-finite data or overflow."""


class NonContractionError(StackheatError, RuntimeError):
    """Picard iteration on a coupled system failed to contract.

    Carries the observed residual ratio so callers can report it.
    """

    def __init__(self, ratio: float, iterations: int):
        self.ratio = ratio
        self.iterations = iterations
        super().__init__(
            f"fixed-point iteration is not contracting (observed residual "
            f"ratio {ratio:.3g} over {iterations} sweeps); increase the "
            f"control/disturbance weights (ell, gamma) or refine tolerances"
        )


class ConvergenceError(StackheatError, RuntimeError):
    """An iterative solve ran out of iterations or stagnated."""

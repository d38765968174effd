"""Robust Stackelberg control of the 1D heat equation.

A leader control steers the state to zero at the final time (penalized HUM,
solved on a Krylov basis of its Gram operator) while a follower solves a
robust tracking problem against the worst disturbance (saddle point of a
quadratic functional, found by fixed-point iteration on the coupled
optimality system).  Four control configurations are supported: distributed
leader with boundary follower, boundary leader with distributed follower,
all-boundary with a weighted follower cost, and a two-follower Nash
arrangement.
"""

from .grids import (BoundarySet, BoundaryTrace, Region, SpaceTimeField,
                    SpatialGrid, TimeGrid)
from .heat import solve_backward, solve_forward
from .products import h10_inner, h10_norm, hminus1_norm, l2_q
from .scenario import (RobustParams, ScenarioConfig, make_initial, make_target,
                       validate_config)
from .saddle import SaddleSolution, evaluate_functional, solve_optimality, verify_saddle
from .hum import (AdjointPair, GramBasis, HumResult, HumSettings, gram_apply, hum_ladder,
                  hum_minimize, observability_probe, observation, solve_adjoint)
from .weights import (AdmissibilityReport, Eta0, EtaBar, EtaPair, WeightSpec,
                      admissibility_check, l_of_t, rho_star_inv_sq, target_weight)
from .config import ExperimentSpec, parse_config
from .runner import (RunReport, convergence_study, eps_sweep, probe_run,
                     run_experiment)

__version__ = "0.1.0"

__all__ = [
    "AdjointPair", "AdmissibilityReport", "BoundarySet", "BoundaryTrace", "Eta0", "EtaBar",
    "EtaPair", "ExperimentSpec", "GramBasis", "HumResult", "HumSettings", "Region",
    "RobustParams", "RunReport", "SaddleSolution", "ScenarioConfig", "SpaceTimeField",
    "SpatialGrid", "TimeGrid", "WeightSpec", "admissibility_check", "config",
    "convergence_study", "csvio", "eps_sweep", "errors", "evaluate_functional", "gram_apply",
    "grids", "h10_inner", "h10_norm", "heat", "hminus1_norm", "hum", "hum_ladder",
    "hum_minimize", "l2_q", "l_of_t", "make_initial", "make_target", "observability_probe",
    "observation", "oracle", "parse_config", "probe_run", "products", "rho_star_inv_sq",
    "run_experiment", "runner", "saddle", "scenario", "solve_adjoint", "solve_backward",
    "solve_forward", "solve_optimality", "target_weight", "validate_config", "verify_saddle",
    "weights",
]

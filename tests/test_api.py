"""The public surface of the package: what ``from stackheat import *`` exports."""

import stackheat

# The library's entry points plus the submodules that ``__init__`` imports.  A
# change that drops or adds one of them must say so by editing this list.
PUBLIC = [
    "AdjointPair", "AdmissibilityReport", "BoundarySet", "BoundaryTrace", "Eta0", "EtaBar",
    "EtaPair", "ExperimentSpec", "GramBasis", "HumResult", "HumSettings", "Region",
    "RobustParams", "RunReport", "SaddleSolution", "ScenarioConfig", "SpaceTimeField",
    "SpatialGrid", "TimeGrid", "WeightSpec", "admissibility_check", "alpha_xi",
    "beta_weights", "config", "convergence_study", "csvio", "eps_sweep", "errors",
    "evaluate_functional", "gateaux_check", "gradient_check", "gram_apply", "grids",
    "h10_inner", "h10_norm", "heat", "hminus1_norm", "hum", "hum_minimize", "l2_boundary",
    "l2_q", "l2_region", "l_of_t", "make_initial", "make_target",
    "normal_derivative", "observability_probe", "observation", "oracle", "parse_config",
    "probe_run", "products", "rho_star", "rho_star_inv_sq", "run_experiment", "runner",
    "saddle", "scenario", "section3_weights", "solve_adjoint", "solve_backward",
    "solve_forward", "solve_optimality", "target_weight", "validate_config", "verify_saddle",
    "weights",
]


def test_public_surface_is_pinned():
    assert sorted(stackheat.__all__) == PUBLIC


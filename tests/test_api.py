"""The public names of the package, pinned: adding or removing one is an
API change and shows up here as a diff of this list."""

import types

import bslq

PUBLIC = [
    "AffineBsdeSolution", "AffineProcess", "BUILTIN_NAMES", "BinomialTree", "BoundCheck",
    "BrownianEnsemble", "BsdeDriftSpec", "CheckRow", "ConsistencyError", "ConvexityError",
    "CostReport", "DiscreteSolution", "ForwardProblemSpec",
    "ForwardRiccatiSolution", "HSolution", "IntegrationError", "MatrixPath", "OdeProblem",
    "OptimalSynthesis", "OracleComparison", "PathEnsemble", "PerturbationReport",
    "PositivityError", "ProbeReport", "ProblemSpec", "ReducedProblem", "ReductionError",
    "RiccatiSolution", "ScenarioError", "SimulationError", "SingularityError",
    "SpecValidationError", "StationarityReport", "TimeGrid", "ValidationReport",
    "VerificationResult", "apriori_bound_check", "assemble_drift", "builtin_scenario",
    "compare", "convexity_probe", "evaluate_cost", "forward_value", "forward_value_formula",
    "homogeneous", "integrate", "interior_derivative", "load_scenario", "map_control",
    "parse_scenario", "perturbation_identity", "random_affine_control", "reduce_problem",
    "replay_cost", "resample", "save_scenario", "scenario_document",
    "simulate_forward_closed_loop", "solve_affine_bsde", "solve_controlled_state",
    "solve_discrete", "solve_eta_zeta", "solve_forward_riccati", "solve_h", "solve_sigma",
    "solve_value", "stationarity_residual", "synthesize_optimal",
    "uniform_convexity_conditions", "validate", "value_formula", "verify", "verify_backward",
    "verify_forward",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(bslq).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC

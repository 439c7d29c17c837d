"""Solver and verification toolkit for indefinite backward stochastic
linear-quadratic control problems with nonhomogeneous terms.

The pipeline: reduce the problem to its canonical cross-term-free form,
solve the backward Riccati equation and the affine auxiliary BSDE, simulate
the dual SDE, synthesize the optimal control pointwise, and verify
optimality three independent ways (stationarity identity, quadratic
perturbation expansion, binomial-tree brute force).
"""

from .bsde import (AffineBsdeSolution, BsdeDriftSpec, assemble_drift,
                   solve_affine_bsde, solve_controlled_state, solve_eta_zeta)
from .errors import (ConsistencyError, ConvexityError, IntegrationError,
                     PositivityError, ReductionError, ScenarioError,
                     SimulationError, SingularityError, SpecValidationError)
from .evaluate import (BoundCheck, CheckRow, CostReport, PerturbationReport,
                       ProbeReport, StationarityReport, VerificationResult,
                       apriori_bound_check, convexity_probe, evaluate_cost,
                       forward_value, forward_value_formula, perturbation_identity,
                       random_affine_control, solve_value, stationarity_residual,
                       value_formula, verify, verify_backward, verify_forward)
from .grid import AffineProcess, MatrixPath, TimeGrid
from .ode import OdeProblem, integrate, interior_derivative
from .oracle import (BinomialTree, DiscreteSolution, OracleComparison, compare,
                     replay_cost, solve_discrete)
from .problem import (BUILTIN_NAMES, ForwardProblemSpec, ProblemSpec,
                      ValidationReport, builtin_scenario, homogeneous,
                      load_scenario, parse_scenario, resample, save_scenario,
                      scenario_document, validate)
from .reduction import ReducedProblem, map_control, reduce_problem
from .riccati import (ForwardRiccatiSolution, HSolution, RiccatiSolution,
                      solve_forward_riccati, solve_h, solve_sigma,
                      uniform_convexity_conditions)
from .simulate import (BrownianEnsemble, OptimalSynthesis, PathEnsemble,
                       simulate_forward_closed_loop, synthesize_optimal)

__version__ = "0.1.0"

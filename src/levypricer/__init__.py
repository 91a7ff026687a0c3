"""American and European option pricing in multidimensional exponential
Levy models: PIDE obstacle solver, Monte Carlo oracle, and the
early-exercise premium identity."""

from .errors import (BetaTooSmall, GridCoverageTooSmall, InvalidDomain, KinkTooClose,
                     LinearSolveFailure, ModelRejected, NewtonStall, NonIntegrableJump,
                     OutOfDomain, PenaltyNonMonotone, PricingError,
                     QuadratureTailTooHeavy, SchemeNotMonotone)
from .model import (Empirical, GaussianPart, JumpSpec, KouDoubleExponential,
                    LevyModel, MertonNormal, PathSet, Rates, ValidationReport,
                    exp_moment, load_model, model_from_dict, model_to_dict,
                    simulate_paths, validate_integrability)
from .monte_carlo import (Estimate, MCConfig, RegressionBasis, estimate_premium_mc,
                          price_american_ls, price_european_mc)
from .payoffs import Payoff, load_payoff, payoff_from_dict
from .pide import (DiscreteOperator, Grid, Solution, SolverConfig, assemble, build_grid,
                   complementarity_residual, export_solution_csv, solve_american_penalty,
                   solve_european, solve_pair)
from .premium import PremiumReport, boundary_curve, premium_identity

__all__ = [name for name in dir() if not name.startswith("_")]

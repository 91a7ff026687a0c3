"""Early-exercise premium identity and the exercise boundary.

The identity under test: American value = European value + discounted
expected integral of (Psi^- - L_I u) over the exercise region.  The caller's
PIDE solves and the Monte Carlo premium estimated here are compared inside a
single machine-checkable report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelRejected
from .model import LevyModel, validate_integrability
from .monte_carlo import Estimate, MCConfig, premium_sweep
from .payoffs import Payoff
from .pide import Solution, SolverConfig, build_grid, check_beta

SENSITIVITY_TOLS = (1e-5, 1e-6, 1e-7)


@dataclass(frozen=True)
class PremiumReport:
    american_pide: float
    european_pide: float
    premium_mc: Estimate
    identity_gap: float
    tolerance: float
    passed: bool
    sensitivity: dict
    tolerance_sensitive: bool
    exit_fraction: float
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "american_pide": self.american_pide,
            "european_pide": self.european_pide,
            "premium": self.premium_mc.to_dict(),
            "identity_gap": self.identity_gap,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "tolerance_sensitive": self.tolerance_sensitive,
            "sensitivity": {f"{tol:g}": gap for tol, gap in self.sensitivity.items()},
            "exit_fraction": self.exit_fraction,
        }


def check_admissible(model: LevyModel, payoff: Payoff, solver_cfg: SolverConfig) -> None:
    """Refuse a model whose jump law lacks the exponential moments the premium
    identity rests on: p is the payoff's growth exponent, beta the solver's
    weight exponent and epsilon 0.1.  Raises BetaTooSmall when beta <= p
    (`check_beta`), else ModelRejected naming the failed conditions."""
    check_beta(solver_cfg.beta, payoff)
    report = validate_integrability(model.jumps, payoff.growth_exponent(),
                                    solver_cfg.beta, epsilon=0.1)
    if not report.ok:
        bad = [c.name for c in report.checks if not c.holds]
        raise ModelRejected(f"integrability failures: {bad}; see `levypricer validate`")


def premium_identity(model: LevyModel, payoff: Payoff, spot, T: float,
                     solver_cfg: SolverConfig, mc_cfg: MCConfig,
                     solutions: tuple[Solution, Solution]) -> PremiumReport:
    """Assemble the report from solved (american, european) `solutions`.

    Refuses `solutions` solved for another model, payoff, maturity, spot or
    `solver_cfg`, and inadmissible models (`check_admissible`).  The identity gap is
    |american - european - premium| at the solver's exercise tolerance; the
    sensitivity map re-evaluates the Monte Carlo premium for the band
    tolerances 1e-5, 1e-6, 1e-7 from the same paths, which step on the
    American solution's time grid: its `n_time` is the recorded MC `n_steps`.
    """
    spot = np.atleast_1d(np.asarray(spot, dtype=float))
    american, european = solutions
    if american.kind != "american" or european.kind != "european":
        raise ValueError("expected (american, european) solutions")
    for sol in solutions:
        sol.check_solved_for(model, payoff, T)
        if not np.array_equal(sol.grid.z_center, np.log(spot)):
            raise ValueError(f"the {sol.kind} solution was solved for spot "
                             f"{np.exp(sol.grid.z_center).tolist()}, not {spot.tolist()}")
    grid = build_grid(american.model, american.payoff, spot, american.grid.T, solver_cfg.n_space,
                      solver_cfg.n_time, solver_cfg.beta, solver_cfg.trunc_tol, solver_cfg.y_max_tail)
    solved = (american.grid, european.grid, american.exercise_tol, tuple(american.metadata["penalty_ladder"]))
    if (grid, grid, solver_cfg.exercise_tol, solver_cfg.penalty_ladder) != solved:
        raise ValueError(f"the solutions were not solved with the solver config {solver_cfg.to_dict()}")
    check_admissible(american.model, american.payoff, solver_cfg)

    base_tol = american.exercise_tol
    tols = tuple(sorted(set(SENSITIVITY_TOLS) | {base_tol}, reverse=True))
    estimates, exit_fraction = premium_sweep(american, spot, mc_cfg.n_paths, mc_cfg.seed,
                                             exercise_tols=tols, n_threads=mc_cfg.n_threads)
    amer = american.value_at_spot()
    eur = european.value_at_spot()
    premium = estimates[base_tol]
    gap = abs(amer - eur - premium.mean)
    tolerance = max(0.005 * amer, 3.0 * premium.stderr)
    sensitivity = {tol: abs(amer - eur - estimates[tol].mean) for tol in SENSITIVITY_TOLS}
    spread = max(sensitivity.values()) - min(sensitivity.values())
    sensitive = spread >= tolerance
    passed = gap <= tolerance and not sensitive
    inputs = {"spot": spot.tolist(), "T": american.grid.T, "solver": solver_cfg.to_dict(),
              "mc": {**mc_cfg.to_dict(), "n_steps": american.grid.n_time},
              "payoff": american.payoff.to_dict()}
    return PremiumReport(american_pide=amer, european_pide=eur, premium_mc=premium,
                         identity_gap=gap, tolerance=tolerance, passed=passed,
                         sensitivity=sensitivity, tolerance_sensitive=sensitive,
                         exit_fraction=exit_fraction, inputs=inputs)


# --------------------------------------------------------------------------- #
# Exercise boundary
# --------------------------------------------------------------------------- #

def boundary_curve(solution: Solution, payoff: Payoff) -> np.ndarray:
    """Rows (t, boundary_price) per time level: the largest exercised price for
    puts, the smallest for calls; NaN where the region is empty."""
    solution.check_solved_for(solution.model, payoff, solution.grid.T)
    grid = solution.grid
    if grid.dim != 1:
        raise ValueError(f"boundary_curve needs a 1D solution, got dim {grid.dim}")
    prices = np.exp(grid.axes[0])
    reduce, empty = (np.max, -np.inf) if solution.payoff.is_put else (np.min, np.inf)
    bound = reduce(np.where(solution.exercise_set, prices, empty), axis=1)
    return np.column_stack([grid.times, np.where(solution.exercise_set.any(axis=1), bound, np.nan)])

"""Early-exercise premium identity and the exercise boundary.

The identity under test: American value = European value + discounted
expected integral of (Psi^- - L_I u) over the exercise region.  Both PIDE
prices and the Monte Carlo premium are produced here and compared inside a
single machine-checkable report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelRejected
from .model import LevyModel, validate_integrability
from .monte_carlo import Estimate, MCConfig, premium_sweep
from .payoffs import Payoff
from .pide import Grid, Solution, SolverConfig, solve_pair

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
    weight exponent and epsilon 0.1.  Raises ModelRejected naming the failed
    conditions, or ValueError when beta <= p."""
    report = validate_integrability(model.jumps, payoff.growth_exponent(),
                                    solver_cfg.beta, epsilon=0.1)
    if not report.ok:
        bad = [c.name for c in report.checks if not c.holds]
        raise ModelRejected(f"integrability failures: {bad}; see `levypricer validate`")


def premium_identity(model: LevyModel, payoff: Payoff, spot, T: float,
                     solver_cfg: SolverConfig | None = None,
                     mc_cfg: MCConfig | None = None,
                     solutions: tuple[Solution, Solution] | None = None) -> PremiumReport:
    """Price both sides of the premium identity and assemble the report.

    Refuses inadmissible models (`check_admissible`) before any solve, and
    `solutions` solved for another payoff or spot.  The identity gap is
    |american - european - premium| at the solver's exercise tolerance; the
    sensitivity map re-evaluates the Monte Carlo premium for the band
    tolerances 1e-5, 1e-6, 1e-7 from the same paths.
    """
    solver_cfg = solver_cfg or SolverConfig()
    mc_cfg = mc_cfg or MCConfig()
    check_admissible(model, payoff, solver_cfg)
    spot = np.atleast_1d(np.asarray(spot, dtype=float))
    if solutions is None:
        _, _, american, european = solve_pair(model, payoff, spot, T, solver_cfg)
    else:
        american, european = solutions
        if american.kind != "american" or european.kind != "european":
            raise ValueError("expected (american, european) solutions")
        for sol in solutions:
            if sol.payoff.to_dict() != payoff.to_dict() or not np.array_equal(sol.grid.z_center, np.log(spot)):
                raise ValueError(f"the {sol.kind} solution was solved for {sol.payoff.to_dict()} at spot "
                                 f"{np.exp(sol.grid.z_center).tolist()}, not this payoff and spot")

    base_tol = american.exercise_tol
    tols = tuple(sorted(set(SENSITIVITY_TOLS) | {base_tol}, reverse=True))
    sweep = premium_sweep(model, payoff, american, 0.0, spot, T,
                          mc_cfg.n_paths, mc_cfg.seed, exercise_tols=tols,
                          n_threads=mc_cfg.n_threads)
    amer = american.value_at_spot()
    eur = european.value_at_spot()
    premium = sweep[base_tol]
    gap = abs(amer - eur - premium.mean)
    tolerance = max(0.005 * amer, 3.0 * premium.stderr)
    sensitivity = {tol: abs(amer - eur - sweep[tol].mean) for tol in SENSITIVITY_TOLS}
    spread = max(sensitivity.values()) - min(sensitivity.values())
    sensitive = spread >= tolerance
    passed = gap <= tolerance and not sensitive
    inputs = {"spot": spot.tolist(), "T": T,
              "solver": solver_cfg.to_dict(), "mc": mc_cfg.to_dict(),
              "payoff": payoff.to_dict()}
    return PremiumReport(american_pide=amer, european_pide=eur, premium_mc=premium,
                         identity_gap=gap, tolerance=tolerance, passed=passed,
                         sensitivity=sensitivity, tolerance_sensitive=sensitive,
                         exit_fraction=sweep["exit_fraction"], inputs=inputs)


# --------------------------------------------------------------------------- #
# Exercise boundary
# --------------------------------------------------------------------------- #

def _boundary_price(grid: Grid, mask: np.ndarray, payoff: Payoff) -> float | None:
    """Free-boundary price of one d = 1 exercise-set slice: the largest
    exercised node for puts, the smallest for calls; None when it is empty."""
    if not mask.any():
        return None
    prices = np.exp(grid.axes[0])
    exercised = prices[mask]
    return float(exercised.max()) if payoff.is_put else float(exercised.min())


def boundary_curve(solution: Solution, payoff: Payoff) -> np.ndarray:
    """Rows (t, boundary_price) per time level; NaN where the region is empty."""
    grid = solution.grid
    rows = np.full((grid.n_time + 1, 2), np.nan)
    rows[:, 0] = grid.times
    for k in range(grid.n_time + 1):
        b = _boundary_price(grid, solution.exercise_set[k], payoff)
        if b is not None:
            rows[k, 1] = b
    return rows

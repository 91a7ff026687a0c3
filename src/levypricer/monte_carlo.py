"""Monte Carlo pricing oracle: European mean, Longstaff-Schwartz American
value, and the pathwise early-exercise-premium integral."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import GridCoverageTooSmall, OutOfDomain, TieBreak
from .model import LevyModel, simulate_log_blocks
from .payoffs import Payoff
from .pide import Solution, interp_level

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n_paths: int
    seed: int

    def to_dict(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr,
                "n_paths": self.n_paths, "seed": self.seed}


@dataclass(frozen=True)
class MCConfig:
    n_paths: int = 100_000
    n_steps: int = 50
    seed: int = 20240901
    basis_degree: int = 3
    n_threads: int | None = None

    @classmethod
    def from_dict(cls, spec: dict) -> "MCConfig":
        known = {f: spec[f] for f in cls.__dataclass_fields__ if f in spec}
        return cls(**known)

    def to_dict(self) -> dict:
        return {"n_paths": self.n_paths, "n_steps": self.n_steps,
                "seed": self.seed, "basis_degree": self.basis_degree}


def _estimate(samples: np.ndarray, n_paths: int, seed: int) -> Estimate:
    std = float(samples.std(ddof=1)) if samples.shape[0] > 1 else 0.0
    return Estimate(mean=float(samples.mean()), stderr=std / np.sqrt(samples.shape[0]),
                    n_paths=n_paths, seed=seed)


def price_european_mc(model: LevyModel, payoff: Payoff, s: float, x, T: float,
                      n_paths: int, seed: int, n_threads: int | None = None) -> Estimate:
    """Discounted mean of psi(X_T); one exact step since the payoff is terminal."""
    disc = np.exp(-model.rates.r * (T - s))
    samples = np.empty(n_paths)
    for lo, block in simulate_log_blocks(model, np.asarray(x, dtype=float), s, T,
                                         1, n_paths, seed, n_threads=n_threads):
        samples[lo:lo + block.shape[0]] = disc * payoff.evaluate(np.exp(block[:, -1, :]))
    return _estimate(samples, n_paths, seed)


# --------------------------------------------------------------------------- #
# Longstaff-Schwartz
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class RegressionBasis:
    """Total-degree monomials in centered log prices, plus psi itself."""

    degree: int = 3
    include_payoff: bool = True

    def exponents(self, dim: int) -> list:
        exps = []
        for deg in range(self.degree + 1):
            for combo in combinations_with_replacement(range(dim), deg):
                e = [0] * dim
                for i in combo:
                    e[i] += 1
                exps.append(tuple(e))
        return exps

    def design(self, z: np.ndarray, payoff_vals: np.ndarray, center: np.ndarray,
               max_degree: int | None = None) -> np.ndarray:
        zc = z - center
        cols = []
        for e in self.exponents(z.shape[1]):
            if max_degree is not None and sum(e) > max_degree:
                continue
            col = np.ones(z.shape[0])
            for i, p in enumerate(e):
                if p:
                    col = col * zc[:, i] ** p
            cols.append(col)
        if self.include_payoff:
            cols.append(payoff_vals)
        return np.column_stack(cols)

    def n_columns(self, dim: int, max_degree: int | None = None) -> int:
        n = sum(1 for e in self.exponents(dim)
                if max_degree is None or sum(e) <= max_degree)
        return n + (1 if self.include_payoff else 0)


def _fit_continuation(basis: RegressionBasis, z: np.ndarray, pay: np.ndarray,
                      target: np.ndarray, center: np.ndarray):
    """Minimum-norm least-squares fit, shrinking the degree while the ITM set
    has fewer rows than the basis has columns.

    Collinear columns (psi affine on the ITM set, e.g. a constant payoff) are
    fine: the fitted values are the projection onto the column span whatever
    the rank. Returns None when not even degree 0 fits (a single ITM path).
    """
    for degree in range(basis.degree, -1, -1):
        ncols = basis.n_columns(z.shape[1], degree)
        if z.shape[0] >= ncols:
            design = basis.design(z, pay, center, degree)
            return np.linalg.lstsq(design, target, rcond=None)[0], degree
        log.warning("in-the-money set (%d) smaller than basis (%d); shrinking",
                    z.shape[0], ncols)
    return None


def price_american_ls(model: LevyModel, payoff: Payoff, s: float, x, T: float,
                      n_steps: int, n_paths: int, basis: RegressionBasis | None = None,
                      seed: int = 0, n_threads: int | None = None) -> Estimate:
    """Two-pass least-squares Monte Carlo.

    Continuation values are fitted on one path set and the exercise policy is
    priced on an independent set, so the reported mean is a low-biased
    out-of-sample estimate of the optimal-stopping value.
    """
    if n_steps < 10:
        raise ValueError("need at least 10 exercise dates")
    basis = basis or RegressionBasis()
    x = np.asarray(x, dtype=float)
    center = np.log(np.atleast_1d(x))
    dt = (T - s) / n_steps
    disc = np.exp(-model.rates.r * dt)

    def gather(stream: int) -> np.ndarray:
        logs = np.empty((n_paths, n_steps + 1, model.dim))
        for lo, block in simulate_log_blocks(model, x, s, T, n_steps, n_paths, seed,
                                             stream=stream, n_threads=n_threads):
            logs[lo:lo + block.shape[0]] = block
        return logs

    reg_logs = gather(stream=0)

    # pass 1: fit one continuation function per exercise date on ITM paths
    coefs: dict[int, tuple] = {}
    cash = payoff.evaluate(np.exp(reg_logs[:, -1, :]))
    for k in range(n_steps - 1, 0, -1):
        zk = reg_logs[:, k, :]
        pay = payoff.evaluate(np.exp(zk))
        cash = cash * disc
        itm = pay > 0
        if not np.any(itm):
            continue
        fit = _fit_continuation(basis, zk[itm], pay[itm], cash[itm], center)
        if fit is None:
            continue
        coefs[k] = coef, degree = fit
        cont = basis.design(zk[itm], pay[itm], center, degree) @ coef
        ex = pay[itm] >= cont
        cash[itm] = np.where(ex, pay[itm], cash[itm])
    del reg_logs

    # pass 2: price the fitted policy on independent paths
    price_logs = gather(stream=1)
    cash = payoff.evaluate(np.exp(price_logs[:, -1, :]))
    for k in range(n_steps - 1, 0, -1):
        zk = price_logs[:, k, :]
        pay = payoff.evaluate(np.exp(zk))
        cash = cash * disc
        if k not in coefs:
            continue
        itm = pay > 0
        if not np.any(itm):
            continue
        coef, degree = coefs[k]
        cont = basis.design(zk[itm], pay[itm], center, degree) @ coef
        ex = pay[itm] >= cont
        cash[itm] = np.where(ex, pay[itm], cash[itm])
    samples = cash * disc
    return _estimate(samples, n_paths, seed)


# --------------------------------------------------------------------------- #
# Premium integral
# --------------------------------------------------------------------------- #

def _untie(payoff: Payoff, prices: np.ndarray) -> np.ndarray:
    """Nudge exact tie points off the tie set (they carry zero measure)."""
    ties = payoff.tie_mask(prices)
    if not np.any(ties):
        return prices
    out = prices.copy()
    jitter = 1.0 + 1e-12 * np.arange(1, prices.shape[-1] + 1)
    out[ties] = out[ties] * jitter
    return out


def premium_sweep(model: LevyModel, payoff: Payoff, solution: Solution, s: float, x,
                  T: float, n_paths: int, seed: int, exercise_tols: tuple,
                  n_threads: int | None = None) -> dict:
    """Pathwise premium integral for several exercise-band tolerances at once.

    Time grid matches the PIDE grid; paths exiting the lattice stop
    contributing; sampled integrand uses the solver's exercise indicator,
    closed-form Psi^- and the interpolated jump field.  Paths start at s = 0
    only: step k is read from PIDE level k and discounted by grid.times[k].
    """
    if s != 0.0:
        raise OutOfDomain(f"premium integral starts at s = 0 only (got s = {s:g}); the model "
                          f"is time-homogeneous, so solve with maturity T - s and pass s = 0")
    grid = solution.grid
    if abs(T - grid.T) > 1e-12:
        raise ValueError("premium integral must use the solution's maturity")
    n_steps = grid.n_time
    dt = grid.dt
    r = model.rates.r
    integrals = {tol: np.empty(n_paths) for tol in exercise_tols}
    exited_total = 0
    for lo, block in simulate_log_blocks(model, np.asarray(x, dtype=float), s, T,
                                         n_steps, n_paths, seed, n_threads=n_threads):
        nb = block.shape[0]
        acc = {tol: np.zeros(nb) for tol in exercise_tols}
        inside = np.ones(nb, dtype=bool)
        for k in range(n_steps):
            zk = block[:, k, :]
            inside &= np.all((zk >= grid.z_min) & (zk <= grid.z_max), axis=-1)
            if not inside.any():
                break
            zin = zk[inside]
            prices = _untie(payoff, np.exp(zin))
            psi = payoff.evaluate(prices)
            try:
                psim = payoff.psi_minus(prices, model.rates, model.gaussian)
            except TieBreak:
                prices = prices * (1.0 + 1e-10)
                psim = payoff.psi_minus(prices, model.rates, model.gaussian)
            u = interp_level(solution.values, grid, k, zin)
            jf = interp_level(solution.jump_field, grid, k, zin)
            disc = np.exp(-r * grid.times[k])
            payload = disc * (psim > 0) * (psim - jf) * dt
            for tol in exercise_tols:
                in_band = u - psi <= tol * (1.0 + psi)
                acc[tol][inside] += np.where(in_band, payload, 0.0)
        exited_total += int(nb - inside.sum())
        for tol in exercise_tols:
            integrals[tol][lo:lo + nb] = acc[tol]
    exit_fraction = exited_total / n_paths
    if exit_fraction >= 1e-3:
        raise GridCoverageTooSmall(f"exit fraction {exit_fraction:.2e} >= 1e-3")
    out = {tol: _estimate(vals, n_paths, seed) for tol, vals in integrals.items()}
    out["exit_fraction"] = exit_fraction
    return out


def estimate_premium_mc(model: LevyModel, payoff: Payoff, solution: Solution,
                        s: float, x, T: float, n_paths: int, n_steps: int,
                        seed: int, exercise_tol: float | None = None,
                        n_threads: int | None = None) -> Estimate:
    """Monte Carlo estimate of the early-exercise premium.

    Averages the discounted integral of 1_{exercise band} 1_{Psi^- > 0}
    (Psi^- - L_I u) along simulated paths; the exercise indicator and jump
    field come from the solved American field.
    """
    if n_steps != solution.grid.n_time:
        raise ValueError("premium time grid must match the PIDE time grid")
    tol = solution.exercise_tol if exercise_tol is None else exercise_tol
    sweep = premium_sweep(model, payoff, solution, s, x, T, n_paths, seed,
                          exercise_tols=(tol,), n_threads=n_threads)
    return sweep[tol]

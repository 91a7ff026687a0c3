"""Monte Carlo pricing oracle: European mean, Longstaff-Schwartz American
value, and the pathwise early-exercise-premium integral."""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import GridCoverageTooSmall, OutOfDomain
from .model import LevyModel, check_spot_and_maturity, simulate_log_blocks, spec_keys, whole_number
from .payoffs import Payoff, _across
from .pide import Solution, interp_level, lattice_cells

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n_paths: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MCConfig:
    n_paths: int = 100_000
    n_steps: int = 50
    seed: int = 20240901
    basis_degree: int = 3
    n_threads: int = 1

    def __post_init__(self):
        for key, minimum in (("n_paths", 1), ("n_steps", 1), ("seed", 0), ("basis_degree", 0),
                             ("n_threads", 1)):
            object.__setattr__(self, key, whole_number(getattr(self, key), key, minimum))

    @classmethod
    def from_dict(cls, spec: dict) -> "MCConfig":
        return cls(**spec_keys(spec, cls.__name__, optional=cls.__dataclass_fields__))

    def to_dict(self) -> dict:
        # no n_threads: estimates are bitwise identical across thread counts,
        # so the run record must not depend on how many threads the host used
        return {k: v for k, v in asdict(self).items() if k != "n_threads"}


def _estimate(samples: np.ndarray, n_paths: int, seed: int) -> Estimate:
    std = float(samples.std(ddof=1)) if samples.shape[0] > 1 else 0.0
    return Estimate(mean=float(samples.mean()), stderr=float(std / np.sqrt(samples.shape[0])),
                    n_paths=n_paths, seed=seed)


def price_european_mc(model: LevyModel, payoff: Payoff, s: float, x, T: float,
                      n_paths: int, seed: int, n_threads: int = 1) -> Estimate:
    """Discounted mean of psi(X_T); one exact step since the payoff is terminal."""
    disc = np.exp(-model.rates.r * (T - s))
    blocks = simulate_log_blocks(model, np.asarray(x, dtype=float), s, T, 1, n_paths, seed,
                                 n_threads=n_threads)
    samples = np.empty(n_paths)
    for lo, block in blocks:
        samples[lo:lo + block.shape[0]] = disc * payoff.evaluate(np.exp(block[:, -1, :]))
    return _estimate(samples, n_paths, seed)


# --------------------------------------------------------------------------- #
# Longstaff-Schwartz
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class RegressionBasis:
    """Total-degree monomials in centered log prices, plus psi itself.

    Monomials come in ascending degree and psi is the last column, so the
    design of any lower degree is a leading block of columns plus the last.
    """

    degree: int = 3

    def __post_init__(self):
        object.__setattr__(self, "degree", whole_number(self.degree, "degree", 0))

    def exponents(self, dim: int) -> tuple:
        return _exponents(self.degree, dim)

    def design(self, z: np.ndarray, payoff_vals: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Column-major, so each column is filled, and read by BLAS, in place."""
        exps = self.exponents(z.shape[1])
        zc = (z - center).T
        powers = np.empty((self.degree + 1, *zc.shape))  # powers[p, i] = zc_i^p, by products
        powers[0] = 1.0
        for p in range(1, self.degree + 1):
            np.multiply(powers[p - 1], zc, out=powers[p])
        out = np.empty((z.shape[0], len(exps) + 1), order="F")
        for j, e in enumerate(exps):
            out[:, j] = powers[e[0], 0]
            for i in range(1, len(e)):
                out[:, j] *= powers[e[i], i]
        out[:, -1] = payoff_vals
        return out

    def n_columns(self, dim: int, max_degree: int | None = None) -> int:
        # C(dim + d, d) monomials of total degree <= d, plus psi
        return 1 + comb(dim + (self.degree if max_degree is None else max_degree), dim)


@lru_cache(maxsize=16)
def _exponents(degree: int, dim: int) -> tuple:
    return tuple(tuple(combo.count(i) for i in range(dim)) for deg in range(degree + 1)
                 for combo in combinations_with_replacement(range(dim), deg))


def _columns(design: np.ndarray, cols: list) -> np.ndarray:
    """The design itself at full degree, read in place; else a copy of `cols`."""
    return design if len(cols) == design.shape[1] else design[:, cols]


def _fit_continuation(basis: RegressionBasis, design: np.ndarray, dim: int,
                      target: np.ndarray):
    """Minimum-norm least-squares fit on the columns of the highest degree
    the ITM set can carry: `(cols, coef)`, with the continuation
    `design[:, cols] @ coef`.

    Collinear columns (psi affine on the ITM set, e.g. a constant payoff) are
    fine: the fitted values are the projection onto the column span whatever
    the rank. Returns None when not even degree 0 fits (a single ITM path).
    A shrunk fit logs one warning, naming the degree it fell back to.
    """
    n_itm, full = design.shape
    degree = next((d for d in range(basis.degree, -1, -1)
                   if n_itm >= basis.n_columns(dim, d)), None)
    if degree != basis.degree:
        log.warning("in-the-money set (%d) smaller than basis (%d); shrinking %s", n_itm,
                    full, "leaves no fit" if degree is None else f"to degree {degree}")
    if degree is None:
        return None
    cols = [*range(basis.n_columns(dim, degree) - 1), -1]
    return cols, np.linalg.lstsq(_columns(design, cols), target, rcond=None)[0]


def price_american_ls(model: LevyModel, payoff: Payoff, s: float, x, T: float,
                      n_steps: int, n_paths: int, basis: RegressionBasis | None = None,
                      seed: int = 0, n_threads: int = 1) -> Estimate:
    """Two-pass least-squares Monte Carlo.

    Continuation values are fitted on one path set and the exercise policy is
    priced on an independent set, so the reported mean is a low-biased
    out-of-sample estimate of the optimal-stopping value.
    """
    if n_steps < 10:
        raise ValueError("need at least 10 exercise dates")
    basis = basis or RegressionBasis()
    x = check_spot_and_maturity(model, x, T - s)
    center = np.log(x)
    dt = (T - s) / n_steps
    disc = np.exp(-model.rates.r * dt)
    coefs: dict[int, tuple] = {}

    def backward(stream: int, fit: bool) -> np.ndarray:
        """Discounted cash flows of one path set under the policy in `coefs`,
        fitting it date by date first when `fit` is set."""
        # the simulated blocks are the only path store; block[:, k] is contiguous
        blocks = [block for _, block in simulate_log_blocks(
            model, x, s, T, n_steps, n_paths, seed, stream=stream, n_threads=n_threads)]
        cash = payoff.evaluate(np.exp(np.concatenate([b[:, -1] for b in blocks])))
        for k in range(n_steps - 1, 0, -1):
            zk = np.concatenate([b[:, k] for b in blocks])
            pay = payoff.evaluate(np.exp(zk))
            cash *= disc
            itm = np.flatnonzero(pay > 0)
            if not itm.size or not (fit or k in coefs):
                continue
            pay_itm = pay[itm]
            design = basis.design(zk[itm], pay_itm, center)
            if fit:
                found = _fit_continuation(basis, design, model.dim, cash[itm])
                if found is None:
                    continue
                coefs[k] = found
            cols, coef = coefs[k]
            ex = pay_itm >= _columns(design, cols) @ coef
            cash[itm[ex]] = pay_itm[ex]
        return cash * disc

    backward(stream=0, fit=True)    # its paths are freed before pass 2 simulates
    return _estimate(backward(stream=1, fit=False), n_paths, seed)


# --------------------------------------------------------------------------- #
# Premium integral
# --------------------------------------------------------------------------- #

def premium_sweep(solution: Solution, x, n_paths: int, seed: int, exercise_tols: tuple,
                  n_threads: int = 1) -> tuple[dict, float]:
    """Pathwise premium integral of the American `solution` for several
    exercise-band tolerances at once: ({tol: Estimate}, exit fraction).

    Paths follow the solution's model from t = 0 at `x` and step on its time
    grid: step k is read from PIDE level k and discounted by grid.times[k];
    paths exiting the lattice stop contributing.  The sampled integrand is the
    indicator of the u - psi band below (not the solver's stored exercise
    set), closed-form Psi^- of the solution's payoff and the interpolated jump
    field.  A path point is in the band of `tol` when
    min(interp(u) - psi(x), interp(u - psi)) <= tol (1 + psi(x)): inside a
    cell whose nodes are exercised the second term is 0, where the first is
    the chord of psi less psi, far above tol for psi convex in log price
    (calls); for concave psi (puts) the first term is the smaller.  The bands
    nest in the tolerance, so the gaps are interpolated only where psi > 0 and
    Psi^-, the jump field and the payload only inside the widest band.  Each
    step finds the lattice cells of its psi > 0 points once: u and u - psi
    are read from them, and the jump field from the widest band's rows.
    """
    if solution.kind != "american":
        raise ValueError(f"the premium integrates an american solution, not a {solution.kind} one")
    model, grid, payoff = solution.model, solution.grid, solution.payoff
    dt, times, r = grid.dt, grid.times, model.rates.r
    blocks = simulate_log_blocks(model, np.asarray(x, dtype=float), 0.0, grid.T, grid.n_time,
                                 n_paths, seed, n_threads=n_threads)
    tols = sorted(set(exercise_tols), reverse=True)  # bands nest: the first is the widest
    integrals = {tol: np.zeros(n_paths) for tol in exercise_tols}
    gap_field = solution.values - solution.obstacle
    exited_total = 0
    for lo, block in blocks:
        nb = block.shape[0]
        inside = np.ones(nb, dtype=bool)
        for k in range(grid.n_time):
            zk = block[:, k, :]
            inside &= _across(np.logical_and, (zk >= grid.z_min) & (zk <= grid.z_max))
            rows = np.flatnonzero(inside)  # block rows; paths lo + rows
            if not rows.size:
                break
            zin = zk if rows.size == nb else zk[rows]
            prices = np.exp(zin)
            psi = payoff.evaluate(prices)
            # only rows with psi > 0 inside the widest band carry a nonzero
            # payload; every other row would add +0.0
            pos = np.flatnonzero(psi > 0)
            cells = lattice_cells(grid, zin[pos])
            gap = np.minimum(interp_level(solution.values, grid, k, cells) - psi[pos],
                             interp_level(gap_field, grid, k, cells))
            scale = 1.0 + psi[pos]
            band = gap <= tols[0] * scale
            sel, gap, scale = pos[band], gap[band], scale[band]
            psim = payoff.psi_minus(prices[sel], model.rates, model.gaussian)
            jf = interp_level(solution.jump_field, grid, k, cells.rows(band))
            payload = np.exp(-r * times[k]) * (psim > 0) * (psim - jf) * dt
            for tol in tols:
                in_band = gap <= tol * scale
                integrals[tol][lo + rows[sel[in_band]]] += payload[in_band]
        exited_total += int(nb - inside.sum())
    exit_fraction = exited_total / n_paths
    if exit_fraction >= 1e-3:
        raise GridCoverageTooSmall(f"exit fraction {exit_fraction:.2e} >= 1e-3")
    return {tol: _estimate(vals, n_paths, seed) for tol, vals in integrals.items()}, exit_fraction


def estimate_premium_mc(model: LevyModel, payoff: Payoff, solution: Solution,
                        s: float, x, T: float, n_paths: int, n_steps: int,
                        seed: int, n_threads: int = 1) -> Estimate:
    """Monte Carlo estimate of the early-exercise premium.

    Averages the discounted integral of 1_{exercise band} 1_{Psi^- > 0}
    (Psi^- - L_I u) along simulated paths; the band, its tolerance and the
    jump field come from the solved American field, which must have been
    solved for `model`, `payoff` and `T`, on `n_steps` time steps.
    """
    if s != 0.0:
        raise OutOfDomain(f"premium integral starts at s = 0 only (got s = {s:g}); the model "
                          f"is time-homogeneous, so solve with maturity T - s and pass s = 0")
    solution.check_solved_for(model, payoff, T)
    if n_steps != solution.grid.n_time:
        raise ValueError("premium time grid must match the PIDE time grid")
    tol = solution.exercise_tol
    estimates, _ = premium_sweep(solution, x, n_paths, seed, exercise_tols=(tol,),
                                 n_threads=n_threads)
    return estimates[tol]

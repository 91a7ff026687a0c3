"""Risk-neutral exponential Levy market model.

Prices follow x_i * exp((r - delta_i) t + xi_t^i) with xi a d-dimensional
Levy process made of a nondegenerate Gaussian part and finite-activity
compound-Poisson jumps.  The module owns drift calibration (so discounted
dividend-adjusted prices are martingales), integrability validation for the
moment conditions the pricing theory needs, the spot-and-maturity rule both
engines share, and exact-in-law path simulation.
"""

from __future__ import annotations

import json
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import cached_property, reduce

import numpy as np

from .errors import InvalidDomain, NonIntegrableJump

# Paths are simulated in fixed-size blocks, each with its own counter-based
# substream, so results are bitwise identical for any thread count.
_PATH_BLOCK = 8192

HOLDS_ANALYTIC = "holds analytically"
FAILS = "fails"


def corners(dim: int) -> list:
    """The 2^dim corners of a lattice cell as 0/1 offsets, first axis fastest."""
    return [tuple((c >> i) & 1 for i in range(dim)) for c in range(2 ** dim)]


def whole_number(value, name: str, minimum: int) -> int:
    """`value` as an int: an integer (a bool is not one) of at least `minimum`,
    else a ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be a whole number of at least {minimum}, got {value!r}")
    return int(value)


def real_number(value, name: str, lower: float = -np.inf, upper: float = np.inf) -> float:
    """`value` as a float: an int or float, numpy's included (a bool or a
    string is not one), strictly between `lower` and `upper`, so finite,
    else a ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not lower < value < upper:  # NaN fails every comparison
        raise ValueError(f"{name} must be finite and in ({lower:g}, {upper:g}), got {value!r}")
    return float(value)


def spec_keys(spec, name: str, required=(), optional=()) -> dict:
    """`spec` if a JSON object with every `required` key and no key but the `optional`
    ones, else a ValueError naming `name` and the key: no misspelled key runs silently."""
    if not isinstance(spec, dict):
        raise ValueError(f"{name} spec must be a JSON object, got {spec!r}")
    missing = [key for key in required if key not in spec]
    if missing:
        raise ValueError(f"{name} spec needs key(s): {', '.join(missing)}")
    unknown = sorted(set(spec) - {*required, *optional})
    if unknown:
        raise ValueError(f"unknown {name} key(s): {', '.join(unknown)}; "
                         f"known fields: {', '.join((*required, *optional))}")
    return spec


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def real_numbers(values, name: str) -> np.ndarray:
    """`values`, a number or a (nested) list or array of them, as a float
    array of its shape whose every entry is a finite `real_number`."""
    entries = np.asarray(values, dtype=object)
    return np.array([real_number(v, name) for v in entries.ravel().tolist()],
                    dtype=float).reshape(entries.shape)


def _as_matrix(a, name: str) -> np.ndarray:
    m = real_numbers(a, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    return m


# --------------------------------------------------------------------------- #
# Jump laws
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class MertonNormal:
    """Multivariate normal jump sizes: J ~ N(mean, cov)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(real_numbers(self.mean, "mean")))
        object.__setattr__(self, "cov", _as_matrix(self.cov, "cov"))
        if self.cov.shape[0] != self.mean.shape[0]:
            raise ValueError("mean/cov dimension mismatch")
        eig = np.linalg.eigvalsh(0.5 * (self.cov + self.cov.T))
        if eig.min() < -1e-12:
            raise ValueError("jump covariance must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def exp_moment(self, q: float, i: int) -> float:
        # Gaussian mgf, finite for every exponent.
        return float(np.exp(q * self.mean[i] + 0.5 * q * q * self.cov[i, i]))

    def component_radius(self, i: int, tail: float) -> float:
        from statistics import NormalDist
        z = -NormalDist().inv_cdf(tail / 2.0)  # standard normal upper quantile
        return abs(self.mean[i]) + z * np.sqrt(max(self.cov[i, i], 0.0))

    def component_cdf(self, y: np.ndarray, i: int) -> np.ndarray:
        # element by element: the stencil axes hold a few hundred points
        sd = np.sqrt(max(self.cov[i, i], 1e-300))
        x = (y - self.mean[i]) / sd
        return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.ravel().tolist()]
                        ).reshape(x.shape)

    def cell_masses(self, axes, dz) -> np.ndarray:
        """Probability of each stencil cell centred on the `axes` nodes: the CDF
        product for a diagonal covariance, density times cell area otherwise."""
        if not np.any(self.cov - np.diag(np.diag(self.cov))):
            return _cdf_cell_masses(self, axes, dz)
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return self.density(pts.reshape(-1, self.dim)).reshape(pts.shape[:-1]) * float(np.prod(dz))

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of cov + 1e-300 I, computed once per law."""
        return np.linalg.cholesky(self.cov + 1e-300 * np.eye(self.dim))

    def density(self, pts: np.ndarray) -> np.ndarray:
        d = self.dim
        pts = pts.reshape(-1, d)
        sol = np.linalg.solve(self.chol, (pts - self.mean).T)
        quad = np.sum(sol * sol, axis=0)
        det = np.prod(np.diag(self.chol)) ** 2
        return np.exp(-0.5 * quad) / np.sqrt((2.0 * np.pi) ** d * det)

    def sample_sums(self, rng: np.random.Generator, counts: np.ndarray) -> tuple:
        # Sum of N iid normals is N(N*mean, N*cov); exact without drawing
        # individual jumps.  Every row draws and is multiplied, so the BLAS
        # product never depends on how many rows jump.
        g = rng.standard_normal((counts.shape[0], self.dim)) @ self.chol.T
        rows = np.flatnonzero(counts)
        n = counts[rows, None]
        return rows, n * self.mean + np.sqrt(n) * g[rows]


@dataclass(frozen=True)
class KouDoubleExponential:
    """Independent double-exponential components.

    Component i jumps up with probability p_up[i] (Exp(eta_plus[i]) magnitude)
    and down otherwise (Exp(eta_minus[i]) magnitude).  eta_plus > 1 is required
    so that E[e^{J_i}] is finite.
    """

    p_up: np.ndarray
    eta_plus: np.ndarray
    eta_minus: np.ndarray

    def __post_init__(self):
        for name in ("p_up", "eta_plus", "eta_minus"):
            object.__setattr__(self, name, np.atleast_1d(real_numbers(getattr(self, name), name)))
        if not (self.p_up.shape == self.eta_plus.shape == self.eta_minus.shape):
            raise ValueError("Kou parameter shapes disagree")
        if np.any((self.p_up < 0) | (self.p_up > 1)):
            raise ValueError("p_up must lie in [0, 1]")
        if np.any(self.eta_minus <= 0):
            raise ValueError("eta_minus must be positive")
        if np.any(self.eta_plus <= 1):
            raise ValueError("eta_plus must exceed 1 (first exponential moment)")

    @property
    def dim(self) -> int:
        return self.p_up.shape[0]

    def exp_moment(self, q: float, i: int) -> float:
        ep, em, p = self.eta_plus[i], self.eta_minus[i], self.p_up[i]
        if q >= ep or q <= -em:
            raise NonIntegrableJump(
                f"Kou component {i}: exponent {q} outside (-eta_minus, eta_plus) = ({-em}, {ep})"
            )
        return float(p * ep / (ep - q) + (1.0 - p) * em / (em + q))

    def component_radius(self, i: int, tail: float) -> float:
        up = np.log(max(self.p_up[i], 1e-300) / tail) / self.eta_plus[i]
        dn = np.log(max(1.0 - self.p_up[i], 1e-300) / tail) / self.eta_minus[i]
        return max(up, dn, 0.0)

    def component_cdf(self, y: np.ndarray, i: int) -> np.ndarray:
        ep, em, p = self.eta_plus[i], self.eta_minus[i], self.p_up[i]
        neg = (1.0 - p) * np.exp(em * np.clip(y, None, 0.0))
        pos = (1.0 - p) + p * (1.0 - np.exp(-ep * np.clip(y, 0.0, None)))
        return np.where(y < 0, neg, pos)

    def cell_masses(self, axes, dz) -> np.ndarray:
        return _cdf_cell_masses(self, axes, dz)

    def sample_sums(self, rng: np.random.Generator, counts: np.ndarray) -> tuple:
        rows, owner, total, out = _jump_owners(counts, self.dim)
        for i in range(self.dim):
            sign_up = rng.random(total) < self.p_up[i]
            mag_up = rng.exponential(1.0 / self.eta_plus[i], size=total)
            mag_dn = rng.exponential(1.0 / self.eta_minus[i], size=total)
            vals = np.where(sign_up, mag_up, -mag_dn)
            np.add.at(out[:, i], owner, vals)
        return rows, out


@dataclass(frozen=True)
class Empirical:
    """Finite list of (jump vector, probability) atoms."""

    jumps: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "jumps", np.atleast_2d(real_numbers(self.jumps, "jumps")))
        object.__setattr__(self, "probs", np.atleast_1d(real_numbers(self.probs, "probs")))
        if self.jumps.shape[0] != self.probs.shape[0]:
            raise ValueError("atoms/probabilities length mismatch")
        if np.any(self.probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")

    @property
    def dim(self) -> int:
        return self.jumps.shape[1]

    def exp_moment(self, q: float, i: int) -> float:
        return float(np.sum(self.probs * np.exp(q * self.jumps[:, i])))

    def component_radius(self, i: int, tail: float) -> float:
        return float(np.abs(self.jumps[:, i]).max(initial=0.0))

    def cell_masses(self, axes, dz) -> np.ndarray:
        # each atom split linearly over its neighbouring nodes: exact mass,
        # first moment preserved
        shape = tuple(len(ax) for ax in axes)
        out = np.zeros(shape)
        for atom, prob in zip(self.jumps, self.probs):
            idx_lo, frac = [], []
            for i, ax in enumerate(axes):
                pos = (atom[i] - ax[0]) / dz[i]
                lo = int(np.clip(np.floor(pos), 0, shape[i] - 2))
                idx_lo.append(lo)
                frac.append(np.clip(pos - lo, 0.0, 1.0))
            for corner in corners(len(axes)):
                w = math.prod(f if c else 1 - f for f, c in zip(frac, corner))
                out[tuple(lo + c for lo, c in zip(idx_lo, corner))] += prob * w
        return out

    def sample_sums(self, rng: np.random.Generator, counts: np.ndarray) -> tuple:
        rows, owner, total, out = _jump_owners(counts, self.dim)
        idx = rng.choice(self.jumps.shape[0], size=total, p=self.probs)
        np.add.at(out, owner, self.jumps[idx])
        return rows, out


def _jump_owners(counts: np.ndarray, dim: int) -> tuple:
    """The rows with `counts > 0`, the position in them of each jump, the
    number of jumps (0 draws nothing) and a zero `(rows.size, dim)` sum."""
    rows = np.flatnonzero(counts)
    owner = np.repeat(np.arange(rows.size), counts[rows])
    return rows, owner, owner.size, np.zeros((rows.size, dim))


def _cdf_cell_masses(law, axes, dz) -> np.ndarray:
    """Exact cell masses of independent components from their CDFs: immune to
    the density discontinuity of double-exponential laws at zero."""
    per_axis = [law.component_cdf(ax + dz[i] / 2.0, i) - law.component_cdf(ax - dz[i] / 2.0, i)
                for i, ax in enumerate(axes)]
    return reduce(np.multiply.outer, per_axis)


JumpLaw = MertonNormal | KouDoubleExponential | Empirical
# JSON "kind" of each law; a law's JSON fields are its dataclass fields
JUMP_KINDS = {"merton": MertonNormal, "kou": KouDoubleExponential, "empirical": Empirical}


@dataclass(frozen=True)
class JumpSpec:
    """Finite-activity jump component: intensity (jumps/year) times a law."""

    intensity: float
    law: JumpLaw | None = None

    def __post_init__(self):
        object.__setattr__(self, "intensity", real_number(self.intensity, "jump intensity lambda"))
        if self.intensity < 0:
            raise ValueError("jump intensity must be nonnegative")
        if self.intensity > 0 and self.law is None:
            raise ValueError("positive intensity requires a jump law")

    @property
    def active(self) -> bool:
        return self.intensity > 0 and self.law is not None

    def exp_moment(self, q: float, i: int) -> float:
        """E[e^{q J_i}] for a single jump; 1 when there are no jumps."""
        if not self.active:
            return 1.0
        return self.law.exp_moment(q, i)

    def mean_exp_minus_one(self, dim: int) -> np.ndarray:
        """kappa_i = E[e^{J_i}] - 1, the martingale compensation vector."""
        if not self.active:
            return np.zeros(dim)
        return np.array([self.law.exp_moment(1.0, i) - 1.0 for i in range(dim)])

    def radius(self, tail: float, dim: int) -> float:
        """Smallest box half-width holding all but `tail` of the jump mass."""
        if not self.active:
            return 0.0
        per_comp = tail / max(dim, 1)
        return max(self.law.component_radius(i, per_comp / 2.0) for i in range(dim))


@dataclass(frozen=True)
class GaussianPart:
    """Annualized covariance of the continuous log-return part."""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _as_matrix(self.a, "a"))
        if not np.array_equal(self.a, self.a.T):
            raise ValueError("covariance must be stored symmetric")
        if np.linalg.eigvalsh(self.a).min() <= 0:
            raise ValueError("covariance must be strictly positive definite")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def factor(self) -> np.ndarray:
        """Lower-triangular sigma with sigma sigma^T = a."""
        return np.linalg.cholesky(self.a)


@dataclass(frozen=True)
class Rates:
    r: float
    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", real_number(self.r, "r"))
        object.__setattr__(self, "delta", np.atleast_1d(real_numbers(self.delta, "delta")))
        if self.r < 0:
            raise ValueError("interest rate must be nonnegative")
        if np.any(self.delta < 0):
            raise ValueError("dividend yields must be nonnegative")


@dataclass(frozen=True)
class LevyModel:
    gaussian: GaussianPart
    jumps: JumpSpec
    rates: Rates

    def __post_init__(self):
        if self.rates.delta.shape[0] != self.dim:
            raise ValueError("component dimensions disagree")
        if self.jumps.active and self.jumps.law.dim != self.dim:
            raise ValueError("jump law dimension disagrees")

    @property
    def dim(self) -> int:
        return self.gaussian.dim

    @cached_property
    def log_drift(self) -> np.ndarray:
        """Log-price drift making discounted dividend-adjusted prices
        martingales, computed once per model.

        b_i = r - delta_i - a_ii/2 - lambda * (E[e^{J_i}] - 1).  Raises
        NonIntegrableJump when E[e^{J_i}] diverges (e.g. Kou eta_plus <= 1,
        rejected at construction already).
        """
        kappa = self.jumps.mean_exp_minus_one(self.dim)
        return self.rates.r - self.rates.delta - 0.5 * np.diag(self.gaussian.a) \
            - self.jumps.intensity * kappa


def check_spot_and_maturity(model: LevyModel, spot, maturity: float) -> np.ndarray:
    """The spot as a `(dim,)` array, checked with the time to maturity: one
    finite, positive price per asset (a ValueError for the count, else
    InvalidDomain) and a finite, positive `maturity` (a ValueError).  Both
    engines call it: the PIDE grid with T, every path simulation with T - s."""
    spot = np.atleast_1d(np.asarray(spot, dtype=float))
    if spot.shape != (model.dim,):
        raise ValueError(f"spot has {spot.size} coordinate(s) but the model has {model.dim} asset(s)")
    if not np.all(np.isfinite(spot) & (spot > 0)):
        raise InvalidDomain(f"spot prices must be finite and strictly positive, got {spot.tolist()}")
    if not (np.isfinite(maturity) and maturity > 0):
        raise ValueError(f"time to maturity must be finite and positive, got {maturity!r}")
    return spot


# --------------------------------------------------------------------------- #
# Integrability report
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    exponent: float
    status: str
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.status != FAILS


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checks": [asdict(c) for c in self.checks]}


def _exp_condition(jumps: JumpSpec, exponents: tuple) -> tuple[str, str]:
    """Finiteness of E[e^{q J_i}] for every q in `exponents` and component i."""
    dim = jumps.law.dim if jumps.active else 0
    failures = []
    for q in exponents:
        for i in range(dim):
            try:
                jumps.exp_moment(q, i)
            except NonIntegrableJump as exc:
                failures.append(str(exc))
    if failures:
        return FAILS, "; ".join(failures)
    return HOLDS_ANALYTIC, f"E[e^{{q J_i}}] finite for q = {', '.join(f'{q:g}' for q in exponents)}"


def validate_integrability(jumps: JumpSpec, p: float, beta: float, epsilon: float) -> ValidationReport:
    """Check the four jump-moment conditions the pricing theory relies on.

    Conditions, in terms of a single jump J (the measure is intensity * law):
      martingale:       E[e^{J_i}] < inf
      payoff-moment:    E[e^{((1 v p)+eps) J_i}] < inf
      weighted-first:   E[|J| e^{beta |J|}] < inf
      weighted-second:  E[|J|^2 e^{2 beta |J|}] < inf

    Failures are reported, never raised; downstream pricing refuses models
    whose report contains a failure.
    """
    p, beta, epsilon = real_number(p, "p"), real_number(beta, "beta"), real_number(epsilon, "epsilon")
    if p < 0 or epsilon <= 0 or beta <= p:
        raise ValueError("need p >= 0, epsilon > 0 and beta > p")
    q_payoff = max(1.0, p) + epsilon
    rows = []
    for name, q, exponents in (
        ("martingale moment E[e^{J_i}]", 1.0, (1.0,)),
        (f"payoff moment E[e^{{{q_payoff:g} J_i}}]", q_payoff, (q_payoff,)),
        (f"weighted first moment E[|J| e^{{{beta:g}|J|}}]", beta, (beta, -beta)),
        (f"weighted second moment E[|J|^2 e^{{{2 * beta:g}|J|}}]", 2.0 * beta, (2.0 * beta, -2.0 * beta)),
    ):
        status, detail = _exp_condition(jumps, exponents)
        rows.append(ConditionCheck(name=name, exponent=q, status=status, detail=detail))
    return ValidationReport(checks=tuple(rows))


def exp_moment(model: LevyModel, q: float, i: int, t: float) -> float:
    """q-th moment of the price return: E[(X_t^i / x_i)^q].

    Equals exp(t (q b_i + q^2 a_ii / 2 + lambda (E[e^{q J_i}] - 1))) with b the
    full log-price drift, so q = 1 returns e^{(r - delta_i) t} for every
    calibrated model.
    """
    lam = model.jumps.intensity
    jump_term = lam * (model.jumps.exp_moment(q, i) - 1.0) if lam > 0 else 0.0
    a_ii = model.gaussian.a[i, i]
    return float(np.exp(t * (q * model.log_drift[i] + 0.5 * q * q * a_ii + jump_term)))


# --------------------------------------------------------------------------- #
# Path simulation
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PathSet:
    times: np.ndarray
    paths: np.ndarray  # (n_paths, n_steps + 1, d), strictly positive
    seed: int


def _block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, block))
    return np.random.Generator(np.random.Philox(ss))


def _simulate_block(model: LevyModel, log_x: np.ndarray, dt: float, n_steps: int,
                    rng: np.random.Generator, n_block: int) -> np.ndarray:
    """Exact-in-law log paths of one block, `(n_block, n_steps + 1, d)`: the
    transposed view of a time-major store, so `block[:, k]` is contiguous."""
    d = model.dim
    sigma = model.gaussian.factor()
    drift = model.log_drift * dt
    lam = model.jumps.intensity
    sq = np.sqrt(dt)
    logs = np.empty((n_steps + 1, n_block, d))
    logs[0] = log_x
    for k in range(n_steps):
        incr = rng.standard_normal((n_block, d)) @ sigma.T
        incr *= sq
        incr += drift
        if lam > 0:
            rows, sums = model.jumps.law.sample_sums(rng, rng.poisson(lam * dt, size=n_block))
            incr[rows] += sums
        np.add(logs[k], incr, out=logs[k + 1])
    return logs.transpose(1, 0, 2)


def simulate_log_blocks(model: LevyModel, x: np.ndarray, s: float, T: float,
                        n_steps: int, n_paths: int, seed: int,
                        stream: int = 0, n_threads: int = 1):
    """An iterator of (start_index, log-path block) pairs in deterministic order.

    Block boundaries and substreams are fixed by the block size alone, so the
    output never depends on the thread count.  Every Monte Carlo estimator
    simulates here, so here the spot and the horizon T - s
    (`check_spot_and_maturity`), the step, path and thread counts and the
    seed are checked: at the call, before any block is simulated, so a caller
    may size its arrays by them once this returns.
    """
    x = check_spot_and_maturity(model, x, T - s)
    n_steps, n_paths = whole_number(n_steps, "n_steps", 1), whole_number(n_paths, "n_paths", 1)
    n_threads = whole_number(n_threads, "n_threads", 1)
    seed = whole_number(seed, "seed", 0)
    dt = (T - s) / n_steps
    log_x = np.log(x)
    starts = list(range(0, n_paths, _PATH_BLOCK))

    def run(block_idx: int):
        lo = starts[block_idx]
        n_block = min(_PATH_BLOCK, n_paths - lo)
        rng = _block_rng(seed, stream, block_idx)
        return lo, _simulate_block(model, log_x, dt, n_steps, rng, n_block)

    def pooled():
        # at most n_threads blocks are simulated ahead of the consumer
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            ahead = deque(pool.submit(run, idx) for idx in range(min(n_threads, len(starts))))
            for idx in range(n_threads, len(starts) + n_threads):
                yield ahead.popleft().result()
                if idx < len(starts):
                    ahead.append(pool.submit(run, idx))

    return map(run, range(len(starts))) if n_threads == 1 or len(starts) == 1 else pooled()


def simulate_paths(model: LevyModel, s: float, x, T: float, n_steps: int,
                   n_paths: int, seed: int, n_threads: int = 1) -> PathSet:
    """Simulate price paths on a uniform grid over [s, T].

    Each step is exact in law: Gaussian increment plus a Poisson number of
    jumps drawn from the jump law.  Fixed seed gives a bitwise-identical
    PathSet regardless of thread count.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    blocks = simulate_log_blocks(model, x, s, T, n_steps, n_paths, seed, n_threads=n_threads)
    paths = np.empty((n_paths, n_steps + 1, model.dim))
    for lo, block in blocks:
        paths[lo:lo + block.shape[0]] = np.exp(block)
    paths[:, 0, :] = x  # exact initial condition, no exp/log roundtrip
    times = s + (T - s) * np.arange(n_steps + 1) / n_steps
    return PathSet(times=times, paths=paths, seed=seed)


# --------------------------------------------------------------------------- #
# JSON interface
# --------------------------------------------------------------------------- #

def jumps_from_dict(spec: dict) -> JumpSpec:
    """The jumps of a JSON spec: at most "kind" for none, else "kind", "lambda" and the law's fields."""
    kind = spec.get("kind", "none") if isinstance(spec, dict) else "none"
    if not isinstance(kind, str):
        raise ValueError(f"jump kind must be a string, got {kind!r}")
    kind = kind.lower()
    if kind == "none":
        spec_keys(spec, "jumps", optional=("kind",))
        return JumpSpec(intensity=0.0)
    if kind not in JUMP_KINDS:
        raise ValueError(f"unknown jump kind {kind!r}; known kinds: none, {', '.join(JUMP_KINDS)}")
    names = [f.name for f in fields(JUMP_KINDS[kind])]
    spec_keys(spec, "jumps", required=("kind", "lambda", *names))
    return JumpSpec(intensity=spec["lambda"], law=JUMP_KINDS[kind](**{n: spec[n] for n in names}))


def jumps_to_dict(jumps: JumpSpec) -> dict:
    if not jumps.active:
        return {"kind": "none"}
    kind = next(k for k, law_type in JUMP_KINDS.items() if type(jumps.law) is law_type)
    return {"kind": kind, "lambda": jumps.intensity,
            **{f.name: getattr(jumps.law, f.name).tolist() for f in fields(jumps.law)}}


def model_from_dict(spec: dict) -> LevyModel:
    """The model of a JSON spec; a `log_drift` (`model_to_dict` writes one) is recalibrated."""
    spec_keys(spec, "model", required=("dim", "a", "rates"), optional=("jumps", "log_drift"))
    gaussian = GaussianPart(a=spec["a"])
    rates = Rates(**spec_keys(spec["rates"], "rates", required=("r", "delta")))
    jumps = jumps_from_dict(spec.get("jumps", {"kind": "none"}))
    model = LevyModel(gaussian, jumps, rates)
    if model.dim != whole_number(spec["dim"], "dim", 1):
        raise ValueError("declared dim disagrees with matrix shapes")
    return model


def model_to_dict(model: LevyModel) -> dict:
    return {
        "dim": model.dim,
        "a": model.gaussian.a.tolist(),
        "rates": {"r": model.rates.r, "delta": model.rates.delta.tolist()},
        "jumps": jumps_to_dict(model.jumps),
        "log_drift": model.log_drift.tolist(),
    }


def load_model(path) -> LevyModel:
    return model_from_dict(read_json(path))

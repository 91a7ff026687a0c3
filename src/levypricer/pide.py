"""Log-space IMEX finite-difference solver for the pricing PIDE.

The obstacle problem min{-d_t u - Lu + ru, u - psi} = 0 is solved on a
truncated tensor grid in log prices.  The diffusion/drift/rate part is
implicit (one linear solve per step), the jump integral is an explicit
convolution against a stencil of jump-law cell masses, and the obstacle is
enforced through a penalty source n (u - psi)^- driven up a ladder of n
values, with semismooth-Newton inner iterations.  European and American
sweeps share one right-hand-side step and keep its jump convolutions for the
stored jump field; the European sweep then solves once with the step
factor, and only the American one runs the penalty Newton loop.  The step
matrix is factored once per operator; each Newton level starts from the
previous level's active set.  A moved set is solved by refactorizing (1D)
or by a low-rank update of the last penalized factor (2D).
`solve_pair` is the pipeline: grid, operator, American and European solves.

The implicit matrices are `Banded`, numpy diagonals keyed by flat offset, in
every dimension, so numpy assembles and applies them.  `splu` factors a 1D
one in numpy and hands a 2D one to SuperLU, the only code that imports scipy
(`scipy.sparse` and `scipy.sparse.linalg`, at the first 2D factorization):
scipy costs more import time than numpy, and the package, `validate`, Monte
Carlo, 1D solves and 2D set-up need none of it.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (BetaTooSmall, LinearSolveFailure, NewtonStall, PenaltyNonMonotone,
                     QuadratureTailTooHeavy, SchemeNotMonotone)
from .model import LevyModel, check_spot_and_maturity, corners, model_to_dict, real_number, spec_keys, whole_number
from .payoffs import Payoff

_NEWTON_CAP = 50
_OBSTACLE_SLACK = 1e-8  # ladder monotonicity slack
_MASS_DEFECT_MAX = 1e-4  # share of the jump mass a stencil may miss before it is rescaled
_KINK_LAYERS = 3          # residual mask: cells around kinks and the exercise boundary
_TERMINAL_BUFFER = 0.05   # residual mask: levels with tau below this share of T


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the PIDE solve; serialized with the run artifacts."""

    n_space: int = 201
    n_time: int = 100
    beta: float = 2.0
    penalty_ladder: tuple = (1e2, 1e3, 1e4)
    trunc_tol: float = 1e-8
    y_max_tail: float = 1e-10
    exercise_tol: float = 1e-6

    def __post_init__(self):
        ladder = self.penalty_ladder
        if not isinstance(ladder, (list, tuple)):
            raise ValueError(f"penalty_ladder must be a list of penalties, got {ladder!r}")
        ladder = tuple(real_number(v, "penalty_ladder entry", 0.0) for v in ladder)
        if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError(f"penalty_ladder must be nonempty and strictly increasing, got {list(ladder)}")
        object.__setattr__(self, "penalty_ladder", ladder)
        for key, lower, upper in (("beta", -np.inf, np.inf), ("trunc_tol", 0.0, 1.0),
                                  ("y_max_tail", 0.0, 1.0), ("exercise_tol", 0.0, np.inf)):
            object.__setattr__(self, key, real_number(getattr(self, key), key, lower, upper))

    @classmethod
    def from_dict(cls, spec: dict) -> "SolverConfig":
        return cls(**spec_keys(spec, cls.__name__, optional=cls.__dataclass_fields__))

    def to_dict(self) -> dict:
        return {**asdict(self), "penalty_ladder": list(self.penalty_ladder)}


@dataclass(frozen=True)
class Grid:
    """Uniform tensor lattice in log prices plus a uniform time axis."""

    dim: int
    T: float
    n_space: int
    n_time: int
    z_min: np.ndarray
    z_max: np.ndarray
    z_center: np.ndarray

    def __post_init__(self):
        for name, z in (("z_min", self.z_min), ("z_max", self.z_max), ("z_center", self.z_center)):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(z, dtype=float)))
        if self.dim not in (1, 2):
            raise ValueError("only d = 1 and d = 2 grids are supported")
        if self.n_space % 2 == 0:
            raise ValueError("n_space must be odd so the spot is a node")
        if np.any(self.z_min >= self.z_center) or np.any(self.z_center >= self.z_max):
            raise ValueError("need z_min < z_center < z_max on every axis")

    def __eq__(self, other) -> bool:
        """Field by field: the generated `==` is ambiguous on 2D ndarray fields."""
        return isinstance(other, Grid) and all(map(np.array_equal, astuple(self), astuple(other)))

    @property
    def axes(self) -> tuple:
        return tuple(np.linspace(self.z_min[i], self.z_max[i], self.n_space)
                     for i in range(self.dim))

    @property
    def dz(self) -> np.ndarray:
        return (self.z_max - self.z_min) / (self.n_space - 1)

    @property
    def dt(self) -> float:
        return self.T / self.n_time

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_time + 1)

    @property
    def shape(self) -> tuple:
        return (self.n_space,) * self.dim

    @property
    def center_index(self) -> tuple:
        return ((self.n_space - 1) // 2,) * self.dim

    @cached_property
    def interior(self) -> np.ndarray:
        """Read-only mask of the nodes off the grid boundary, shape `shape`."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.dim] = True
        mask.setflags(write=False)
        return mask

    def mesh(self) -> np.ndarray:
        """Node coordinates, shape (*shape, dim)."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(grids, axis=-1)


def check_beta(beta: float, payoff: Payoff) -> None:
    """Refuse beta <= p, the payoff's growth exponent: the terminal data is then
    not square-integrable under the e^{-beta |z|} weight, nor the truncation justified."""
    p = payoff.growth_exponent()
    if beta <= p:
        raise BetaTooSmall(f"beta = {beta} must exceed the growth exponent p = {p}")


def build_grid(model: LevyModel, payoff: Payoff, spot, T: float, n_space: int,
               n_time: int, beta: float, trunc_tol: float = SolverConfig.trunc_tol,
               y_max_tail: float = SolverConfig.y_max_tail) -> Grid:
    """Center the lattice at ln(spot) with an exponentially-negligible far field.

    Half-width = ln(1/trunc_tol)/beta plus a drift-and-diffusion allowance
    max(|b| T + 5 sqrt(a_max T), y_max).  The settings are checked by the
    `SolverConfig` they describe, and beta by `check_beta`.
    """
    cfg = SolverConfig(beta=beta, trunc_tol=trunc_tol, y_max_tail=y_max_tail)
    check_beta(cfg.beta, payoff)
    n_space, n_time = whole_number(n_space, "n_space", 51), whole_number(n_time, "n_time", 10)
    spot = check_spot_and_maturity(model, spot, T)
    y_max = model.jumps.radius(cfg.y_max_tail, model.dim)
    a_max = float(np.diag(model.gaussian.a).max())
    b_max = float(np.abs(model.log_drift).max())
    width = np.log(1.0 / cfg.trunc_tol) / cfg.beta + max(b_max * T + 5.0 * np.sqrt(a_max * T), y_max)
    center = np.log(spot)
    return Grid(dim=model.dim, T=T, n_space=n_space, n_time=n_time,
                z_min=center - width, z_max=center + width, z_center=center)


# --------------------------------------------------------------------------- #
# Discrete operator
# --------------------------------------------------------------------------- #

def _axis_bands(dz: float, b: float, a_diag: float) -> tuple:
    """(second, first, central) differences on one axis, each as its
    (sub, main, super) diagonal values; the first difference is upwind when
    the cell Peclet number exceeds 1."""
    inv, inv2 = 1.0 / dz, 1.0 / (dz * dz)
    central = (-0.5 * inv, 0.0, 0.5 * inv)
    first = central
    if abs(b) * dz / max(a_diag, 1e-300) > 1.0:
        first = (0.0, -inv, inv) if b > 0 else (-inv, inv, 0.0)
    return (inv2, -2.0 * inv2, inv2), first, central


@dataclass(frozen=True)
class Banded:
    """A square matrix by diagonals: `bands` maps each flat offset o (0 among
    them) to an (N,) array, and row i holds `bands[o][i]` in column i + o.
    The generator, step and penalized matrices take this form in every dimension."""

    bands: dict

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = self.bands[0] * x
        for o in sorted(self.bands.keys() - {0}):
            lo, hi = max(0, -o), len(x) - max(0, o)  # the rows whose column i + o exists
            out[lo:hi] += self.bands[o][lo:hi] * x[lo + o:hi + o]
        return out

    def plus_diagonal(self, diagonal: np.ndarray) -> "Banded":
        return Banded({**self.bands, 0: self.bands[0] + diagonal})

    def tocsc(self):
        """The matrix in `scipy.sparse` CSC format, zero entries dropped."""
        import scipy.sparse as sp
        return sp.diags([band[max(0, -o):] for o, band in self.bands.items()], list(self.bands),
                        shape=(self.bands[0].size,) * 2, format="csc")


def _doubling(alpha: np.ndarray, x: np.ndarray) -> list:
    """(x[h:], alpha[h:], x[:-h]) per recursive-doubling step, stride h, of
    the recurrence x_i = alpha_i x_{i-1} + beta_i, alpha_0 = 0 (Stone 1973),
    run in place on x = beta by `x[h:] += alpha[h:] * x[:-h]`.

    A step folds in the term h places back: beta_i += alpha_i beta_{i-h},
    alpha_i *= alpha_{i-h}, which zeroes alpha[:2h].  The steps stop once
    every coefficient left is below 2^-53 in modulus, so each term they drop
    is below the round-off of the largest x (an x far below that, deep out of
    the money next to maturity, may come out as 0).
    """
    steps, h = [], 1
    while np.abs(alpha).max() >= 2.0 ** -53:
        steps.append((x[h:], alpha[h:], x[:-h]))
        alpha = np.concatenate((np.zeros(h), alpha[h:] * alpha[:-h]))
        h *= 2
    return steps


class _TridiagonalLU:
    """LU of a three-band `Banded` (offsets -1, 0, 1) without row exchanges.

    The pivots come from the Thomas recurrence, once per factorization.
    Each `solve` runs the two bidiagonal recurrences, forward through the
    unit lower factor and backward through the upper one, by recursive
    doubling in place in one work array, so a factor serves one solve at a
    time; the doubling coefficients depend on the matrix only and are formed
    here.  No pivoting is needed: the interior rows of a step or penalized
    matrix are strictly diagonally dominant by 1/dt + lambda (the penalty
    only adds to the diagonal), and the boundary rows are identity rows.
    """

    def __init__(self, matrix: Banded):
        lower, main, upper = (matrix.bands[o].tolist() for o in (-1, 0, 1))
        pivots = [main[0]]
        for i in range(1, len(main)):
            pivots.append(main[i] - lower[i] / pivots[-1] * upper[i - 1])
        self._pivots = np.array(pivots)
        self._work = np.empty_like(self._pivots)
        multipliers = np.r_[0.0, matrix.bands[-1][1:] / self._pivots[:-1]]
        self._forward = _doubling(-multipliers, self._work)
        self._backward = _doubling((-matrix.bands[1] / self._pivots)[::-1], self._work[::-1])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        np.copyto(self._work, rhs)
        for dst, alpha, src in self._forward:
            dst += alpha * src
        self._work /= self._pivots
        for dst, alpha, src in self._backward:
            dst += alpha * src
        return self._work.copy()


@dataclass
class DiscreteOperator:
    """Local generator plus the explicit jump-convolution stencil.  The
    generator and the step and penalized matrices built from it are `Banded`."""

    grid: Grid
    model: LevyModel
    local: Banded               # (1/2) sum a_ij D2_ij + sum b_i D_i - lambda I, interior rows
    boundary_mask: np.ndarray   # flat boolean, True on grid boundary nodes
    stencil: np.ndarray         # jump cell masses, sums to lambda
    offsets: tuple              # stencil half-width in cells per axis
    kappa: np.ndarray           # E[e^{J_i}] - 1
    raw_mass_defect: float      # |sum(raw stencil) - lambda| before normalization

    @property
    def lam(self) -> float:
        return self.model.jumps.intensity

    def check_assembled_for(self, model: LevyModel, grid: Grid) -> None:
        """Refuse a caller's model or grid this operator was not assembled for."""
        if model_to_dict(model) != model_to_dict(self.model):
            raise ValueError(f"the operator was assembled for the model {model_to_dict(self.model)}")
        if grid != self.grid:
            raise ValueError(f"the operator was assembled for the grid {self.grid}, not {grid}")

    def convolve(self, extended: np.ndarray) -> np.ndarray:
        """sum_c K[c] u(z + y_c) on the core lattice, from an extended array."""
        if self.grid.dim == 1:
            return np.convolve(extended, self.stencil[::-1], "valid")
        fshape, kernel = self._stencil_fft
        out = np.fft.irfftn(np.fft.rfftn(extended, fshape, axes=(0, 1)) * kernel, fshape,
                            axes=(0, 1))
        return out[tuple(slice(sk - 1, sa) for sa, sk in zip(extended.shape, self.stencil.shape))]

    @cached_property
    def _stencil_fft(self) -> tuple:
        """(padded shape, rfftn of the flipped stencil) of the 2D convolution's
        zero-padded real FFTs, each axis padded from the full linear size to
        the next 5-smooth length (`_next_fast_len`)."""
        fshape = [_next_fast_len(self.grid.n_space + 2 * m + sk - 1)
                  for m, sk in zip(self.offsets, self.stencil.shape)]
        return fshape, np.fft.rfftn(self.stencil[::-1, ::-1], fshape, axes=(0, 1))

    def extend(self, core: np.ndarray, ring_values: np.ndarray) -> np.ndarray:
        """The core field inside the far-field values of the ring around it."""
        out = np.empty(self._ring.shape)
        out[self._ring] = ring_values
        out[tuple(slice(m, m + self.grid.n_space) for m in self.offsets)] = core
        return out

    @cached_property
    def _ring(self) -> np.ndarray:
        """Mask of the extended mesh (the core grid plus the stencil reach)
        that lies outside the core grid."""
        ring = np.ones(tuple(self.grid.n_space + 2 * m for m in self.offsets), dtype=bool)
        ring[tuple(slice(m, m + self.grid.n_space) for m in self.offsets)] = False
        return ring

    @cached_property
    def ring_prices(self) -> np.ndarray:
        """Prices at the ring nodes of the extended mesh, shape (n_ring, dim)."""
        axes = [self.grid.z_min[i] + self.grid.dz[i] * np.arange(-self.offsets[i], self.grid.n_space + self.offsets[i])
                for i in range(self.grid.dim)]
        return np.exp(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)[self._ring])

    @cached_property
    def boundary_prices(self) -> np.ndarray:
        """Prices at the grid boundary nodes, shape (n_boundary, dim)."""
        return np.exp(self.grid.mesh().reshape(-1, self.grid.dim)[self.boundary_mask])

    @cached_property
    def step_matrix(self) -> Banded:
        """I/dt - local on interior rows, identity on boundary rows.

        The rate term is not in the matrix: r I commutes with the generator,
        so discounting is applied as an exact e^{-r dt} factor after each step.
        """
        diagonal = np.where(self.grid.interior.ravel(), 1.0 / self.grid.dt, 1.0)
        # 0.0 - x off the diagonal: a zero entry stays +0.0
        return Banded({o: (diagonal if o == 0 else 0.0) - band for o, band in self.local.bands.items()})

    def penalized_matrix(self, n_pen: float, active: np.ndarray) -> Banded:
        """`step_matrix` + n_pen diag(active): the step of a penalized set."""
        return self.step_matrix.plus_diagonal(n_pen * active)

    @property
    def disc(self) -> float:
        """e^{-r dt}, the discount each step applies after its solve (see
        `step_matrix`)."""
        return np.exp(-self.model.rates.r * self.grid.dt)

    @cached_property
    def step_lu(self):
        """LU of `step_matrix`, shared by every solve on this operator."""
        return splu(self.step_matrix)


def _next_fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n (n >= 1): a length numpy's FFT factors
    into its fast radices, the rule of scipy's real-input `next_fast_len`."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def splu(matrix):
    """LU of a step or penalized matrix, the one factorization entry point.

    A three-band (1D) `Banded` gets the numpy `_TridiagonalLU`, without row
    exchanges.  Any other (2D) one gets SuperLU on its `tocsc` (scipy loads at
    the first such call) with a symmetric minimum-degree order (Liu 1985) on
    the pattern of A + A^T and diagonal pivots.

    Every 2D such matrix has a symmetric pattern; on a 2D grid this order fills
    the factor 1.3-1.6x less than SuperLU's default COLAMD.  Diagonal pivots
    assume elimination needs no row exchanges: the diagonal (1/dt plus the
    diffusion, jump and penalty weights) outweighs the off-diagonal entries
    but the cross-derivative corners, which `assemble`'s mixed-derivative
    guard bounds.  At 0.999 of that bound the rows are not diagonally
    dominant, and the solve still matches partial pivoting to 1e-12.
    """
    if matrix.bands.keys() == {-1, 0, 1}:
        return _TridiagonalLU(matrix)
    from scipy.sparse.linalg import splu
    return splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _jump_stencil(model: LevyModel, grid: Grid, y_max_tail: float):
    lam = model.jumps.intensity
    dz = grid.dz
    if lam == 0:
        return np.zeros((1,) * grid.dim), (0,) * grid.dim, 0.0
    if lam < np.finfo(float).tiny:
        # refused on lambda alone: how far a subnormal lambda times the cell
        # masses underflows would depend on the node count
        raise QuadratureTailTooHeavy(
            f"jump intensity {lam!r} is below the smallest normal float; "
            f"use lambda = 0 for a model without jumps")
    radius = model.jumps.radius(y_max_tail, model.dim)
    m = tuple(int(np.ceil(radius / dz[i])) for i in range(grid.dim))
    axes = [dz[i] * np.arange(-m[i], m[i] + 1) for i in range(grid.dim)]
    raw = model.jumps.law.cell_masses(axes, dz) * lam
    total = float(raw.sum())
    defect = abs(total - lam)
    if defect > _MASS_DEFECT_MAX * lam:  # so total > 0 below, else the defect is at least lam
        # the cut tail holds at most y_max_tail of lam: a larger defect is the cells' quadrature
        remedy = "raise n_space" if defect > y_max_tail * lam else "lower y_max_tail"
        raise QuadratureTailTooHeavy(
            f"jump stencil misses {defect / lam:.3g} of the jump mass (at most {_MASS_DEFECT_MAX:g}) "
            f"with y_max_tail {y_max_tail!r}; {remedy}")
    stencil = raw * (lam / total)  # row-sum correction: constants must map to zero
    return stencil, m, defect


def assemble(model: LevyModel, grid: Grid, y_max_tail: float = SolverConfig.y_max_tail) -> DiscreteOperator:
    """Build the local generator as a `Banded` and the jump stencil on the grid.

    Axis i puts its differences at flat offsets -s, 0, s, stride s = n^(d-1-i)
    in C order, each offset summed in the order of the Kronecker sum
    sum_i (a_ii/2) D2_i + a_12 Dc (x) Dc + sum_i b_i D1_i - lambda I; boundary rows are zero.

    Raises when the explicit jump term would break the CFL-like bound
    dt * lambda < 1 or the mixed-derivative stencil breaks monotonicity.
    """
    y_max_tail = SolverConfig(y_max_tail=y_max_tail).y_max_tail
    a = model.gaussian.a
    b = model.log_drift
    lam = model.jumps.intensity
    n = grid.n_space
    dz = grid.dz
    if grid.dt * lam >= 1.0:
        raise SchemeNotMonotone(f"explicit jump term needs dt * lambda < 1 (have {grid.dt * lam:.3g}); "
                                f"use n_time >= {int(np.floor(grid.T * lam)) + 1}")
    if grid.dim == 2:
        lim = min(a[0, 0] * dz[1] / dz[0], a[1, 1] * dz[0] / dz[1])
        if abs(a[0, 1]) > lim + 1e-15:
            raise SchemeNotMonotone(
                f"mixed derivative |a12| = {abs(a[0, 1]):.3g} exceeds the monotone cross-stencil "
                f"bound min(a11 dz2/dz1, a22 dz1/dz2) = {lim:.3g}; lower the correlation below it")

    d2, d1, dc = zip(*(_axis_bands(dz[i], b[i], a[i, i]) for i in range(grid.dim)))
    strides, steps = [n ** (grid.dim - 1 - i) for i in range(grid.dim)], (-1, 0, 1)
    terms = [(s * j, 0.5 * a[i, i] * v) for i, s in enumerate(strides) for j, v in zip(steps, d2[i])]
    if grid.dim == 2:
        terms += [(n * j + k, a[0, 1] * (v0 * v1)) for j, v0 in zip(steps, dc[0])
                  for k, v1 in zip(steps, dc[1])]
    terms += [(s * j, b[i] * v) for i, s in enumerate(strides) for j, v in zip(steps, d1[i])]
    sums = {}
    for o, v in terms + [(0, -lam)]:  # the first value at an offset as it is, not 0.0 + it
        sums[o] = sums[o] + v if o in sums else v
    interior = grid.interior.ravel()
    local = Banded({o: np.where(interior, v, 0.0) for o, v in sums.items()})

    stencil, m, defect = _jump_stencil(model, grid, y_max_tail)
    kappa = model.jumps.mean_exp_minus_one(model.dim)
    return DiscreteOperator(grid=grid, model=model, local=local,
                            boundary_mask=~interior, stencil=stencil, offsets=m,
                            kappa=kappa, raw_mass_defect=defect)


# --------------------------------------------------------------------------- #
# Far-field boundary values
# --------------------------------------------------------------------------- #

def far_field_values(payoff: Payoff, model: LevyModel, prices: np.ndarray, tau,
                     floor: np.ndarray | None = None) -> np.ndarray:
    """Discounted payoff of the forward prices; exact where psi is locally affine.

    `tau` is one time to go or an array of them; the values have shape
    `tau.shape + prices.shape[:-1]`, each the elementwise arithmetic of its
    own scalar call.  American values are floored at `floor`, the obstacle at
    `prices`, so deep-in-the-money boundaries carry the immediate-exercise
    value; European values (floor None) are not.
    """
    tau = np.reshape(tau, np.shape(tau) + (1,) * np.ndim(prices))
    fwd = prices * np.exp((model.rates.r - model.rates.delta) * tau)
    vals = np.exp(-model.rates.r * tau)[..., 0] * payoff.evaluate(fwd)
    return vals if floor is None else np.maximum(vals, floor)


def _far_field_tables(operator: DiscreteOperator, payoff: Payoff, american: bool) -> tuple:
    """(boundary, ring): the far-field values at the operator's boundary and
    ring prices for every level's time to go, shapes (n_time + 1, n_boundary)
    and (n_time + 1, n_ring), American ones floored at the obstacle there.
    One solve builds them once and shares them with every sweep."""
    tau = operator.grid.T - operator.grid.times
    return tuple(far_field_values(payoff, operator.model, prices, tau,
                                  payoff.evaluate(prices) if american else None)
                 for prices in (operator.boundary_prices, operator.ring_prices))


# --------------------------------------------------------------------------- #
# Solution container
# --------------------------------------------------------------------------- #

@dataclass
class Solution:
    """A solved field with the model, payoff and grid it was solved for."""

    grid: Grid
    model: LevyModel
    kind: str                       # "european" | "american"
    payoff: Payoff
    values: np.ndarray              # (n_time + 1, *shape)
    obstacle: np.ndarray            # psi on the lattice
    exercise_set: np.ndarray        # bool, same shape as values
    jump_field: np.ndarray          # L_I u per level
    penalty_source: np.ndarray | None = None
    exercise_tol: float = SolverConfig.exercise_tol
    metadata: dict = field(default_factory=dict)

    def value_at_spot(self) -> float:
        return float(self.values[(0, *self.grid.center_index)])

    def check_solved_for(self, model: LevyModel, payoff: Payoff, T: float) -> None:
        """Refuse a caller's model, payoff or maturity this solution was not solved for."""
        if model_to_dict(model) != model_to_dict(self.model):
            raise ValueError(f"the {self.kind} solution was solved for the model {model_to_dict(self.model)}")
        if self.payoff.to_dict() != payoff.to_dict() or abs(T - self.grid.T) > 1e-12:
            raise ValueError(f"the {self.kind} solution was solved for {self.payoff.to_dict()} "
                             f"at maturity {self.grid.T:g}, not {payoff.to_dict()} at maturity {T:g}")


@dataclass(frozen=True)
class LatticeCells:
    """The lattice cell of each of n query log-points: `index[c]` holds the
    flat index, in a C-order raveled level, of cell corner `corners(dim)[c]`
    (2^d rows of n); `weights[i]` holds axis i's weights (1 - f, f)."""

    index: np.ndarray
    weights: tuple

    def rows(self, sel: np.ndarray) -> "LatticeCells":
        """The cells of the query points `sel` (a mask or indices)."""
        return LatticeCells(self.index[:, sel], tuple((w0[sel], w1[sel]) for w0, w1 in self.weights))


def lattice_cells(grid: Grid, zq: np.ndarray) -> LatticeCells:
    """The cell of each query log-point (n, d): per axis, pos = (z - z_min) / dz,
    the cell's low node lo = floor(pos) clipped to [0, n_space - 2] (so points
    off the grid extrapolate from the edge cell) and f = pos - lo."""
    base, weights = 0, []
    for i in range(grid.dim):
        pos = (zq[:, i] - grid.z_min[i]) / grid.dz[i]
        lo = np.clip(np.floor(pos).astype(int), 0, grid.n_space - 2)
        base = base * grid.n_space + lo  # C order: the last axis has stride 1
        f = pos - lo
        weights.append((1 - f, f))
    offsets = np.ravel_multi_index(np.transpose(corners(grid.dim)), grid.shape)
    return LatticeCells(base + offsets[:, None], tuple(weights))


def interp_level(solution_field: np.ndarray, grid: Grid, level: int, cells: LatticeCells) -> np.ndarray:
    """Multilinear interpolation of `solution_field[level]` in `cells` (from
    `lattice_cells`): the sum, corner by corner in `corners(grid.dim)` order,
    of the corner's value times its weight on each axis in turn.  Values are
    read by flat index, so one set of cells serves every field on the grid."""
    values = solution_field[level].ravel().take(cells.index)
    for value, corner in zip(values, corners(grid.dim)):
        for weights, c in zip(cells.weights, corner):
            value *= weights[c]
    out = values[0]
    for value in values[1:]:
        out += value
    return out


# --------------------------------------------------------------------------- #
# Time stepping
# --------------------------------------------------------------------------- #

def _update_budget(grid: Grid) -> int:
    """Update columns a penalized factor may carry: one grid line in 2D; none
    in 1D, which refactorizes each moved set with `_TridiagonalLU`.  This
    fork stays: a tridiagonal LU costs O(n), the dense update block O(n) per
    cached column per solve.  With an `n_space` budget in 1D the American
    solve went from 0.14 to 7.2 s (bs 801x400) and from 0.05 to 0.52 s
    (kou1d 401x100) on 2 cores, both with SuperLU factors."""
    return grid.n_space * (grid.dim - 1)


def _right_hand_side(operator: DiscreteOperator, values: np.ndarray, conv: np.ndarray,
                     far_field: tuple, k: int) -> np.ndarray:
    """The right-hand side of the step from level k + 1 to k, in pre-discount
    units: u/dt plus the jump convolution K * u of level k + 1, kept in
    `conv[k + 1]`, with the boundary rows of level k.  `far_field` holds the
    solve's boundary and ring values per level, from `_far_field_tables`."""
    boundary, ring = far_field
    rhs = values[k + 1].ravel() / operator.grid.dt
    if operator.lam > 0:
        conv[k + 1] = operator.convolve(operator.extend(values[k + 1], ring[k + 1]))
        rhs = rhs + conv[k + 1].ravel()
    rhs[operator.boundary_mask] = boundary[k] / operator.disc
    return rhs


def _penalty_sweep(operator: DiscreteOperator, psi: np.ndarray, far_field: tuple,
                   n_pen: float):
    """One backward sweep of the penalized problem: (values, source,
    convolutions, Newton solves, factorizations, update columns).

    Each level starts from the previous level's converged active set.  It
    still stops only when the set it solved with is reproduced, and the
    penalized system has one solution, so the start saves work without
    changing the answer.  Only interior nodes with psi > 0 can be active:
    v ~ +-1e-17 at psi = 0 is round-off.
    A set A is solved with the factor of a base set B and a Woodbury
    correction on D = A ^ B (Hager 1989): v = y - W z, y = M_B^-1 b,
    W = M_B^-1 U_D, (diag(s / n) + W_D) z = y_D, s = +1 entering, -1 leaving.
    W's columns are cached per base; past `_update_budget` A is refactorized.
    """
    grid = operator.grid
    values = np.empty((grid.n_time + 1, *grid.shape))
    conv = np.zeros_like(values)
    source = np.zeros_like(values)
    values[-1] = psi
    psi_flat = psi.ravel()
    psi_step = psi_flat / operator.disc  # obstacle in pre-discount units
    candidates = grid.interior.ravel() & (psi_flat > 0)
    active = np.zeros_like(candidates)
    lu, base = operator.step_lu, active  # factor of step_matrix + n_pen diag(base)
    budget = _update_budget(grid)
    block = np.empty((active.size, budget), order="F")  # M_B^-1 e_j, cached nodes j
    slot = np.full(active.size, -1)  # column of node j in `block`, -1 if not cached
    cached = solves = factorizations = columns = 0
    for k in range(grid.n_time - 1, -1, -1):
        rhs = _right_hand_side(operator, values, conv, far_field, k)
        for _ in range(_NEWTON_CAP):
            try:
                changed = np.flatnonzero(active ^ base)
                new = changed[slot[changed] < 0]
                if changed.size and (cached + new.size > budget or not active.any()):
                    lu = None  # release the stale factor before building the next
                    lu = splu(operator.penalized_matrix(n_pen, active)) if active.any() \
                        else operator.step_lu
                    factorizations += bool(active.any())
                    slot[slot >= 0], cached, base, changed = -1, 0, active, changed[:0]
                elif new.size:  # one multi-RHS solve for the nodes not cached yet
                    end = cached + new.size
                    block[:, cached:end] = 0.0  # unit columns e_j, j in new, where their solves go
                    block[new, np.arange(cached, end)] = 1.0
                    block[:, cached:end] = lu.solve(block[:, cached:end])
                    slot[new], cached, columns = np.arange(cached, end), end, columns + new.size
                v = lu.solve(rhs + n_pen * active * psi_step)
                if changed.size:  # capacitance system on the changed nodes
                    z = np.zeros(cached)
                    z[slot[changed]] = np.linalg.solve(
                        np.diag(np.where(active[changed], 1.0, -1.0) / n_pen)
                        + block[changed[:, None], slot[changed]], v[changed])
                    v -= block[:, :cached] @ z
            except RuntimeError as exc:  # pragma: no cover
                raise LinearSolveFailure(str(exc)) from exc
            solves += 1
            reached = candidates & (v < psi_step)
            if np.array_equal(reached, active):
                break  # v solves the system for the set it was solved with
            active = reached
        else:
            raise NewtonStall(f"penalty iterations exceeded {_NEWTON_CAP} at level {k}")
        u = operator.disc * v
        source[k] = (n_pen * np.maximum(psi_flat - u, 0.0)).reshape(grid.shape)
        # projection safeguard: finite penalty leaves a O(Psi^-/n) gap
        # below the obstacle; clip so the stored field honours u >= psi
        values[k] = np.maximum(u, psi_flat).reshape(grid.shape)
    return values, source, conv, solves, factorizations, columns


def solve_european(model: LevyModel, payoff: Payoff, grid: Grid,
                   operator: DiscreteOperator) -> Solution:
    """Backward IMEX sweep for the Cauchy problem (no obstacle): per level
    one solve with the operator's step factor, then the discount."""
    operator.check_assembled_for(model, grid)
    grid = operator.grid
    psi = payoff.evaluate(np.exp(grid.mesh()))
    far_field = _far_field_tables(operator, payoff, american=False)
    values = np.empty((grid.n_time + 1, *grid.shape))
    conv = np.zeros_like(values)
    values[-1] = psi
    for k in range(grid.n_time - 1, -1, -1):
        rhs = _right_hand_side(operator, values, conv, far_field, k)
        values[k] = (operator.disc * operator.step_lu.solve(rhs)).reshape(grid.shape)
    return Solution(grid=grid, model=operator.model, kind="european", payoff=payoff,
                    values=values, obstacle=psi, exercise_set=np.zeros_like(values, dtype=bool),
                    jump_field=_jump_field(operator, values, conv, far_field[1]),
                    metadata={"stencil_mass_defect": operator.raw_mass_defect})


def solve_american_penalty(model: LevyModel, payoff: Payoff, grid: Grid,
                           operator: DiscreteOperator,
                           penalty=SolverConfig.penalty_ladder,
                           exercise_tol: float = SolverConfig.exercise_tol) -> Solution:
    """Penalty-ladder solve of the obstacle problem.

    Solutions must be nodewise nondecreasing along the ladder (monotone
    approximation from below); the returned Solution uses the largest
    penalty.  `penalty_source` is n (psi - u)^+ of that rung per level, taken
    before the projection u = max(u, psi), so it misses the share of A - E
    the projection adds (-3.8% on bs 801x400, -13.8% at 1601x1600).  Metadata
    counts, per rung, the Newton linear solves, the penalized-matrix
    factorizations and the low-rank update columns solved against them; the
    step matrix is factored once per operator on top of those.
    """
    cfg = SolverConfig(penalty_ladder=penalty, exercise_tol=exercise_tol)
    ladder, exercise_tol = cfg.penalty_ladder, cfg.exercise_tol
    operator.check_assembled_for(model, grid)
    grid = operator.grid
    psi = payoff.evaluate(np.exp(grid.mesh()))
    far_field = _far_field_tables(operator, payoff, american=True)
    prev = None
    changes, solves, factorizations, columns = [], [], [], []
    for n_pen in ladder:
        source = conv = diff = None  # only the previous rung's values stay beside the next sweep
        values, source, conv, *counts = _penalty_sweep(operator, psi, far_field, n_pen)
        for total, count in zip((solves, factorizations, columns), counts):
            total.append(count)
        if prev is not None:
            diff = values - prev
            drop = -float(diff.min())
            if drop > _OBSTACLE_SLACK:
                raise PenaltyNonMonotone(
                    f"solution decreased by {drop:.3g} from n={last_n:g} to n={n_pen:g}")
            changes.append(float(np.abs(diff, out=diff).max() / (1.0 + np.abs(values).max())))
        prev, last_n = values, n_pen
    # exercised: psi above exercise_tol and a penalty source above round-off dust
    # (depth ~ eps below psi); such a source means u < psi, so max(u, psi) is psi
    exercise = (psi > exercise_tol) & (source > ladder[-1] * 1e-10 * (1.0 + psi))
    exercise[-1] = psi > 0  # terminal layer: u(T) = psi exactly
    meta = {"penalty_ladder": list(ladder), "ladder_relative_changes": changes,
            "newton_solves": solves, "factorizations": factorizations,
            "update_columns": columns,
            "stencil_mass_defect": operator.raw_mass_defect}
    return Solution(grid=grid, model=operator.model, kind="american", payoff=payoff,
                    values=prev, obstacle=psi, exercise_set=exercise,
                    jump_field=_jump_field(operator, prev, conv, far_field[1]),
                    penalty_source=source,
                    exercise_tol=exercise_tol, metadata=meta)


def solve_pair(model: LevyModel, payoff: Payoff, spot, T: float, cfg: SolverConfig):
    """The solve pipeline: (grid, operator, american, european) on one grid
    and one operator, so both solves share its step factor."""
    grid = build_grid(model, payoff, spot, T, cfg.n_space, cfg.n_time, cfg.beta,
                      cfg.trunc_tol, cfg.y_max_tail)
    operator = assemble(model, grid, cfg.y_max_tail)
    american = solve_american_penalty(model, payoff, grid, operator,
                                      penalty=cfg.penalty_ladder, exercise_tol=cfg.exercise_tol)
    return grid, operator, american, solve_european(model, payoff, grid, operator)


# --------------------------------------------------------------------------- #
# Jump operator field and residual
# --------------------------------------------------------------------------- #

def _compensate(operator: DiscreteOperator, conv: np.ndarray, core: np.ndarray,
                sign: float = -1.0) -> np.ndarray:
    """L_I u = (K * u) - lambda u - sum_i lambda kappa_i d_i u, in log coordinates.

    sign = +1 inverts it: K * u = L_I u + lambda u + sum_i lambda kappa_i d_i u.
    """
    out = conv + sign * operator.lam * core
    for i in range(operator.grid.dim):
        grad = np.gradient(core, operator.grid.dz[i], axis=i)
        out = out + sign * operator.lam * operator.kappa[i] * grad
    return out


def _jump_field(operator: DiscreteOperator, values: np.ndarray, conv: np.ndarray,
                ring: np.ndarray) -> np.ndarray:
    """L_I u per level, in place of `conv` (zero when lambda = 0).

    Levels 1..n_time reuse the convolutions the sweep made; level 0 is the
    only one it did not convolve, against row 0 of the solve's ring table.
    """
    if operator.lam > 0:
        conv[0] = operator.convolve(operator.extend(values[0], ring[0]))
        for k in range(values.shape[0]):
            conv[k] = _compensate(operator, conv[k], values[k])
    return conv


def _shifts(mask: np.ndarray) -> list:
    """`mask` moved one cell either way along each axis, the cells it leaves
    False: the cross neighbours of every cell, outside the array counted False."""
    padded, core = np.pad(mask, 1), (slice(1, -1),) * mask.ndim
    return [padded[core[:axis] + (slice(1 + step, padded.shape[axis] - 1 + step),) + core[axis + 1:]]
            for axis in range(mask.ndim) for step in (-1, 1)]


def _exercise_band(exercise: np.ndarray) -> np.ndarray:
    """The `_KINK_LAYERS`-cell band around the exercise set's boundary: the
    set's edge (the set minus its erosion) dilated `_KINK_LAYERS` times, each
    step by the cross of `_shifts`."""
    band = exercise & ~np.logical_and.reduce(_shifts(exercise))
    for _ in range(_KINK_LAYERS):
        band = np.logical_or.reduce([band, *_shifts(band)])
    return band


def complementarity_residual(solution: Solution, operator: DiscreteOperator,
                             payoff: Payoff):
    """min(-D_t u - L u + r u, u - psi) on interior levels, masked max-norm.

    The jump part of L u is the solution's stored jump field, so no level is
    convolved again.  The time derivative is the central difference, independent of the
    stepping scheme, so the residual genuinely measures discretization error.
    Excluded from the norm (NaN in the field): nodes inside the payoff kink's
    parabolic influence region |z - kink| < max(layers * dz, 4 sqrt(a_max tau)),
    with layers = `_KINK_LAYERS` and dz the widest step; a `_KINK_LAYERS`-cell
    band around the exercise-set boundary; and levels with
    tau < `_TERMINAL_BUFFER` * T, where no scheme is in its asymptotic regime yet.
    """
    operator.check_assembled_for(solution.model, solution.grid)
    solution.check_solved_for(solution.model, payoff, solution.grid.T)
    model, grid, u, psi = solution.model, solution.grid, solution.values, solution.obstacle
    r, dt = model.rates.r, grid.dt
    a_max = float(np.diag(model.gaussian.a).max())
    margin = solution.payoff.kink_margin_log(grid.mesh())
    field = np.full((grid.n_time - 1, *grid.shape), np.nan)
    american = solution.kind == "american"
    for k in range(1, grid.n_time):
        tau = grid.T - grid.times[k]
        if tau < _TERMINAL_BUFFER * grid.T:
            continue
        gen = (operator.local @ u[k].ravel()).reshape(grid.shape) \
            + _compensate(operator, solution.jump_field[k], u[k], sign=1.0) - r * u[k]
        pde = -(u[k + 1] - u[k - 1]) / (2.0 * dt) - gen
        res = np.minimum(pde, u[k] - psi) if american else pde
        radius = max(_KINK_LAYERS * grid.dz.max(), 4.0 * np.sqrt(a_max * tau))
        mask = grid.interior & (margin >= radius)
        if american:
            mask &= ~_exercise_band(solution.exercise_set[k])
        level = np.full(grid.shape, np.nan)
        level[mask] = res[mask]
        field[k - 1] = level
    max_norm = float(np.nanmax(np.abs(field))) if np.any(np.isfinite(field)) else 0.0
    return field, max_norm


# --------------------------------------------------------------------------- #
# CSV export
# --------------------------------------------------------------------------- #

def export_solution_csv(solution: Solution, path) -> None:
    """Plotting-ready dump: one row per (time level, node), one formatted
    block per level.  Node coordinates, prices and psi do not change with the
    level, so they are formatted once."""
    grid = solution.grid
    zmesh = grid.mesh()
    d = grid.dim
    zcols = [f"z{i+1}" for i in range(d)] if d > 1 else ["z"]
    pcols = [f"price{i+1}" for i in range(d)] if d > 1 else ["price"]
    header = ",".join(["t", *zcols, *pcols, "u", "psi", "exercised", "jump_field"])
    nodes = np.concatenate([zmesh, np.exp(zmesh)], axis=-1).reshape(-1, 2 * d)
    node_fmt = ",".join(["%.10g"] * (2 * d))
    cols = np.empty((len(nodes), 5), dtype=object)  # node text, u, psi text, exercised, jump_field
    cols[:, 0] = [node_fmt % tuple(row) for row in nodes.tolist()]
    cols[:, 2] = ["%.10g" % v for v in solution.obstacle.ravel().tolist()]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, u, ex, jf in zip(grid.times, solution.values, solution.exercise_set,
                                solution.jump_field):
            cols[:, (1, 3, 4)] = np.column_stack([u.ravel(), ex.ravel(), jf.ravel()])
            fh.write(("%.10g," % t + "%s,%.10g,%s,%d,%.10g\n") * len(nodes)
                     % tuple(cols.ravel().tolist()))

"""Payoff catalog with closed-form local exercise-benefit rates.

Each catalog entry knows its payoff psi, the growth exponent p of the bound
psi(x) <= C (1 + |x|^p), and the closed form of Psi^- = (r psi - L_BS psi)^+
on {psi > 0}, the rate at which early exercise locally beats holding.  A
finite-difference check is provided so every closed form can be verified
against a direct evaluation of the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KinkTooClose
from .model import GaussianPart, Rates, read_json, real_numbers, spec_keys, whole_number

MIN_PUT = "min_put"
INDEX_PUT = "index_put"
SPREAD_PUT = "spread_put"
INDEX_CALL = "index_call"
SPREAD_CALL = "spread_call"
MAX_CALL = "max_call"
MULTI_STRIKE = "multi_strike"
POWER_PRODUCT = "power_product"
CONSTANT = "constant"  # test-only payoff, not part of the public catalog

# The JSON keys each kind takes besides "kind" and "dim", exactly; `_FIELDS`
# names the Payoff field a key fills.  This table drives the constructor's
# checks, `to_dict` and `payoff_from_dict`.
KINDS = {MIN_PUT: ("K",), INDEX_PUT: ("K", "w"), SPREAD_PUT: ("K", "w"),
         INDEX_CALL: ("K", "w"), SPREAD_CALL: ("K", "w"), MAX_CALL: ("K",),
         MULTI_STRIKE: ("K",), POWER_PRODUCT: ("K", "gamma"), CONSTANT: ("c",)}
_FIELDS = {"K": "strike", "w": "weights", "gamma": "gamma_pow", "c": "const"}


@dataclass(frozen=True)
class Payoff:
    kind: str
    dim: int
    strike: np.ndarray | float | None = None
    weights: np.ndarray | None = None
    gamma_pow: float | None = None
    const: float | None = None

    def __post_init__(self):
        """Check the fields against the kind's keys in `KINDS`: a missing or
        unused key raises a ValueError naming the kind and the key."""
        keys = KINDS.get(self.kind)
        if keys is None:
            raise ValueError(f"unknown payoff kind {self.kind!r}; known kinds: {', '.join(KINDS)}")
        if self.dim is None:
            raise ValueError(f"{self.kind} payoff needs key 'dim'")
        object.__setattr__(self, "dim", whole_number(self.dim, "dim", 1))
        for key, name in _FIELDS.items():
            value = getattr(self, name)
            if (value is None) == (key in keys):
                raise ValueError(f"{self.kind} payoff {'needs' if value is None else 'takes no'} key {key!r}")
            if value is None:
                continue
            vector = key == "w" or (key == "K" and self.kind == MULTI_STRIKE)
            value = real_numbers(value, f"{self.kind} payoff key {key!r}")
            value = np.atleast_1d(value) if vector else value
            if value.shape != ((self.dim,) if vector else ()):
                raise ValueError(f"{self.kind} payoff needs {self.dim if vector else 1} number(s) in key {key!r}")
            object.__setattr__(self, name, value if vector else float(value))
        if self.kind == INDEX_PUT and np.any(self.weights < 0):
            raise ValueError("index put weights must be nonnegative")
        if self.kind == POWER_PRODUCT and self.gamma_pow <= 1:
            raise ValueError("power-product exponent must exceed 1")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def min_put(cls, K: float, dim: int) -> "Payoff":
        return cls(kind=MIN_PUT, dim=dim, strike=K)

    @classmethod
    def index_put(cls, K: float, weights, dim: int) -> "Payoff":
        return cls(kind=INDEX_PUT, dim=dim, strike=K, weights=weights)

    @classmethod
    def spread_put(cls, K: float, weights, dim: int) -> "Payoff":
        return cls(kind=SPREAD_PUT, dim=dim, strike=K, weights=weights)

    @classmethod
    def index_call(cls, K: float, weights, dim: int) -> "Payoff":
        return cls(kind=INDEX_CALL, dim=dim, strike=K, weights=weights)

    @classmethod
    def spread_call(cls, K: float, weights, dim: int) -> "Payoff":
        return cls(kind=SPREAD_CALL, dim=dim, strike=K, weights=weights)

    @classmethod
    def max_call(cls, K: float, dim: int) -> "Payoff":
        return cls(kind=MAX_CALL, dim=dim, strike=K)

    @classmethod
    def multi_strike(cls, strikes, dim: int) -> "Payoff":
        return cls(kind=MULTI_STRIKE, dim=dim, strike=strikes)

    @classmethod
    def power_product(cls, K: float, gamma: float, dim: int) -> "Payoff":
        return cls(kind=POWER_PRODUCT, dim=dim, strike=K, gamma_pow=gamma)

    @classmethod
    def constant(cls, c: float, dim: int) -> "Payoff":
        return cls(kind=CONSTANT, dim=dim, const=c)

    @property
    def is_put(self) -> bool:
        return self.kind in (MIN_PUT, INDEX_PUT, SPREAD_PUT)

    # ------------------------------------------------------------------ #
    # psi and friends
    # ------------------------------------------------------------------ #

    def evaluate(self, x) -> np.ndarray:
        """psi(x); x has shape (..., dim), result shape (...)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        x = np.atleast_2d(x)
        if x.shape[-1] != self.dim:
            raise ValueError(f"{self.kind} payoff on {self.dim} asset(s) at points of {x.shape[-1]}")
        k = self.kind
        if k == MIN_PUT:
            low = _across(np.minimum, x)
            out = np.where(low >= 0, np.maximum(self.strike - low, 0.0), self.strike)
        elif k == INDEX_PUT:
            # only nonnegative coordinates count; reduces to the orthant
            # branches of the two-asset formulas
            out = np.maximum(self.strike - np.sum(self.weights * np.clip(x, 0.0, None), axis=-1), 0.0)
        elif k in (SPREAD_PUT,):
            out = np.maximum(self.strike - x @ self.weights, 0.0)
        elif k in (INDEX_CALL, SPREAD_CALL):
            out = np.maximum(x @ self.weights - self.strike, 0.0)
        elif k in (MAX_CALL, MULTI_STRIKE):
            # max(x - K) == max(x) - K bit for bit: rounding is monotone
            out = np.maximum(_across(np.maximum, x - self.strike), 0.0)
        elif k == POWER_PRODUCT:
            out = np.maximum(np.abs(np.prod(x, axis=-1)) ** self.gamma_pow - self.strike, 0.0)
        else:  # CONSTANT
            out = np.full(x.shape[:-1], self.const)
        return out[0] if scalar else out

    def growth_exponent(self) -> float:
        if self.kind in (MIN_PUT, INDEX_PUT, CONSTANT):
            return 0.0
        if self.kind == POWER_PRODUCT:
            return self.gamma_pow * self.dim
        return 1.0

    def psi_minus(self, x, rates: Rates, gaussian: GaussianPart,
                  printed_power_coeff: bool = False) -> np.ndarray:
        """Closed-form Psi^-(x) on {psi > 0}; zero elsewhere.

        The exercise set lives inside {psi > 0}, so the premium integrand
        never samples the formula off that set.  On a tie set (x_i == x_j at
        the argmin or argmax) the first active index is taken, as numpy's
        argmin and argmax do: the tie sets are null for a law with a density,
        so the premium integral never depends on Psi^- there.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        x = np.atleast_2d(x)
        psi = np.atleast_1d(self.evaluate(x))
        pos = psi > 0
        r = rates.r
        delta = rates.delta
        k = self.kind

        if k in (MIN_PUT, MAX_CALL, MULTI_STRIKE):
            # +-(delta_m x_m - r K_m) at m = argmin x, argmax x or argmax x - K
            v = x - self.strike if k == MULTI_STRIKE else x
            idx = np.argmin(v, axis=-1) if k == MIN_PUT else np.argmax(v, axis=-1)
            active = np.take_along_axis(x, idx[..., None], axis=-1)[..., 0]
            gain, cost = delta[idx] * active, r * np.broadcast_to(self.strike, (self.dim,))[idx]
            raw = cost - gain if k == MIN_PUT else gain - cost
        elif k in (INDEX_PUT, SPREAD_PUT):
            raw = r * self.strike - np.sum(self.weights * delta * x, axis=-1)
        elif k in (INDEX_CALL, SPREAD_CALL):
            raw = np.sum(self.weights * delta * x, axis=-1) - r * self.strike
        elif k == POWER_PRODUCT:
            raw = _power_rate(self, rates, gaussian, printed_power_coeff) \
                * np.prod(x, axis=-1) ** self.gamma_pow - r * self.strike
        else:  # CONSTANT: psi == c, L_BS psi == 0, Psi = -r c
            raw = np.full(psi.shape, r * self.const)

        out = np.where(pos, np.maximum(raw, 0.0), 0.0)
        return out[0] if scalar else out

    # ------------------------------------------------------------------ #
    # smoothness and fd verification
    # ------------------------------------------------------------------ #

    def smoothness_margin(self, x) -> float:
        """Distance (price units) from x to the nearest kink or tie set."""
        x = np.asarray(x, dtype=float)
        k = self.kind
        margins = [np.abs(x).min()] if k in (MIN_PUT, INDEX_PUT) else []
        if k in (MIN_PUT, MAX_CALL, MULTI_STRIKE):
            v = x - self.strike  # min or max of x - K == that of x, minus K: rounding is monotone
            margins.append(abs(v.min() if k == MIN_PUT else v.max()))
            margins += [_pair_gap(v if k == MULTI_STRIKE else x)] if self.dim > 1 else []
        elif k in (INDEX_PUT, SPREAD_PUT, INDEX_CALL, SPREAD_CALL):
            wl = np.linalg.norm(self.weights)
            margins.append(abs(self.strike - x @ self.weights) / max(wl, 1e-300))
        elif k == POWER_PRODUCT:
            f = np.abs(np.prod(x)) ** self.gamma_pow
            grad = self.gamma_pow * f / np.maximum(np.abs(x), 1e-300)
            margins.append(abs(f - self.strike) / max(np.linalg.norm(grad), 1e-300))
            margins.append(np.abs(x).min())
        else:
            return np.inf
        return float(min(margins))

    def kink_margin_log(self, zmesh: np.ndarray) -> np.ndarray:
        """Approximate log-space distance from each node of `zmesh` (..., dim)
        to the nearest kink or tie set."""
        x = np.exp(zmesh)
        k = self.kind
        big = np.full(zmesh.shape[:-1], np.inf)
        if k == CONSTANT:
            return big
        scale = np.abs(x).max(axis=-1)
        if k == MIN_PUT:
            margin = np.abs(zmesh.min(axis=-1) - np.log(self.strike))
        elif k == MAX_CALL:
            margin = np.abs(zmesh.max(axis=-1) - np.log(self.strike))
        elif k in (INDEX_PUT, SPREAD_PUT, INDEX_CALL, SPREAD_CALL):
            lvl = x @ self.weights
            margin = np.abs(lvl - self.strike) / np.maximum(np.abs(x * self.weights).sum(axis=-1), 1e-300)
        elif k == MULTI_STRIKE:
            margin = np.abs((x - self.strike).max(axis=-1)) / scale
        else:  # POWER_PRODUCT
            f = np.abs(np.prod(x, axis=-1)) ** self.gamma_pow
            margin = np.abs(f - self.strike) / np.maximum(self.gamma_pow * f * np.sqrt(self.dim), 1e-300)
        if self.dim > 1 and k in (MIN_PUT, MAX_CALL, MULTI_STRIKE):
            if k == MULTI_STRIKE:
                tie = np.abs((x[..., 0] - self.strike[0]) - (x[..., 1] - self.strike[1])) / scale
            else:
                tie = np.abs(zmesh[..., 0] - zmesh[..., 1])
            margin = np.minimum(margin, tie)
        return margin

    def psi_minus_fd_check(self, x, rates: Rates, gaussian: GaussianPart,
                           h: float = 1e-3, printed_power_coeff: bool = False):
        """(closed form, finite-difference value) of Psi^- at a smooth point.

        The fd value applies central differences of step h to psi and
        assembles (r psi - L_BS psi)^+ directly.  Raises KinkTooClose when x
        is within 2h of a kink or tie set.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.smoothness_margin(x) <= 2.0 * h:
            raise KinkTooClose(f"margin {self.smoothness_margin(x):.3g} <= 2h = {2 * h:.3g}")
        d = self.dim
        a = gaussian.a
        psi0 = float(self.evaluate(x))
        grad = np.empty(d)
        hess = np.empty((d, d))
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h
            up, dn = float(self.evaluate(x + ei)), float(self.evaluate(x - ei))
            grad[i] = (up - dn) / (2.0 * h)
            hess[i, i] = (up - 2.0 * psi0 + dn) / (h * h)
        for i in range(d):
            for j in range(i + 1, d):
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[i] = h
                ej[j] = h
                cross = (float(self.evaluate(x + ei + ej)) - float(self.evaluate(x + ei - ej))
                         - float(self.evaluate(x - ei + ej)) + float(self.evaluate(x - ei - ej))) / (4.0 * h * h)
                hess[i, j] = hess[j, i] = cross
        lbs = 0.5 * np.einsum("ij,i,j,ij->", a, x, x, hess) \
            + np.sum((rates.r - rates.delta) * x * grad)
        fd_value = max(-(-rates.r * psi0 + lbs), 0.0)
        closed = float(self.psi_minus(x, rates, gaussian, printed_power_coeff=printed_power_coeff))
        return closed, fd_value

    # ------------------------------------------------------------------ #
    # JSON interface
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "dim": self.dim}
        for key in KINDS[self.kind]:
            value = getattr(self, _FIELDS[key])
            out[key] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


def _across(op, x: np.ndarray) -> np.ndarray:
    """`op` folded over the asset axis one column at a time, (..., dim) -> (...).

    Bitwise equal to the axis reduction for min, max and logical-and, and far
    cheaper on a short last axis, where numpy's reduction overhead is per row.
    """
    out = x[..., 0]
    for j in range(1, x.shape[-1]):
        out = op(out, x[..., j])
    return out


def _pair_gap(v: np.ndarray) -> float:
    srt = np.sort(v)
    return float(np.diff(srt).min())


def _power_rate(payoff: Payoff, rates: Rates, gaussian: GaussianPart, printed: bool) -> float:
    # coefficient of f(x) = (x_1 ... x_d)^gamma in -Psi; the printed variant
    # drops the 1/2 factors and is kept only for the fd adjudication
    g = payoff.gamma_pow
    a = gaussian.a
    r = rates.r
    if printed:
        return r - g * np.sum(r - rates.delta - np.diag(a)) - g * g * a.sum()
    return r - g * np.sum(r - rates.delta - 0.5 * np.diag(a)) - 0.5 * g * g * a.sum()


def payoff_from_dict(spec: dict) -> Payoff:
    """The payoff of a JSON spec: "kind", "dim" and the kind's keys in `KINDS`."""
    spec_keys(spec, "payoff", optional=("kind", "dim", *_FIELDS))
    return Payoff(kind=str(spec.get("kind", "")).lower(), dim=spec.get("dim"),
                  **{name: spec.get(key) for key, name in _FIELDS.items()})


def load_payoff(path) -> Payoff:
    return payoff_from_dict(read_json(path))

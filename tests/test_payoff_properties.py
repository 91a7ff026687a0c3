"""Property tests: the column folds of `Payoff` against axis reductions, and
the shared best-of branches against per-kind ones.

`evaluate` and `psi_minus` fold min and max over the asset axis one column
at a time.  The references below reduce over the axis with numpy
(`x.min(axis=-1)`, `np.sort`); min, max and comparisons are exact, so every
result must be bitwise equal, ties, zeros and negative coordinates included.
`psi_minus` and `smoothness_margin` treat min-put, max-call and multi-strike
in one branch; the references spell out one branch per kind, and the results
must be bitwise equal too.  The per-kind `psi_minus` reference keeps the
raise on an in-the-money tie that the engine once had; the engine now takes
the first active index there, so it is compared wherever the reference does
not raise.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import levypricer as lp
from levypricer.payoffs import (INDEX_CALL, INDEX_PUT, MAX_CALL, MIN_PUT, MULTI_STRIKE,
                                POWER_PRODUCT, SPREAD_CALL, SPREAD_PUT, Payoff, _pair_gap,
                                _power_rate)


def reference_evaluate(self, x):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    x = np.atleast_2d(x)
    k = self.kind
    if k == MIN_PUT:
        hinge = np.maximum(self.strike - x.min(axis=-1), 0.0)
        out = np.where(np.all(x >= 0, axis=-1), hinge, self.strike)
    elif k == INDEX_PUT:
        out = np.maximum(self.strike - np.sum(self.weights * np.clip(x, 0.0, None), axis=-1), 0.0)
    elif k == SPREAD_PUT:
        out = np.maximum(self.strike - x @ self.weights, 0.0)
    elif k in (INDEX_CALL, SPREAD_CALL):
        out = np.maximum(x @ self.weights - self.strike, 0.0)
    elif k == MAX_CALL:
        out = np.maximum(x.max(axis=-1) - self.strike, 0.0)
    elif k == MULTI_STRIKE:
        out = np.maximum((x - self.strike).max(axis=-1), 0.0)
    else:
        assert k == POWER_PRODUCT
        out = np.maximum(np.abs(np.prod(x, axis=-1)) ** self.gamma_pow - self.strike, 0.0)
    return out[0] if scalar else out


class TieBreak(Exception):
    """The per-kind reference met an in-the-money tie of a best-of payoff."""


def reference_tie_mask(self, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if self.dim < 2 or self.kind not in (MIN_PUT, MAX_CALL, MULTI_STRIKE):
        return np.zeros(x.shape[:-1], dtype=bool)
    v = x - self.strike if self.kind == MULTI_STRIKE else x
    srt = np.sort(v, axis=-1)
    if self.kind == MIN_PUT:
        return srt[..., 0] == srt[..., 1]
    return srt[..., -1] == srt[..., -2]


def reference_psi_minus(self, x, rates, gaussian):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    x = np.atleast_2d(x)
    psi = np.atleast_1d(self.evaluate(x))
    pos = psi > 0
    r, delta, k = rates.r, rates.delta, self.kind
    if k in (MIN_PUT, MAX_CALL, MULTI_STRIKE):
        ties = reference_tie_mask(self, x) & pos
        if np.any(ties):
            raise TieBreak(f"{int(ties.sum())} query point(s) on a tie set of {k}")
    if k == MIN_PUT:
        idx = np.argmin(x, axis=-1)
        active = np.take_along_axis(x, idx[..., None], axis=-1)[..., 0]
        raw = r * self.strike - delta[idx] * active
    elif k in (INDEX_PUT, SPREAD_PUT):
        raw = r * self.strike - np.sum(self.weights * delta * x, axis=-1)
    elif k in (INDEX_CALL, SPREAD_CALL):
        raw = np.sum(self.weights * delta * x, axis=-1) - r * self.strike
    elif k == MAX_CALL:
        idx = np.argmax(x, axis=-1)
        active = np.take_along_axis(x, idx[..., None], axis=-1)[..., 0]
        raw = delta[idx] * active - r * self.strike
    elif k == MULTI_STRIKE:
        idx = np.argmax(x - self.strike, axis=-1)
        active = np.take_along_axis(x, idx[..., None], axis=-1)[..., 0]
        raw = delta[idx] * active - r * np.asarray(self.strike)[idx]
    else:
        assert k == POWER_PRODUCT
        raw = _power_rate(self, rates, gaussian, False) \
            * np.prod(x, axis=-1) ** self.gamma_pow - r * self.strike
    out = np.where(pos, np.maximum(raw, 0.0), 0.0)
    return out[0] if scalar else out


def reference_smoothness_margin(self, x):
    x = np.asarray(x, dtype=float)
    k = self.kind
    margins = [np.abs(x).min()] if k in (MIN_PUT, INDEX_PUT) else []
    if k == MIN_PUT:
        margins.append(abs(self.strike - x.min()))
        margins += [_pair_gap(x)] if self.dim > 1 else []
    elif k in (INDEX_PUT, SPREAD_PUT, INDEX_CALL, SPREAD_CALL):
        wl = np.linalg.norm(self.weights)
        margins.append(abs(self.strike - x @ self.weights) / max(wl, 1e-300))
    elif k == MAX_CALL:
        margins.append(abs(x.max() - self.strike))
        margins += [_pair_gap(x)] if self.dim > 1 else []
    elif k == MULTI_STRIKE:
        v = x - self.strike
        margins.append(abs(v.max()))
        margins += [_pair_gap(v)] if self.dim > 1 else []
    else:
        assert k == POWER_PRODUCT
        f = np.abs(np.prod(x)) ** self.gamma_pow
        grad = self.gamma_pow * f / np.maximum(np.abs(x), 1e-300)
        margins.append(abs(f - self.strike) / max(np.linalg.norm(grad), 1e-300))
        margins.append(np.abs(x).min())
    return float(min(margins))


def catalog(dim):
    w = [0.6, 0.4] if dim == 2 else [1.0]
    diff = [1.0, -1.0] if dim == 2 else [1.0]
    return [Payoff.min_put(100.0, dim), Payoff.index_put(100.0, w, dim),
            Payoff.spread_put(10.0, diff, dim), Payoff.index_call(100.0, w, dim),
            Payoff.spread_call(10.0, diff, dim), Payoff.max_call(100.0, dim),
            Payoff.multi_strike([95.0, 105.0][:dim], dim), Payoff.power_product(1.2, 1.5, dim)]


PAYOFFS = catalog(1) + catalog(2)
RATES = {1: lp.Rates(r=0.05, delta=[0.02]), 2: lp.Rates(r=0.05, delta=[0.02, 0.01])}
GAUSS = {1: lp.GaussianPart(a=[[0.04]]), 2: lp.GaussianPart(a=[[0.04, 0.01], [0.01, 0.09]])}

# a small pool of exact values (strikes, zeros of both signs, negatives) makes
# ties across columns common; free floats cover the rest
COORD = st.one_of(st.sampled_from([0.0, -0.0, -5.0, 90.0, 95.0, 100.0, 105.0, 110.0]),
                  st.floats(-50.0, 250.0, allow_nan=False, allow_infinity=False))


def _points(dim):
    return hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(dim)), elements=COORD)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _psi_minus(payoff, x, psi_minus=Payoff.psi_minus):
    return psi_minus(payoff, x, RATES[payoff.dim], GAUSS[payoff.dim])


@pytest.mark.parametrize("payoff", PAYOFFS, ids=lambda p: f"{p.kind}-{p.dim}d")
@settings(max_examples=50, deadline=None, database=None)
@given(data=st.data())
def test_folds_match_axis_reductions(payoff, data):
    x = data.draw(_points(payoff.dim))
    with np.errstate(invalid="ignore"):
        assert _same(payoff.evaluate(x), reference_evaluate(payoff, x))
        assert _same(payoff.evaluate(x[0]), reference_evaluate(payoff, x[0]))
        got = _psi_minus(payoff, x)
        assert _same([payoff.smoothness_margin(row) for row in x],
                     [reference_smoothness_margin(payoff, row) for row in x])
        with mock.patch.object(Payoff, "evaluate", reference_evaluate):
            assert _same(got, _psi_minus(payoff, x))
        for row, value in zip(x, got):
            try:
                per_kind = _psi_minus(payoff, row[None], reference_psi_minus)
            except TieBreak:
                continue
            assert _same(value, per_kind[0])

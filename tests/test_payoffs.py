import json
import pathlib

import numpy as np
import pytest

import levypricer as lp
from levypricer.payoffs import KINDS

PAYOFF_SPECS = sorted((pathlib.Path(__file__).parent.parent / "configs" / "payoffs").glob("*.json"))

RATES_FLAT = lp.Rates(r=0.05, delta=[0.0, 0.0])
G2 = lp.GaussianPart(a=[[0.04, 0.01], [0.01, 0.09]])
G1 = lp.GaussianPart(a=[[0.04]])


def catalog_payoffs():
    return [
        lp.Payoff.min_put(100.0, 2),
        lp.Payoff.index_put(100.0, [0.6, 0.4], 2),
        lp.Payoff.spread_put(10.0, [1.0, -1.0], 2),
        lp.Payoff.index_call(100.0, [0.5, 0.5], 2),
        lp.Payoff.spread_call(10.0, [1.0, -1.0], 2),
        lp.Payoff.max_call(100.0, 2),
        lp.Payoff.multi_strike([95.0, 105.0], 2),
        lp.Payoff.power_product(1.2, 1.5, 2),
    ]


class TestEvaluate:
    def test_min_put(self):
        p = lp.Payoff.min_put(100.0, 2)
        assert p.evaluate(np.array([90.0, 110.0])) == 10.0
        assert p.evaluate(np.array([120.0, 110.0])) == 0.0
        # orthant branch: any negative coordinate pins the payoff at K
        assert p.evaluate(np.array([-5.0, 110.0])) == 100.0

    def test_max_call(self):
        p = lp.Payoff.max_call(100.0, 2)
        assert p.evaluate(np.array([120.0, 80.0])) == 20.0
        assert p.evaluate(np.array([90.0, 80.0])) == 0.0

    def test_power_product_at_the_money(self):
        p = lp.Payoff.power_product(1.0, 2.0, 2)
        assert p.evaluate(np.array([1.0, 1.0])) == 0.0

    def test_index_put_orthant_branches(self):
        p = lp.Payoff.index_put(100.0, [0.5, 0.5], 2)
        assert p.evaluate(np.array([100.0, 100.0])) == 0.0
        assert p.evaluate(np.array([100.0, -50.0])) == 50.0   # (K - w1 x1)^+
        assert p.evaluate(np.array([-50.0, -50.0])) == 100.0  # K

    def test_vectorized(self):
        p = lp.Payoff.min_put(100.0, 2)
        x = np.array([[90.0, 110.0], [120.0, 130.0]])
        assert np.array_equal(p.evaluate(x), [10.0, 0.0])

    def test_nonnegative_everywhere(self, rng):
        x = rng.uniform(-300, 300, size=(10_000, 2))
        for p in catalog_payoffs():
            assert np.all(p.evaluate(x) >= 0.0)


class TestLogTransform:
    def test_min_put(self):
        p = lp.Payoff.min_put(100.0, 2)
        assert p.evaluate(np.exp(np.log([90.0, 110.0]))) == pytest.approx(10.0, rel=1e-14)

    def test_index_call_at_the_money(self):
        p = lp.Payoff.index_call(100.0, [1.0, 1.0], 2)
        assert p.evaluate(np.exp(np.log([50.0, 50.0]))) == pytest.approx(0.0, abs=1e-12)

    def test_power_product_direct(self):
        p = lp.Payoff.power_product(1.0, 2.0, 1)
        assert p.evaluate(np.exp(np.array([0.5]))) == pytest.approx(np.e - 1.0, rel=1e-14)


class TestGrowthExponent:
    def test_catalog_values(self):
        assert lp.Payoff.min_put(100.0, 2).growth_exponent() == 0.0
        assert lp.Payoff.index_put(100.0, [1.0, 1.0], 2).growth_exponent() == 0.0
        assert lp.Payoff.max_call(100.0, 2).growth_exponent() == 1.0
        assert lp.Payoff.spread_put(10.0, [1.0, -1.0], 2).growth_exponent() == 1.0
        assert lp.Payoff.power_product(1.0, 2.0, 3).growth_exponent() == 6.0

    def test_growth_bound_sampled(self, rng):
        x = rng.uniform(-200, 200, size=(10_000, 2))
        norms = np.linalg.norm(x, axis=-1)
        for p in catalog_payoffs():
            strikes = np.sum(np.atleast_1d(p.strike)) if p.strike is not None else 0.0
            weights = np.abs(p.weights).sum() if p.weights is not None else 0.0
            c = 2.0 * (1.0 + strikes + weights)
            bound = c * (1.0 + norms ** p.growth_exponent())
            assert np.all(p.evaluate(x) <= bound + 1e-9)


def test_convexity_on_positive_orthant(rng):
    # power-product with d >= 2 is genuinely not convex (see companion test),
    # so the sampling check covers the piecewise-affine catalog
    for p in catalog_payoffs():
        if p.kind == "power_product":
            continue
        x = rng.uniform(1.0, 200.0, size=(2000, 2))
        y = rng.uniform(1.0, 200.0, size=(2000, 2))
        theta = rng.uniform(0.0, 1.0, size=(2000, 1))
        mid = p.evaluate(theta * x + (1 - theta) * y)
        chord = theta[:, 0] * p.evaluate(x) + (1 - theta[:, 0]) * p.evaluate(y)
        assert np.all(mid <= chord + 1e-12)


def test_power_product_convex_only_in_one_dimension(rng):
    p1 = lp.Payoff.power_product(1.0, 1.5, 1)
    x = rng.uniform(0.1, 5.0, size=(2000, 1))
    y = rng.uniform(0.1, 5.0, size=(2000, 1))
    theta = rng.uniform(0.0, 1.0, size=(2000, 1))
    mid = p1.evaluate(theta * x + (1 - theta) * y)
    chord = theta[:, 0] * p1.evaluate(x) + (1 - theta[:, 0]) * p1.evaluate(y)
    assert np.all(mid <= chord + 1e-12)
    # two assets: the product power rises above the chord between the
    # hyperbola points (4, 1/4) and (1/4, 4)
    p2 = lp.Payoff.power_product(1.2, 1.5, 2)
    a, b = np.array([4.0, 0.25]), np.array([0.25, 4.0])
    mid = p2.evaluate(0.5 * (a + b))
    chord = 0.5 * p2.evaluate(a) + 0.5 * p2.evaluate(b)
    assert mid > chord + 1.0


class TestPsiMinus:
    def test_min_put_no_dividends(self):
        p = lp.Payoff.min_put(100.0, 2)
        v = p.psi_minus(np.array([90.0, 110.0]), RATES_FLAT, G2)
        assert v == pytest.approx(5.0, rel=1e-14)

    def test_min_put_dividend_on_active_leg(self):
        p = lp.Payoff.min_put(100.0, 2)
        rates = lp.Rates(r=0.05, delta=[0.1, 0.0])
        v = p.psi_minus(np.array([90.0, 110.0]), rates, G2)
        assert v == 0.0  # (5 - 0.1 * 90)^+ clips at zero

    def test_max_call_active_leg(self):
        p = lp.Payoff.max_call(100.0, 2)
        rates = lp.Rates(r=0.05, delta=[0.1, 0.02])
        v = p.psi_minus(np.array([120.0, 80.0]), rates, G2)
        assert v == pytest.approx(7.0, rel=1e-14)

    def test_spread_call(self):
        p = lp.Payoff.spread_call(10.0, [1.0, -1.0], 2)
        rates = lp.Rates(r=0.02, delta=[0.03, 0.01])
        v = p.psi_minus(np.array([50.0, 30.0]), rates, G2)
        assert v == pytest.approx(1.0, rel=1e-14)

    def test_zero_outside_positive_payoff(self):
        p = lp.Payoff.min_put(100.0, 2)
        rates = lp.Rates(r=0.05, delta=[0.0, 0.0])
        assert p.psi_minus(np.array([150.0, 160.0]), rates, G2) == 0.0

    @pytest.mark.parametrize("payoff, tied, sign, delta", [
        (lp.Payoff.min_put(100.0, 2), [[90.0, 90.0], [50.0, 50.0], [150.0, 150.0]], -1.0, [0.01, 0.08]),
        (lp.Payoff.max_call(100.0, 2), [[110.0, 110.0], [300.0, 300.0], [90.0, 90.0]], 1.0, [0.08, 0.01]),
        (lp.Payoff.multi_strike([95.0, 105.0], 2), [[105.0, 115.0], [195.0, 205.0]], 1.0, [0.08, 0.01]),
    ], ids=["min_put", "max_call", "multi_strike"])
    def test_tie_takes_first_index(self, payoff, tied, sign, delta):
        # on a tie set (measure zero) the first tied asset is the active one:
        # +-(delta_0 x_0 - r K_0) on {psi > 0}; the second asset's yield
        # would give another value at the first two points
        rates = lp.Rates(r=0.05, delta=delta)
        x = np.array(tied)
        strike = np.broadcast_to(payoff.strike, (2,))
        first = sign * (rates.delta[0] * x[:, 0] - rates.r * strike[0])
        want = np.where(payoff.evaluate(x) > 0, np.maximum(first, 0.0), 0.0)
        got = payoff.psi_minus(x, rates, G2)
        assert got.tobytes() == want.tobytes()
        assert (got[:2] > 0).all()

    def test_min_put_point_and_support(self):
        p = lp.Payoff.min_put(100.0, 2)
        assert p.psi_minus(np.array([90.0, 110.0]), RATES_FLAT, G2) == pytest.approx(5.0)
        # zero off {psi > 0}
        assert p.psi_minus(np.array([120.0, 130.0]), RATES_FLAT, G2) == 0.0


class TestFdCheck:
    def test_min_put_affine_region(self):
        p = lp.Payoff.min_put(100.0, 2)
        closed, fd = p.psi_minus_fd_check(np.array([90.0, 110.0]), RATES_FLAT, G2, h=1e-3)
        assert fd == pytest.approx(5.0, abs=1e-6)
        assert abs(closed - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_index_call_dividend_stream(self):
        p = lp.Payoff.index_call(100.0, [1.0, 1.0], 2)
        rates = lp.Rates(r=0.0, delta=[0.05, 0.05])
        closed, fd = p.psi_minus_fd_check(np.array([80.0, 80.0]), rates, G2, h=1e-3)
        assert closed == pytest.approx(8.0, rel=1e-12)
        assert fd == pytest.approx(8.0, abs=1e-6)

    def test_power_product_coefficient(self):
        p = lp.Payoff.power_product(0.5, 2.0, 1)
        rates = lp.Rates(r=0.03, delta=[0.01])
        closed, fd = p.psi_minus_fd_check(np.array([2.0]), rates, G1, h=1e-4)
        assert abs(closed - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_kink_too_close(self):
        p = lp.Payoff.min_put(100.0, 2)
        with pytest.raises(lp.KinkTooClose):
            p.psi_minus_fd_check(np.array([99.9999, 110.0]), RATES_FLAT, G2, h=1e-3)

    def test_fd_adjudicates_power_product_coefficient(self):
        # heavy dividends make the benefit rate strictly positive so the
        # coefficient is visible: the half factors on a_ii and on the
        # quadratic sum are required, the variant without them disagrees
        # with the direct generator value
        p = lp.Payoff.power_product(0.5, 2.0, 2)
        rates = lp.Rates(r=0.03, delta=[0.4, 0.4])
        gauss = lp.GaussianPart(a=[[0.09, 0.0], [0.0, 0.09]])
        x = np.array([1.5, 1.3])
        closed, fd = p.psi_minus_fd_check(x, rates, gauss, h=1e-5)
        printed, _ = p.psi_minus_fd_check(x, rates, gauss, h=1e-5,
                                          printed_power_coeff=True)
        assert fd > 1.0
        assert abs(closed - fd) <= 1e-6 * max(1.0, abs(fd))
        assert abs(printed - fd) > 1e-3 * max(1.0, abs(fd))


def _random_smooth_points(payoff, rng, n, h):
    if payoff.kind == "power_product":
        lo, hi = 0.6, 2.0
    else:
        lo, hi = 20.0, 200.0
    out = []
    while len(out) < n:
        x = rng.uniform(lo, hi, size=payoff.dim)
        if payoff.smoothness_margin(x) > 2.5 * h:
            out.append(x)
    return out


def test_closed_forms_match_fd_at_random_smooth_points(rng):
    heavy = lp.Rates(r=0.03, delta=[0.4, 0.35])  # makes the power benefit positive
    flat = lp.Rates(r=0.04, delta=[0.03, 0.015])
    for payoff in catalog_payoffs():
        power = payoff.kind == "power_product"
        # step scales with the price so second differences of affine pieces
        # do not amplify round-off through the x^2-weighted Hessian terms
        h = 1e-4 if power else 0.05
        rates = heavy if power else flat
        gauss = lp.GaussianPart(a=[[0.09, 0.0], [0.0, 0.09]]) if power else G2
        for x in _random_smooth_points(payoff, rng, 100, h):
            closed, fd = payoff.psi_minus_fd_check(x, rates, gauss, h=h)
            assert abs(closed - fd) <= 1e-6 * max(1.0, abs(fd)), \
                f"{payoff.kind} at {x}: closed={closed} fd={fd}"


def test_payoff_json_roundtrip():
    for p in catalog_payoffs():
        spec = json.loads(json.dumps(p.to_dict()))
        again = lp.payoff_from_dict(spec)
        assert again.kind == p.kind
        assert again.to_dict() == spec
        x = np.array([55.0, 70.0])
        assert again.evaluate(x) == p.evaluate(x)
    assert PAYOFF_SPECS
    for path in PAYOFF_SPECS:  # the shipped specs read back exactly
        spec = json.loads(path.read_text())
        assert lp.payoff_from_dict(spec).to_dict() == spec, path.name


SPECS = {p.kind: p.to_dict() for p in catalog_payoffs() + [lp.Payoff.constant(5.0, 2)]}


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, keys in KINDS.items()
                                       for key in ("dim", *keys)])
def test_spec_missing_a_key_names_kind_and_key(kind, key):
    spec = {k: v for k, v in SPECS[kind].items() if k != key}
    with pytest.raises(ValueError, match=f"{kind} payoff needs key '{key}'"):
        lp.payoff_from_dict(spec)


def test_spec_rejects_malformed_kind_and_keys():
    with pytest.raises(ValueError, match="unknown payoff kind 'min_call'"):
        lp.payoff_from_dict({"kind": "min_call", "dim": 1, "K": 100.0})
    with pytest.raises(ValueError, match="min_put payoff takes no key 'w'"):
        lp.payoff_from_dict({"kind": "min_put", "dim": 2, "K": 100.0, "w": [1.0, 1.0]})
    with pytest.raises(ValueError, match="unknown payoff key.* weights"):
        lp.payoff_from_dict({"kind": "index_put", "dim": 2, "K": 100.0, "weights": [1.0, 1.0]})
    with pytest.raises(ValueError, match="min_put payoff needs 1 number.* 'K'"):
        lp.payoff_from_dict({"kind": "min_put", "dim": 1, "K": [100.0]})


@pytest.mark.parametrize("dim", [2.5, [2], True, "2", 0, -1])
def test_spec_dim_must_be_a_whole_number(dim):
    # a fractional dim once priced silently as its integer part
    with pytest.raises(ValueError, match="dim must be a whole number"):
        lp.payoff_from_dict({"kind": "min_put", "dim": dim, "K": 100.0})
    with pytest.raises(ValueError, match="dim must be a whole number"):
        lp.Payoff.max_call(100.0, dim)
    assert lp.Payoff.min_put(100.0, np.int64(2)).dim == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("spec, key", [
    (lambda x: {"kind": "max_call", "dim": 1, "K": x}, "K"),
    (lambda x: {"kind": "multi_strike", "dim": 2, "K": [100.0, x]}, "K"),
    (lambda x: {"kind": "index_call", "dim": 2, "K": 100.0, "w": [0.5, x]}, "w"),
    (lambda x: {"kind": "power_product", "dim": 1, "K": 100.0, "gamma": x}, "gamma"),
    (lambda x: {"kind": "constant", "dim": 1, "c": x}, "c")],
    ids=["K", "K-vector", "w", "gamma", "c"])
def test_non_finite_payoff_reals_are_refused(spec, key, bad):
    # a NaN strike once printed NaN prices with exit 0
    with pytest.raises(ValueError, match=f"payoff key '{key}' must be finite"):
        lp.payoff_from_dict(spec(bad))


def test_evaluate_rejects_points_of_another_dimension():
    with pytest.raises(ValueError, match="1 asset"):
        lp.Payoff.min_put(100.0, 1).evaluate(np.array([[90.0, 90.0]]))
    with pytest.raises(ValueError, match="2 asset"):
        lp.Payoff.max_call(100.0, 2).evaluate(np.array([90.0]))


def test_constructor_validation():
    with pytest.raises(ValueError):
        lp.Payoff.power_product(1.0, 1.0, 2)   # exponent must exceed 1
    with pytest.raises(ValueError):
        lp.Payoff.index_put(100.0, [0.5, -0.5], 2)  # negative index weight
    with pytest.raises(ValueError):
        lp.Payoff.multi_strike([100.0], 2)     # one strike per asset

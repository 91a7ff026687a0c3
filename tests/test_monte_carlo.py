import pathlib
import tracemalloc

import numpy as np
import pytest

import levypricer as lp
from levypricer.model import simulate_log_blocks
from levypricer.monte_carlo import (MCConfig, RegressionBasis, _estimate, _fit_continuation,
                                    estimate_premium_mc, premium_sweep, price_american_ls,
                                    price_european_mc)
from levypricer.payoffs import MAX_CALL, MIN_PUT, MULTI_STRIKE, _across
from levypricer.pide import Grid, SolverConfig, interp_level, lattice_cells
from oracles import bs_put, crr_american_put

SPOT = 100.0
CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


class TestEuropean:
    def test_black_scholes(self, bs_model, put_1d):
        est = price_european_mc(bs_model, put_1d, 0.0, [SPOT], 1.0, 1_000_000, seed=41)
        exact = bs_put(SPOT, 100.0, 1.0, 0.05, 0.2)
        assert abs(est.mean - exact) < 3 * est.stderr
        assert est.stderr < 0.02

    def test_constant_payoff_exact(self, bs_model):
        const = lp.Payoff.constant(3.0, 1)
        est = price_european_mc(bs_model, const, 0.0, [SPOT], 2.0, 1000, seed=1)
        assert est.mean == pytest.approx(3.0 * np.exp(-0.05 * 2.0), rel=1e-14)
        assert est.stderr < 1e-12  # all samples identical up to summation round-off

    def test_matches_pide_for_merton(self, merton_model, put_1d, merton_solves):
        _, _, _, eur = merton_solves
        est = price_european_mc(merton_model, put_1d, 0.0, [SPOT], 1.0, 400_000, seed=42)
        assert abs(est.mean - eur.value_at_spot()) < 3 * est.stderr + 1e-2

    def test_estimate_fields(self, bs_model, put_1d):
        est = price_european_mc(bs_model, put_1d, 0.0, [SPOT], 1.0, 5000, seed=4)
        assert est.n_paths == 5000 and est.seed == 4
        assert np.isfinite(est.mean) and est.stderr >= 0

    def test_estimate_fields_are_python_floats(self, bs_model, put_1d):
        for est in (price_european_mc(bs_model, put_1d, 0.0, [SPOT], 1.0, 2000, seed=4),
                    price_american_ls(bs_model, put_1d, 0.0, [SPOT], 1.0, 10, 2000,
                                      RegressionBasis(), seed=4)):
            assert type(est.mean) is float and type(est.stderr) is float


class TestLongstaffSchwartz:
    def test_binomial_oracle(self, bs_model, put_1d):
        est = price_american_ls(bs_model, put_1d, 0.0, [SPOT], 1.0, 50, 100_000,
                                RegressionBasis(), seed=43)
        crr = crr_american_put(SPOT, 100.0, 1.0, 0.05, 0.2, 5000)
        assert abs(est.mean - crr) < 0.01 * crr + 3 * est.stderr

    def test_zero_rates_reduce_to_european(self, zero_rate_model, put_1d):
        amer = price_american_ls(zero_rate_model, put_1d, 0.0, [SPOT], 1.0, 20,
                                 50_000, RegressionBasis(), seed=44)
        eur = price_european_mc(zero_rate_model, put_1d, 0.0, [SPOT], 1.0,
                                50_000, seed=45)
        combined = np.hypot(amer.stderr, eur.stderr)
        assert abs(amer.mean - eur.mean) < 3 * combined

    def test_ordering_dominates_european(self, merton_model, put_1d):
        amer = price_american_ls(merton_model, put_1d, 0.0, [SPOT], 1.0, 25,
                                 50_000, RegressionBasis(), seed=46)
        eur = price_european_mc(merton_model, put_1d, 0.0, [SPOT], 1.0,
                                50_000, seed=47)
        assert amer.mean >= eur.mean - 3 * np.hypot(amer.stderr, eur.stderr)

    def test_low_bias_vs_pide(self, merton_solves, merton_model, put_1d):
        _, _, amer_pide, _ = merton_solves
        est = price_american_ls(merton_model, put_1d, 0.0, [SPOT], 1.0, 50,
                                50_000, RegressionBasis(), seed=48)
        assert est.mean <= amer_pide.value_at_spot() + 3 * est.stderr

    def test_needs_enough_dates(self, bs_model, put_1d):
        with pytest.raises(ValueError):
            price_american_ls(bs_model, put_1d, 0.0, [SPOT], 1.0, 5, 1000,
                              RegressionBasis(), seed=0)

    def test_basis_shrinks_on_thin_itm_set(self, bs_model, caplog):
        # OTM put: with this seed 1-9 paths are in the money on 7 of the 11
        # dates (two of them single-path dates), so the degree must shrink
        # without crashing and the estimate stays finite
        po = lp.Payoff.min_put(70.0, 1)
        import logging
        with caplog.at_level(logging.WARNING, logger="levypricer.monte_carlo"):
            est = price_american_ls(bs_model, po, 0.0, [SPOT], 1.0, 12, 512,
                                    RegressionBasis(degree=3), seed=49)
        assert any("smaller than basis" in r.getMessage() for r in caplog.records)
        assert np.isfinite(est.mean) and est.mean >= 0

    def test_constant_payoff_exercised_at_first_date(self, bs_model):
        # psi is collinear with the intercept on every date; the fit must
        # still reproduce the continuation, so every path exercises at k = 1
        const = lp.Payoff.constant(5.0, 1)
        est = price_american_ls(bs_model, const, 0.0, [SPOT], 1.0, 10, 2000, seed=3)
        assert abs(est.mean - 5.0 * np.exp(-0.005)) < 1e-12
        assert est.stderr == 0.0

    def test_deep_itm_immediate_exercise_region(self, bs_model):
        po = lp.Payoff.min_put(200.0, 1)
        est = price_american_ls(bs_model, po, 0.0, [SPOT], 1.0, 25, 20_000,
                                RegressionBasis(), seed=50)
        # deep ITM American put is worth at least intrinsic
        assert est.mean >= 100.0 - 3 * est.stderr - 1.0

    def test_one_design_per_date_and_pass(self, bs_model, put_1d, monkeypatch):
        # at the money every date has hundreds of ITM paths, more than the
        # 5 columns, so each pass builds each date's design exactly once
        builds = []
        design = RegressionBasis.design

        def counting(self, *args):
            builds.append(args)
            return design(self, *args)

        monkeypatch.setattr(RegressionBasis, "design", counting)
        n_steps = 12
        price_american_ls(bs_model, put_1d, 0.0, [SPOT], 1.0, n_steps, 2000,
                          RegressionBasis(degree=3), seed=5)
        assert len(builds) == 2 * (n_steps - 1)

    def test_basis_design_columns(self):
        basis = RegressionBasis(degree=3)
        assert basis.n_columns(1) == 5   # 1, z, z^2, z^3, psi
        assert basis.n_columns(2) == 11  # 10 monomials + psi
        z = np.random.default_rng(0).normal(size=(50, 2))
        design = basis.design(z, np.abs(z[:, 0]), np.zeros(2))
        assert design.shape == (50, 11)


class TestFitContinuation:
    CENTER = np.array([4.6])

    def _fit(self, z, pay, target):
        basis = RegressionBasis(degree=3)
        design = basis.design(z, pay, self.CENTER)
        return design, _fit_continuation(basis, design, 1, target)

    def test_collinear_payoff_column_fits_at_full_degree(self):
        z = np.linspace(4.0, 5.0, 50)[:, None]
        target = np.full(50, 4.75)
        design, (cols, coef) = self._fit(z, np.full(50, 5.0), target)
        assert cols == [0, 1, 2, 3, -1]
        np.testing.assert_allclose(design[:, cols] @ coef, target, rtol=0, atol=1e-12)

    def test_thin_set_shrinks_degree(self):
        z = np.array([[4.5], [4.6], [4.7]])
        _, (cols, coef) = self._fit(z, np.array([3.0, 2.0, 1.0]), np.array([2.5, 2.0, 1.5]))
        assert cols == [0, 1, -1] and coef.shape == (3,)

    def test_single_row_gives_no_fit(self):
        _, fit = self._fit(np.array([[4.5]]), np.array([3.0]), np.array([2.5]))
        assert fit is None


class TestPremiumEstimator:
    def test_zero_for_zero_rates(self, zero_rate_solves, zero_rate_model, put_1d):
        grid, _, amer, _ = zero_rate_solves
        est = estimate_premium_mc(zero_rate_model, put_1d, amer, 0.0, [SPOT], 1.0,
                                  20_000, grid.n_time, seed=51)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_bs_premium_matches_oracles(self, bs_solves, bs_model, put_1d):
        grid, _, amer, _ = bs_solves
        est = estimate_premium_mc(bs_model, put_1d, amer, 0.0, [SPOT], 1.0,
                                  100_000, grid.n_time, seed=52)
        crr = crr_american_put(SPOT, 100.0, 1.0, 0.05, 0.2, 5000)
        exact_eur = bs_put(SPOT, 100.0, 1.0, 0.05, 0.2)
        target = crr - exact_eur
        assert abs(est.mean - target) < max(0.005 * crr, 3 * est.stderr)

    def test_integrand_nonnegative_on_exercise_set(self, merton_solves, merton_model,
                                                   put_1d):
        # Psi^- - L_I u >= 0 on the sampled exercise region
        grid, op, amer, _ = merton_solves
        k = grid.n_time // 2
        mask = amer.exercise_set[k]
        assert mask.any()
        prices = np.exp(grid.axes[0][mask])
        psim = put_1d.psi_minus(prices[:, None], merton_model.rates,
                                merton_model.gaussian)
        jf = amer.jump_field[k][mask]
        assert (psim - jf).min() > -1e-3

    def test_band_holds_inside_exercised_cells_of_a_convex_payoff(self):
        # u = psi at every node for a max-call, convex in log price: at a
        # cell midpoint the chord of psi lies far above psi, yet every
        # in-the-money path point is in the band
        model = lp.LevyModel(lp.GaussianPart(a=[[0.04]]), lp.JumpSpec(0.0),
                             lp.Rates(r=0.02, delta=[0.08]))
        payoff = lp.Payoff.max_call(100.0, 1)
        grid = lp.build_grid(model, payoff, [SPOT], 1.0, 51, 10, beta=4.0, trunc_tol=1e-5)
        psi = payoff.evaluate(np.exp(grid.mesh()))
        values = np.repeat(psi[None], grid.n_time + 1, axis=0)
        sol = lp.Solution(grid=grid, model=model, kind="american", payoff=payoff, values=values,
                          obstacle=psi, exercise_set=values > 0,
                          jump_field=np.zeros_like(values))
        tol = 1e-6
        z = grid.axes[0]
        j = np.flatnonzero(psi > 0)[0]
        mid = np.array([[0.5 * (z[j] + z[j + 1])]])
        psi_mid = payoff.evaluate(np.exp(mid))[0]
        cells = lattice_cells(grid, mid)
        assert interp_level(values, grid, 0, cells)[0] - psi_mid > 1e3 * tol * (1.0 + psi_mid)
        assert interp_level(values - psi, grid, 0, cells)[0] == 0.0
        out, exit_fraction = premium_sweep(sol, [SPOT], 4000, seed=3, exercise_tols=(tol,))
        want = np.zeros(4000)
        for lo, block in simulate_log_blocks(model, np.array([SPOT]), 0.0, 1.0, grid.n_time,
                                             4000, 3):
            for k in range(grid.n_time):
                psim = payoff.psi_minus(np.exp(block[:, k]), model.rates, model.gaussian)
                want[lo:lo + block.shape[0]] += np.exp(-0.02 * grid.times[k]) * psim * grid.dt
        assert exit_fraction == 0.0
        assert want.mean() > 0.1
        assert out[tol].mean == pytest.approx(want.mean(), rel=1e-12)

    def test_time_grid_must_match(self, bs_solves, bs_model, put_1d):
        grid, _, amer, _ = bs_solves
        with pytest.raises(ValueError):
            estimate_premium_mc(bs_model, put_1d, amer, 0.0, [SPOT], 1.0,
                                1000, grid.n_time + 1, seed=0)

    def test_start_time_must_be_zero(self, bs_solves, bs_model, put_1d):
        grid, _, amer, _ = bs_solves
        with pytest.raises(lp.OutOfDomain, match="T - s"):
            estimate_premium_mc(bs_model, put_1d, amer, 0.25, [SPOT], 1.0,
                                1000, grid.n_time, seed=0)

    @pytest.mark.parametrize("payoff, T", [(lp.Payoff.max_call(100.0, 1), 1.0),
                                           (lp.Payoff.min_put(100.0, 1), 0.5)],
                             ids=["payoff", "maturity"])
    def test_solution_for_another_payoff_or_maturity_rejected(self, bs_solves, bs_model,
                                                              payoff, T):
        # a put solution read for a call put no path in the band: the
        # estimate came out 0.0 with no error
        grid, _, amer, _ = bs_solves
        with pytest.raises(ValueError, match="solution was solved for"):
            estimate_premium_mc(bs_model, payoff, amer, 0.0, [SPOT], T,
                                1000, grid.n_time, seed=0)

    def test_solution_for_another_model_rejected(self, bs_small_solves, merton_model, put_1d):
        # a Black-Scholes solution integrated along Merton paths returned
        # 0.5335 +- 0.0066 (20,000 paths, seed 1) with no error
        grid, _, amer, _ = bs_small_solves
        with pytest.raises(ValueError, match="american solution was solved for the model"):
            estimate_premium_mc(merton_model, put_1d, amer, 0.0, [SPOT], 1.0,
                                20_000, grid.n_time, seed=1)

    def test_european_solution_rejected(self, bs_small_solves, bs_model, put_1d):
        # European u < psi in the money put every path point in the band:
        # 0.8964 +- 0.0089 (20,000 paths, seed 1) against A - E 0.5059
        grid, _, _, eur = bs_small_solves
        with pytest.raises(ValueError, match="not a european one"):
            estimate_premium_mc(bs_model, put_1d, eur, 0.0, [SPOT], 1.0,
                                20_000, grid.n_time, seed=1)

    def test_grid_coverage_guard(self, bs_model, put_1d):
        # deliberately narrow lattice: most paths leave it
        grid = Grid(dim=1, T=1.0, n_space=51, n_time=20,
                    z_min=[np.log(SPOT) - 0.05], z_max=[np.log(SPOT) + 0.05],
                    z_center=[np.log(SPOT)])
        op = lp.assemble(bs_model, grid)
        amer = lp.solve_american_penalty(bs_model, put_1d, grid, op)
        with pytest.raises(lp.GridCoverageTooSmall):
            estimate_premium_mc(bs_model, put_1d, amer, 0.0, [SPOT], 1.0,
                                5000, 20, seed=53)

    def test_sweep_tolerance_keys(self, bs_solves, bs_model, put_1d):
        grid, _, amer, _ = bs_solves
        out, exit_fraction = premium_sweep(amer, [SPOT], 10_000, seed=54,
                                           exercise_tols=(1e-5, 1e-6))
        assert set(out) == {1e-5, 1e-6} and exit_fraction == 0.0
        assert out[1e-5].mean >= out[1e-6].mean - 1e-12  # wider band, larger set


class TestDeterminism:
    def test_european_thread_invariance(self, merton_model, put_1d):
        a = price_european_mc(merton_model, put_1d, 0.0, [SPOT], 1.0, 64_000,
                              seed=55, n_threads=1)
        b = price_european_mc(merton_model, put_1d, 0.0, [SPOT], 1.0, 64_000,
                              seed=55, n_threads=4)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_lsmc_thread_invariance(self, bs_model, put_1d):
        kw = dict(s=0.0, x=[SPOT], T=1.0, n_steps=15, n_paths=30_000,
                  basis=RegressionBasis(), seed=56)
        a = price_american_ls(bs_model, put_1d, n_threads=1, **kw)
        b = price_american_ls(bs_model, put_1d, n_threads=3, **kw)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_premium_thread_invariance(self, bs_solves, bs_model, put_1d):
        grid, _, amer, _ = bs_solves
        kw = dict(n_paths=20_000, n_steps=grid.n_time, seed=57)
        a = estimate_premium_mc(bs_model, put_1d, amer, 0.0, [SPOT], 1.0,
                                n_threads=1, **kw)
        b = estimate_premium_mc(bs_model, put_1d, amer, 0.0, [SPOT], 1.0,
                                n_threads=4, **kw)
        assert a.mean == b.mean and a.stderr == b.stderr


def test_mc_config_roundtrip():
    cfg = MCConfig(n_paths=5000, n_steps=25, seed=99, basis_degree=2)
    again = MCConfig.from_dict(cfg.to_dict())
    assert (again.n_paths, again.n_steps, again.seed, again.basis_degree) == \
        (5000, 25, 99, 2)


def test_mc_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match=r"n_path\b") as err:
        MCConfig.from_dict({"n_path": 2000})
    assert "n_threads" in str(err.value).split("known fields:")[1]
    assert MCConfig.from_dict({"n_threads": 2}).n_threads == 2


# --------------------------------------------------------------------------- #
# Premium sweep compaction
# --------------------------------------------------------------------------- #

def _tie_mask(payoff, x):
    """True where the active index of a best-of payoff is ambiguous."""
    if payoff.dim < 2 or payoff.kind not in (MIN_PUT, MAX_CALL, MULTI_STRIKE):
        return np.zeros(x.shape[:-1], dtype=bool)
    v = x - payoff.strike if payoff.kind == MULTI_STRIKE else x
    best = _across(np.minimum if payoff.kind == MIN_PUT else np.maximum, v)
    return _across(np.add, (v == best[..., None]).view(np.int8)) > 1


def _untie(payoff, prices):
    """The jitter the sweep once applied: column j of each tied row scaled by
    1 + (j + 1) 1e-12, so `psi_minus` never met a tie."""
    ties = _tie_mask(payoff, prices)
    if not np.any(ties):
        return prices
    out = prices.copy()
    out[ties] = out[ties] * (1.0 + 1e-12 * np.arange(1, prices.shape[-1] + 1))
    return out


def _row_by_row_sweep(model, payoff, solution, x, n_paths, seed, tols, n_threads):
    """Reference premium sweep: the integrand on every inside path at every
    step, zero outside the band, accumulated through a mask, with tied prices
    jittered off the tie set first.  The band holds where the smaller of
    interp(u) - psi and interp(u - psi) is within the tolerance."""
    grid = solution.grid
    gap_field = solution.values - solution.obstacle
    integrals = {tol: np.empty(n_paths) for tol in tols}
    exited = 0
    for lo, block in simulate_log_blocks(model, np.asarray(x, dtype=float), 0.0, grid.T,
                                         grid.n_time, n_paths, seed, n_threads=n_threads):
        nb = block.shape[0]
        acc = {tol: np.zeros(nb) for tol in tols}
        inside = np.ones(nb, dtype=bool)
        for k in range(grid.n_time):
            zk = block[:, k, :]
            inside &= np.all((zk >= grid.z_min) & (zk <= grid.z_max), axis=-1)
            if not inside.any():
                break
            zin = zk[inside]
            prices = _untie(payoff, np.exp(zin))
            psi = payoff.evaluate(prices)
            psim = payoff.psi_minus(prices, model.rates, model.gaussian)
            cells = lattice_cells(grid, zin)
            gap = np.minimum(interp_level(solution.values, grid, k, cells) - psi,
                             interp_level(gap_field, grid, k, cells))
            jf = interp_level(solution.jump_field, grid, k, cells)
            disc = np.exp(-model.rates.r * grid.times[k])
            payload = disc * (psim > 0) * (psim - jf) * grid.dt
            for tol in tols:
                in_band = gap <= tol * (1.0 + psi)
                acc[tol][inside] += np.where(in_band, payload, 0.0)
        exited += int(nb - inside.sum())
        for tol in tols:
            integrals[tol][lo:lo + nb] = acc[tol]
    return {tol: _estimate(v, n_paths, seed) for tol, v in integrals.items()}, exited / n_paths


@pytest.fixture(scope="module")
def small_american(merton_model, put_1d, merton2d_model, min_put_2d):
    cases = {"merton1d": (merton_model, put_1d, [SPOT], 1.0, 201, 50, 4.0),
             "merton2d": (merton2d_model, min_put_2d, [SPOT, SPOT], 0.5, 61, 10, 5.0)}
    out = {}
    for name, (model, payoff, spot, T, n_space, n_time, beta) in cases.items():
        cfg = SolverConfig(n_space=n_space, n_time=n_time, beta=beta, trunc_tol=1e-5)
        _, _, amer, _ = lp.solve_pair(model, payoff, spot, T, cfg)
        out[name] = (model, payoff, spot, amer)
    return out


class TestSpotAndPayoffDimension:
    """Every estimator simulates through `simulate_log_blocks`, which checks
    the spot's length; `Payoff.evaluate` checks the payoff's dimension."""

    def test_short_spot_rejected_by_every_estimator(self, small_american):
        model, payoff, _, amer = small_american["merton2d"]
        estimators = [
            lambda: price_european_mc(model, payoff, 0.0, [90.0], 0.5, 4000, 1),
            lambda: price_american_ls(model, payoff, 0.0, [90.0], 0.5, 10, 4000, seed=1),
            lambda: estimate_premium_mc(model, payoff, amer, 0.0, [90.0], 0.5, 4000, 10, seed=1),
        ]
        for estimate in estimators:
            with pytest.raises(ValueError, match="spot has 1 coordinate"):
                estimate()

    def test_one_asset_payoff_on_two_asset_model(self, merton2d_model, put_1d):
        with pytest.raises(ValueError, match="1 asset"):
            price_european_mc(merton2d_model, put_1d, 0.0, [SPOT, SPOT], 0.5, 4000, 1)


class TestPremiumCompaction:
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("case", ["merton1d", "merton2d"])
    def test_band_rows_match_row_by_row_reference(self, small_american, case, n_threads):
        model, payoff, spot, amer = small_american[case]
        tols = (1e-5, 1e-6, 1e-7)
        ref, exit_fraction = _row_by_row_sweep(model, payoff, amer, spot, 4000, 61, tols,
                                               n_threads)
        # a repeated tolerance must not be accumulated twice
        out, exited = premium_sweep(amer, spot, 4000, seed=61,
                                    exercise_tols=tols + (1e-6,), n_threads=n_threads)
        assert exited == exit_fraction
        for tol in tols:
            assert (out[tol].mean, out[tol].stderr) == (ref[tol].mean, ref[tol].stderr), tol
        assert out[1e-5].mean > 0

    @pytest.mark.parametrize("payoff, tied", [
        (lp.Payoff.min_put(100.0, 2), [[90.0, 90.0], [50.0, 50.0], [99.5, 99.5]]),
        (lp.Payoff.max_call(100.0, 2), [[110.0, 110.0], [150.0, 150.0]]),
    ])
    def test_untie_leaves_psi_minus_no_tie(self, merton2d_model, payoff, tied):
        # the reference sweep's jitter moves tied rows off the tie set, keeps
        # them in the money and leaves untied rows as they are
        prices = np.array(tied + [[90.0, 110.0]])
        assert _tie_mask(payoff, prices).tolist() == [True] * len(tied) + [False]
        untied = _untie(payoff, prices)
        assert not _tie_mask(payoff, untied).any()
        assert (payoff.evaluate(untied[:-1]) > 0).all()
        assert np.array_equal(untied[-1], prices[-1])
        psim = payoff.psi_minus(untied, merton2d_model.rates, merton2d_model.gaussian)
        assert np.isfinite(psim).all()

    # the identity-minput2d job, and spots on the tie set of each best-of
    # payoff in the money: the sweep no longer jitters ties, the reference does
    @pytest.mark.parametrize("payoff, spot, n_time, ladder", [
        *[(lp.Payoff.min_put(100.0, 2), [s, s], 20, (1e2, 1e3, 1e4))
          for s in (100.0, 60.0, 70.0, 80.0, 90.0)],
        *[(lp.Payoff.max_call(100.0, 2), [s, s], 10, (1e4,)) for s in (110.0, 300.0)],
        (lp.Payoff.multi_strike([95.0, 105.0], 2), [105.0, 115.0], 10, (1e4,)),
    ], ids=["minput-100", "minput-60", "minput-70", "minput-80", "minput-90",
            "maxcall-110", "maxcall-300", "multistrike-105-115"])
    def test_tied_spots_match_jittered_reference(self, merton2d_model, payoff, spot, n_time,
                                                 ladder):
        cfg = SolverConfig(n_space=61, n_time=n_time, beta=5.0, trunc_tol=1e-5,
                           penalty_ladder=ladder)
        _, _, amer, _ = lp.solve_pair(merton2d_model, payoff, spot, 0.5, cfg)
        tols = (1e-5, 1e-6, 1e-7)
        ref, exit_fraction = _row_by_row_sweep(merton2d_model, payoff, amer, spot, 16_384, 1,
                                               tols, 1)
        out, exited = premium_sweep(amer, spot, 16_384, seed=1, exercise_tols=tols)
        assert exited == exit_fraction
        for tol in tols:
            assert (out[tol].mean, out[tol].stderr) == (ref[tol].mean, ref[tol].stderr), tol


def test_lsmc_shrink_warned_once_per_date(bs_model, caplog):
    # OTM put, 200 paths, 10 dates: three dates shrink the degree-3 basis,
    # one to degree 2 and two single-path dates to no fit
    import logging
    with caplog.at_level(logging.WARNING, logger="levypricer.monte_carlo"):
        price_american_ls(bs_model, lp.Payoff.min_put(70.0, 1), 0.0, [SPOT], 1.0, 10, 200,
                          RegressionBasis(degree=3), seed=49)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 3
    assert all("smaller than basis (5); shrinking" in m for m in messages)
    assert sorted(m.rsplit("shrinking ", 1)[1] for m in messages) == \
        ["leaves no fit", "leaves no fit", "to degree 2"]


# --------------------------------------------------------------------------- #
# Time-major Longstaff-Schwartz store
# --------------------------------------------------------------------------- #

def _path_major_lsmc(model, payoff, x, T, n_steps, n_paths, basis, seed, n_threads):
    """Reference Longstaff-Schwartz: paths stored (n_paths, n_steps + 1, d), so
    each date is a strided slice, with boolean in-the-money masks."""
    x = np.asarray(x, dtype=float)
    center = np.log(np.atleast_1d(x))
    disc = np.exp(-model.rates.r * (T / n_steps))
    coefs = {}

    def backward(stream, fit):
        logs = np.empty((n_paths, n_steps + 1, model.dim))
        for lo, block in simulate_log_blocks(model, x, 0.0, T, n_steps, n_paths, seed,
                                             stream=stream, n_threads=n_threads):
            logs[lo:lo + block.shape[0]] = block
        cash = payoff.evaluate(np.exp(logs[:, -1, :]))
        for k in range(n_steps - 1, 0, -1):
            zk = logs[:, k, :]
            pay = payoff.evaluate(np.exp(zk))
            cash = cash * disc
            itm = pay > 0
            if not np.any(itm) or not (fit or k in coefs):
                continue
            design = basis.design(zk[itm], pay[itm], center)
            if fit:
                found = _fit_continuation(basis, design, model.dim, cash[itm])
                if found is None:
                    continue
                coefs[k] = found
            cols, coef = coefs[k]
            ex = pay[itm] >= design[:, cols] @ coef
            cash[itm] = np.where(ex, pay[itm], cash[itm])
        return cash * disc

    backward(0, True)
    return _estimate(backward(1, False), n_paths, seed)


@pytest.mark.parametrize("case, n_threads, n_paths", [
    ("kou1d", 1, 9000), ("merton1d", 1, 9000), ("merton1d", 2, 9000),
    ("merton2d", 1, 9000), ("constant", 1, 4),     # 4 paths shrink the basis to degree 2
])
def test_lsmc_matches_path_major_reference(request, case, n_threads, n_paths):
    model, payoff, spot = {
        "kou1d": ("kou_model", lp.Payoff.min_put(SPOT, 1), [SPOT]),
        "merton1d": ("merton_model", lp.Payoff.min_put(SPOT, 1), [SPOT]),
        "merton2d": ("merton2d_model", lp.Payoff.min_put(SPOT, 2), [SPOT, SPOT]),
        "constant": ("bs_model", lp.Payoff.constant(5.0, 1), [SPOT]),
    }[case]
    model = request.getfixturevalue(model)
    basis = RegressionBasis(degree=3)
    est = price_american_ls(model, payoff, 0.0, spot, 1.0, 20, n_paths, basis, seed=17,
                            n_threads=n_threads)
    ref = _path_major_lsmc(model, payoff, spot, 1.0, 20, n_paths, basis, 17, n_threads)
    assert (est.mean, est.stderr) == (ref.mean, ref.stderr)


def test_lsmc_holds_its_paths_once():
    # the simulated blocks are the only path store: no second copy of them,
    # and pass 1's paths are gone before pass 2 simulates
    model = lp.load_model(CONFIGS / "models" / "kou1d.json")
    payoff = lp.load_payoff(CONFIGS / "payoffs" / "put100_1d.json")
    n_paths, n_steps = 16_384, 50
    store = n_paths * (n_steps + 1) * model.dim * 8
    # a first small call does the one-time imports (numpy.random), so the
    # traced peak holds only what the call itself allocates
    price_american_ls(model, payoff, 0.0, [SPOT], 1.0, 10, 100, seed=1)
    tracemalloc.start()
    try:
        price_american_ls(model, payoff, 0.0, [SPOT], 1.0, n_steps, n_paths, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * store, f"peak {peak / store:.2f} x the path store"


# --------------------------------------------------------------------------- #
# Regression design by products
# --------------------------------------------------------------------------- #

def _pow_design(basis, z, payoff_vals, center):
    """Reference design: each monomial column by `**` (libm pow), stacked."""
    zc = z - center
    cols = []
    for e in basis.exponents(z.shape[1]):
        col = np.ones(z.shape[0])
        for i, p in enumerate(e):
            if p:
                col = col * zc[:, i] ** p
        cols.append(col)
    cols.append(payoff_vals)
    return np.column_stack(cols)


@pytest.mark.parametrize("dim, degree", [(1, 3), (2, 3), (2, 0), (3, 2)])
def test_design_matches_pow_reference_to_round_off(dim, degree):
    rng = np.random.default_rng(dim + degree)
    z, pay = rng.normal(4.6, 0.3, (500, dim)), rng.uniform(0.0, 10.0, 500)
    basis, center = RegressionBasis(degree=degree), np.full(dim, 4.6)
    design, ref = basis.design(z, pay, center), _pow_design(basis, z, pay, center)
    assert design.shape == ref.shape == (500, basis.n_columns(dim))
    assert design.flags.f_contiguous    # the layout lstsq and the exercise product read
    assert np.array_equal(design[:, -1], pay)
    assert np.allclose(design, ref, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("model, payoff, n_paths, n_steps, seed, n_threads", [
    ("kou1d", "put100_1d", 16_384, 50, 1, 1),
    ("kou1d", "put100_1d", 16_384, 50, 1, 2),
    ("merton1d", "put100_1d", 50_000, 25, 78, 1),
    ("bs1d", "put100_1d", 20_000, 50, 3, 1),
    ("empirical1d", "put100_1d", 20_000, 50, 4, 1),
    ("merton2d", "minput100_2d", 20_000, 50, 76, 1),
    ("merton2d", "maxcall100_2d", 20_000, 20, 77, 1),
    # the inputs of test_lsmc_shrink_warned_once_per_date: one date fits on
    # the sliced degree-2 columns, two fit nothing
    pytest.param("bs1d", lp.Payoff.min_put(70.0, 1), 200, 10, 49, 1, id="bs1d-otm70-shrinks"),
])
def test_lsmc_estimate_matches_pow_design(model, payoff, n_paths, n_steps, seed, n_threads,
                                          monkeypatch):
    # products differ from pow in the last bit of some design entries; the
    # estimate moves only if an exercise decision flips, and none does here
    model = lp.load_model(CONFIGS / "models" / f"{model}.json")
    if isinstance(payoff, str):
        payoff = lp.load_payoff(CONFIGS / "payoffs" / f"{payoff}.json")
    spot = [SPOT] * model.dim

    def run():
        return price_american_ls(model, payoff, 0.0, spot, 1.0, n_steps, n_paths,
                                 RegressionBasis(degree=3), seed, n_threads)

    est = run()
    monkeypatch.setattr(RegressionBasis, "design", _pow_design)
    ref = run()
    assert (est.mean, est.stderr) == (ref.mean, ref.stderr)


def test_full_degree_reads_the_design_in_place(bs_model, put_1d, monkeypatch):
    # at full degree lstsq and the exercise product get each date's design
    # itself, not a copy of its columns
    designs, fitted, applied = [], [], []
    design, lstsq = RegressionBasis.design, np.linalg.lstsq

    class Spied(np.ndarray):
        def __matmul__(self, other):
            applied.append(self)
            return np.asarray(self) @ other

    def spy_design(self, *args):
        designs.append(design(self, *args).view(Spied))
        return designs[-1]

    def spy_lstsq(a, *args, **kwargs):
        fitted.append(a)
        return lstsq(np.asarray(a), *args, **kwargs)

    monkeypatch.setattr(RegressionBasis, "design", spy_design)
    monkeypatch.setattr(np.linalg, "lstsq", spy_lstsq)
    n_steps = 12  # at the money: no date shrinks the basis
    price_american_ls(bs_model, put_1d, 0.0, [SPOT], 1.0, n_steps, 2000,
                      RegressionBasis(degree=3), seed=5)
    assert len(designs) == len(applied) == 2 * (n_steps - 1)
    assert len(fitted) == n_steps - 1
    assert all(np.shares_memory(a, d) for a, d in zip(fitted, designs))
    assert all(np.shares_memory(a, d) for a, d in zip(applied, designs))

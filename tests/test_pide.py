import dataclasses
import gc
import pathlib
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import binary_erosion

import levypricer as lp
from levypricer import pide
from levypricer.pide import SolverConfig, far_field_values, interp_level, lattice_cells
from oracles import (apply_jump_operator, beg_two_asset, bs_put, crr_american_put,
                     direct_step, merton_put_series, ndimage_exercise_band, scipy_fft_convolve_valid,
                     sparse_operator_1d, step_matrix_2d, stulz_two_asset, two_atom_put_series)
from test_payoff_properties import catalog

SPOT = 100.0
CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


class TestBuildGrid:
    def test_half_width_formula(self, bs_model, put_1d):
        grid = lp.build_grid(bs_model, put_1d, [SPOT], 1.0, 801, 400,
                             beta=2.0, trunc_tol=1e-8)
        allowance = abs(bs_model.log_drift[0]) * 1.0 + 5.0 * np.sqrt(0.04)
        want = np.log(1e8) / 2.0 + allowance
        assert (grid.z_max[0] - grid.z_center[0]) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(9.21 + 1.03, abs=0.01)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_grids_compare_by_value(self, bs_model, merton2d_model, put_1d, min_put_2d, dim):
        # the generated == raised "truth value ... is ambiguous" on every 2D grid
        model, payoff = (bs_model, put_1d) if dim == 1 else (merton2d_model, min_put_2d)

        def build(spot=SPOT, n_time=20):
            return lp.build_grid(model, payoff, [spot] * dim, 0.5, 51, n_time, beta=5.0,
                                 trunc_tol=1e-5)

        assert build() == build()
        assert build() != build(spot=90.0)
        assert build() != build(n_time=40)

    def test_spot_is_center_node(self, bs_model, put_1d):
        grid = lp.build_grid(bs_model, put_1d, [SPOT], 1.0, 801, 400, beta=2.0)
        assert grid.axes[0][grid.center_index[0]] == pytest.approx(np.log(SPOT), abs=1e-12)

    def test_one_asset_payoff_on_two_asset_model(self, merton2d_model, put_1d):
        cfg = SolverConfig(n_space=51, n_time=10, beta=5.0, trunc_tol=1e-5)
        with pytest.raises(ValueError, match="1 asset"):
            lp.solve_pair(merton2d_model, put_1d, [SPOT, SPOT], 0.5, cfg)

    def test_beta_must_dominate_growth(self, bs_model):
        power = lp.Payoff.power_product(1.0, 2.0, 1)  # growth exponent 2
        with pytest.raises(lp.BetaTooSmall):
            lp.build_grid(bs_model, power, [1.0], 1.0, 101, 20, beta=1.0)

    def test_size_preconditions(self, bs_model, put_1d):
        with pytest.raises(ValueError):
            lp.build_grid(bs_model, put_1d, [SPOT], 1.0, 49, 20, beta=2.0)
        with pytest.raises(ValueError):
            lp.build_grid(bs_model, put_1d, [SPOT], 1.0, 100, 20, beta=2.0)  # even
        with pytest.raises(ValueError):
            lp.build_grid(bs_model, put_1d, [SPOT], 1.0, 101, 5, beta=2.0)

    @pytest.mark.parametrize("spot, T, error, words", [
        ([-5.0], 1.0, lp.InvalidDomain, "spot"), ([np.nan], 1.0, lp.InvalidDomain, "spot"),
        ([np.inf], 1.0, lp.InvalidDomain, "spot"), ([SPOT], 0.0, ValueError, "maturity"),
        ([SPOT], -1.0, ValueError, "maturity"), ([SPOT], np.nan, ValueError, "maturity"),
        ([SPOT], np.inf, ValueError, "maturity")])
    def test_spot_and_maturity_rule(self, bs_model, put_1d, spot, T, error, words):
        # the rule `simulate_log_blocks` applies to T - s: T = 0 once divided
        # by zero here, and the others built a grid of NaN prices
        with pytest.raises(error, match=words):
            lp.build_grid(bs_model, put_1d, spot, T, 101, 20, beta=2.0)
        with pytest.raises(error, match=words):
            lp.simulate_paths(bs_model, 0.0, spot, T, 10, 100, seed=0)


class TestAssemble:
    def test_no_jumps_stencil_empty(self, bs_model, put_1d):
        grid = lp.build_grid(bs_model, put_1d, [SPOT], 1.0, 101, 20, beta=2.0)
        op = lp.assemble(bs_model, grid)
        assert op.lam == 0.0
        assert np.all(op.stencil == 0.0)

    def test_generator_kills_constants(self, merton_model, put_1d):
        grid = lp.build_grid(merton_model, put_1d, [SPOT], 1.0, 201, 50, beta=4.0,
                             trunc_tol=1e-5)
        op = lp.assemble(merton_model, grid)
        ones_ext = np.ones(grid.n_space + 2 * op.offsets[0])
        action = op.local @ np.ones(grid.shape) + op.convolve(ones_ext)
        interior = ~op.boundary_mask.reshape(grid.shape)
        assert np.abs(action[interior]).max() < 1e-10

    def test_full_generator_row_sum_is_minus_rate(self, merton_model, put_1d):
        grid = lp.build_grid(merton_model, put_1d, [SPOT], 1.0, 201, 50, beta=4.0,
                             trunc_tol=1e-5)
        op = lp.assemble(merton_model, grid)
        ones_ext = np.ones(grid.n_space + 2 * op.offsets[0])
        u = np.ones(grid.shape)
        action = op.local @ u + op.convolve(ones_ext) - merton_model.rates.r * u
        interior = ~op.boundary_mask.reshape(grid.shape)
        assert np.abs(action[interior] + merton_model.rates.r).max() < 1e-10

    def test_generator_on_price_gives_carry(self, merton_model, put_1d):
        # martingale identity: generator maps e^z to (r - delta) e^z
        grid = lp.build_grid(merton_model, put_1d, [SPOT], 1.0, 401, 50, beta=4.0,
                             trunc_tol=1e-5)
        op = lp.assemble(merton_model, grid)
        m = op.offsets[0]
        z = grid.axes[0]
        ext_z = np.concatenate([z[0] + grid.dz[0] * np.arange(-m, 0), z,
                                z[-1] + grid.dz[0] * np.arange(1, m + 1)])
        action = op.local @ np.exp(z) + op.convolve(np.exp(ext_z))
        target = (0.05 - 0.0) * np.exp(z)
        sl = slice(m + 5, -(m + 5))
        rel = np.abs(action[sl] / target[sl] - 1.0)
        assert rel.max() < 5e-4  # O(dz^2) + stencil quadrature

    def test_stencil_mass_and_sign(self, merton_model, kou_model, put_1d):
        for model in (merton_model, kou_model):
            grid = lp.build_grid(model, put_1d, [SPOT], 1.0, 201, 50, beta=2.0,
                                 trunc_tol=1e-5)
            op = lp.assemble(model, grid)
            assert np.all(op.stencil >= 0.0)
            assert op.stencil.sum() == pytest.approx(model.jumps.intensity, rel=1e-12)
            assert op.raw_mass_defect < 1e-3 * model.jumps.intensity

    def test_underflowing_intensity_is_named(self, put_1d):
        # 5e-324 times the Kou cell masses underflows to a stencil of zeros
        model = _drift_model(0.125, 0.0, 5e-324)
        grid = lp.build_grid(model, put_1d, [SPOT], 1.0, 201, 20, beta=4.0, trunc_tol=1e-5)
        with pytest.raises(lp.QuadratureTailTooHeavy, match=r"intensity 5e-324 .*use lambda = 0"):
            lp.assemble(model, grid)

    @pytest.mark.parametrize("n_space", [51, 201, 401])
    def test_intensity_rule_ignores_node_count(self, put_1d, n_space):
        # a subnormal intensity is refused and the smallest normal one
        # assembles, whatever the node count
        def grid_of(model):
            return lp.build_grid(model, put_1d, [SPOT], 1.0, n_space, 20, beta=4.0,
                                 trunc_tol=1e-5)

        model = _drift_model(0.125, 0.0, 5e-324)
        with pytest.raises(lp.QuadratureTailTooHeavy, match=r"intensity 5e-324 .*use lambda = 0"):
            lp.assemble(model, grid_of(model))
        tiny = np.finfo(float).tiny
        model = _drift_model(0.125, 0.0, tiny)
        assert lp.assemble(model, grid_of(model)).stencil.sum() > 0

    @pytest.mark.parametrize("name, missed", [("merton_model", "0.0154"), ("kou_model", "0.045")])
    def test_cut_jump_tail_is_refused(self, name, missed, put_1d, request):
        # rescaled to lambda before: the merton1d American moved 6.3072 -> 6.2781
        model = request.getfixturevalue(name)
        grid = lp.build_grid(model, put_1d, [SPOT], 1.0, 401, 100, beta=2.0, trunc_tol=1e-5,
                             y_max_tail=0.1)
        with pytest.raises(lp.QuadratureTailTooHeavy,
                           match=rf"misses {missed} of the jump mass .*y_max_tail 0.1; "
                                 r"lower y_max_tail$"):
            lp.assemble(model, grid, 0.1)

    def test_explicit_jump_cfl_guard(self, put_1d):
        jumps = lp.JumpSpec(30.0, lp.MertonNormal(mean=[0.0], cov=[[0.01]]))
        model = lp.LevyModel(lp.GaussianPart(a=[[0.04]]), jumps,
                             lp.Rates(r=0.0, delta=[0.0]))
        grid = lp.build_grid(model, put_1d, [SPOT], 1.0, 101, 20, beta=2.0)
        with pytest.raises(lp.SchemeNotMonotone, match=r"n_time >= 31\b"):
            lp.assemble(model, grid)


class TestSolveEuropean:
    def test_black_scholes_reduction(self, bs_solves):
        _, _, _, eur = bs_solves
        exact = bs_put(SPOT, 100.0, 1.0, 0.05, 0.2)
        assert abs(eur.value_at_spot() - exact) / exact < 1e-3

    def test_constant_payoff_discounts(self, bs_model):
        const = lp.Payoff.constant(7.0, 1)
        grid = lp.build_grid(bs_model, const, [SPOT], 1.0, 201, 50, beta=2.0)
        op = lp.assemble(bs_model, grid)
        sol = lp.solve_european(bs_model, const, grid, op)
        for k in (0, 10, 25):
            tau = grid.T - grid.times[k]
            want = 7.0 * np.exp(-0.05 * tau)
            interior = sol.values[k][5:-5]
            assert np.abs(interior - want).max() < 1e-8

    def test_merton_against_series(self, merton_solves):
        _, _, _, eur = merton_solves
        exact = merton_put_series(SPOT, 100.0, 1.0, 0.05, 0.1, -0.1, 0.15, 0.2)
        assert abs(eur.value_at_spot() - exact) / exact < 1.5e-3

    def test_empirical_against_series(self, put_1d):
        # the shipped two-atom law: the European approaches the exact series
        # from below as the grid refines, and the American stays above it
        model = lp.load_model(CONFIGS / "models" / "empirical1d.json")
        exact = two_atom_put_series(SPOT, 100.0, 1.0, 0.03, 0.01, 0.2, 0.5, 0.1, -0.08, 0.5)
        assert abs(exact - 7.252193) < 1e-6
        errors = []
        for n_space, n_time in ((201, 50), (401, 100), (801, 200)):
            cfg = SolverConfig(n_space=n_space, n_time=n_time, beta=4.0, trunc_tol=1e-5)
            _, _, amer, eur = lp.solve_pair(model, put_1d, [SPOT], 1.0, cfg)
            assert amer.value_at_spot() > eur.value_at_spot()
            errors.append(eur.value_at_spot() / exact - 1.0)
        assert errors[0] < errors[1] < errors[2] < 0  # measured -1.04e-2, -4.34e-3, -1.89e-3
        assert errors[2] > -2.5e-3

    def test_no_exercise_set(self, bs_solves):
        _, _, _, eur = bs_solves
        assert not eur.exercise_set.any()

    def test_terminal_condition_exact(self, bs_solves):
        _, _, _, eur = bs_solves
        assert np.array_equal(eur.values[-1], eur.obstacle)

    def test_jensen_forward_lower_bound(self, bs_solves, bs_model, put_1d):
        # convexity: European value dominates the discounted forward payoff
        grid, _, _, eur = bs_solves
        zmesh = grid.mesh()
        for k in (0, grid.n_time // 2):
            tau = grid.T - grid.times[k]
            lower = far_field_values(put_1d, bs_model, np.exp(zmesh), tau)
            assert (eur.values[k] - lower).min() > -5e-3


    @pytest.mark.parametrize("model, payoff, spot, T, n_space, n_time, beta", [
        ("merton_model", "put_1d", [SPOT], 1.0, 201, 50, 4.0),
        ("merton2d_model", "min_put_2d", [SPOT, SPOT], 0.5, 51, 10, 5.0)],
        ids=["merton1d", "merton2d"])
    def test_every_level_is_the_direct_step(self, model, payoff, spot, T, n_space, n_time,
                                           beta, request):
        model, payoff = request.getfixturevalue(model), request.getfixturevalue(payoff)
        grid = lp.build_grid(model, payoff, spot, T, n_space, n_time, beta, trunc_tol=1e-5)
        op = lp.assemble(model, grid)
        eur = lp.solve_european(model, payoff, grid, op)
        for k in range(grid.n_time):
            want = direct_step(op, payoff, eur.values[k + 1], k)
            assert np.abs(eur.values[k] - want).max() <= 1e-12 * np.abs(want).max(), k


class TestSolveAmerican:
    def test_against_binomial(self, bs_solves):
        _, _, amer, _ = bs_solves
        crr = crr_american_put(SPOT, 100.0, 1.0, 0.05, 0.2, 5000)
        assert abs(amer.value_at_spot() - crr) / crr < 5e-3

    def test_obstacle_nodewise(self, bs_solves, merton_solves, kou_solves,
                               minput2d_solves):
        for _, _, amer, _ in (bs_solves, merton_solves, kou_solves, minput2d_solves):
            gap = amer.values - amer.obstacle[None]
            assert gap.min() >= -1e-9 * (1.0 + amer.obstacle).max()

    def test_terminal_exact(self, bs_solves, merton_solves):
        for _, _, amer, _ in (bs_solves, merton_solves):
            assert np.array_equal(amer.values[-1], amer.obstacle)

    def test_dominates_european(self, bs_solves, merton_solves, kou_solves):
        for _, _, amer, eur in (bs_solves, merton_solves, kou_solves):
            assert (amer.values - eur.values).min() > -1e-8

    def test_zero_premium_when_rates_vanish(self, zero_rate_solves):
        _, _, amer, eur = zero_rate_solves
        assert np.abs(amer.values - eur.values).max() < 1e-8

    def test_penalty_ladder_monotone(self, merton_model, put_1d):
        grid = lp.build_grid(merton_model, put_1d, [SPOT], 1.0, 201, 50, beta=4.0,
                             trunc_tol=1e-5)
        op = lp.assemble(merton_model, grid)
        values = {}
        for n_pen in (1e2, 1e3, 1e4):
            sol = lp.solve_american_penalty(merton_model, put_1d, grid, op,
                                            penalty=(n_pen,))
            values[n_pen] = sol.values
        assert (values[1e3] - values[1e2]).min() > -1e-8
        assert (values[1e4] - values[1e3]).min() > -1e-8

    def test_ladder_decrease_is_refused(self, bs_small_solves, bs_model, put_1d, monkeypatch):
        grid, op, _, _ = bs_small_solves
        sweep = pide._penalty_sweep

        def lowered(operator, psi, far_field, n_pen):
            values, *rest = sweep(operator, psi, far_field, n_pen)
            if n_pen == 1e3:
                values[5, 0] -= 1e-6  # a boundary node: the far field, equal on every rung
            return (values, *rest)

        monkeypatch.setattr(pide, "_penalty_sweep", lowered)
        with pytest.raises(lp.PenaltyNonMonotone, match=r"decreased by 1e-06 from n=100 to n=1000$"):
            lp.solve_american_penalty(bs_model, put_1d, grid, op)

    def test_newton_cap_is_refused(self, bs_small_solves, bs_model, put_1d, monkeypatch):
        grid, op, _, _ = bs_small_solves
        monkeypatch.setattr(pide, "_NEWTON_CAP", 1)
        # the first level solved, k = n_time - 1, activates the in-the-money nodes
        with pytest.raises(lp.NewtonStall, match=rf"exceeded 1 at level {grid.n_time - 1}$"):
            lp.solve_american_penalty(bs_model, put_1d, grid, op)

    @pytest.mark.parametrize("solves", ["bs_solves", "minput2d_solves"])
    def test_exercise_set_is_the_source_rule(self, solves, request):
        _, _, amer, _ = request.getfixturevalue(solves)
        psi, ladder = amer.obstacle, amer.metadata["penalty_ladder"]
        assert ladder[-1] == 1e4
        want = (psi > amer.exercise_tol) & (amer.penalty_source > 1e4 * 1e-10 * (1.0 + psi))
        want[-1] = psi > 0
        assert want[:-1].any() and np.array_equal(amer.exercise_set, want)

    def test_each_rung_is_released_before_the_next(self, bs_small_solves, bs_model, put_1d,
                                                    monkeypatch):
        # weak references only: a rung's source and convolutions are released
        # before the next rung is swept
        grid, op, _, _ = bs_small_solves
        sweep, refs, alive = pide._penalty_sweep, [], []

        def tracked(*args):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            result = sweep(*args)
            refs[:] = [weakref.ref(result[1]), weakref.ref(result[2])]
            return result

        monkeypatch.setattr(pide, "_penalty_sweep", tracked)
        amer = lp.solve_american_penalty(bs_model, put_1d, grid, op)
        assert alive == [[], [False, False], [False, False]]
        assert refs[0]() is amer.penalty_source and refs[1]() is amer.jump_field

    def test_newton_counters_per_rung(self, bs_solves):
        grid, _, amer, _ = bs_solves
        solves = amer.metadata["newton_solves"]
        factorizations = amer.metadata["factorizations"]
        assert len(solves) == len(factorizations) == len(amer.metadata["penalty_ladder"])
        # every level solves at least once; the warm-started active set is
        # refactorized only on the levels where it moves
        assert all(n >= grid.n_time for n in solves)
        assert all(0 <= f < grid.n_time for f in factorizations)

    def test_pair_shares_step_factor_and_convolutions(self, merton_model, put_1d,
                                                      monkeypatch):
        calls = {"splu": 0, "convolve": 0}
        splu, convolve = pide.splu, pide.DiscreteOperator.convolve

        def counting_splu(*args, **kwargs):
            calls["splu"] += 1
            return splu(*args, **kwargs)

        def counting_convolve(self, extended):
            calls["convolve"] += 1
            return convolve(self, extended)

        monkeypatch.setattr(pide, "splu", counting_splu)
        monkeypatch.setattr(pide.DiscreteOperator, "convolve", counting_convolve)
        cfg = SolverConfig(n_space=201, n_time=50, beta=4.0, trunc_tol=1e-5)
        grid, op, amer, eur = lp.solve_pair(merton_model, put_1d, [SPOT], 1.0, cfg)
        # one step factor for both solves; one convolution per level and sweep,
        # plus level 0 of each stored jump field
        assert calls["splu"] == 1 + sum(amer.metadata["factorizations"])
        assert calls["convolve"] == (len(cfg.penalty_ladder) + 1) * grid.n_time + 2
        calls.update(splu=0, convolve=0)
        again = lp.solve_european(merton_model, put_1d, grid, op)
        assert calls == {"splu": 0, "convolve": grid.n_time + 1}
        assert np.array_equal(again.values, eur.values)

    def test_far_field_is_evaluated_once_per_solve(self, merton_model, put_1d, monkeypatch):
        # one table call each for the boundary and the ring, whatever the
        # number of levels or rungs
        calls, far_field = [], pide.far_field_values
        monkeypatch.setattr(pide, "far_field_values",
                            lambda *a, **kw: calls.append(1) or far_field(*a, **kw))
        counts = []
        for n_time, ladder in ((20, (1e4,)), (20, (1e2, 1e3, 1e4)), (50, (1e2, 1e3, 1e4))):
            grid = lp.build_grid(merton_model, put_1d, [SPOT], 1.0, 201, n_time, beta=4.0,
                                 trunc_tol=1e-5)
            op = lp.assemble(merton_model, grid)
            for solve in (lambda: lp.solve_american_penalty(merton_model, put_1d, grid, op, ladder),
                          lambda: lp.solve_european(merton_model, put_1d, grid, op)):
                calls.clear()
                solve()
                counts.append(len(calls))
        assert counts == [2] * 6

    def test_one_dimensional_solves_take_no_updates(self, bs_solves, merton_solves,
                                                    kou_solves):
        for _, _, amer, _ in (bs_solves, merton_solves, kou_solves):
            assert amer.metadata["update_columns"] == [0, 0, 0]

    @pytest.mark.parametrize("kind, ladder", [
        ("min_put", (1e2, 1e3, 1e4)),
        # the shipped ladder trips the monotonicity check on this max-call
        # with or without updates, so one rung
        ("max_call", (1e4,)),
    ])
    def test_low_rank_updates_match_refactorization(self, kind, ladder, merton2d_model,
                                                    monkeypatch):
        payoff = getattr(lp.Payoff, kind)(100.0, 2)
        grid = lp.build_grid(merton2d_model, payoff, [SPOT, SPOT], 0.5, 61, 10, beta=5.0,
                             trunc_tol=1e-5)
        op = lp.assemble(merton2d_model, grid)
        updated = lp.solve_american_penalty(merton2d_model, payoff, grid, op, penalty=ladder)
        monkeypatch.setattr(pide, "_update_budget", lambda grid: 0)  # refactor on every move
        direct = lp.solve_american_penalty(merton2d_model, payoff, grid, op, penalty=ladder)
        scale = np.abs(direct.values).max()
        assert np.abs(updated.values - direct.values).max() <= 1e-9 * scale
        assert np.array_equal(updated.exercise_set, direct.exercise_set)
        assert sum(updated.metadata["factorizations"]) < sum(direct.metadata["factorizations"])
        assert sum(updated.metadata["update_columns"]) > 0
        assert direct.metadata["update_columns"] == [0] * len(ladder)

    def test_benchmark_inputs_factorize_at_most_twice_per_rung(self, merton2d_model,
                                                               min_put_2d, monkeypatch):
        # merton2d min-put 61^2 x 20: refactorizing on every move of the
        # active set takes 44 penalized factorizations, low-rank updates 6
        calls, splu = [], pide.splu
        monkeypatch.setattr(pide, "splu", lambda *a, **kw: calls.append(1) or splu(*a, **kw))
        cfg = SolverConfig(n_space=61, n_time=20, beta=5.0, trunc_tol=1e-5)
        _, _, amer, _ = lp.solve_pair(merton2d_model, min_put_2d, [SPOT, SPOT], 0.5, cfg)
        assert sum(amer.metadata["factorizations"]) <= 6
        assert len(calls) == 1 + sum(amer.metadata["factorizations"])

    def test_active_sets_hold_no_zero_obstacle_node(self, merton2d_model, min_put_2d,
                                                    monkeypatch):
        # every node of a set the sweep solves with is in a factorized base
        # or has an update column; psi = 0 nodes are round-off, never active
        factorized, updated, splu = [], [], pide.splu

        class Recorder:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                if b.ndim == 2:
                    updated.append(np.flatnonzero(np.abs(b).sum(axis=1)))
                return self.lu.solve(b)

        def recording_splu(matrix):
            factorized.append(matrix)
            return Recorder(splu(matrix))

        monkeypatch.setattr(pide, "splu", recording_splu)
        grid = lp.build_grid(merton2d_model, min_put_2d, [SPOT, SPOT], 0.5, 61, 20, beta=5.0,
                             trunc_tol=1e-5)
        op = lp.assemble(merton2d_model, grid)
        amer = lp.solve_american_penalty(merton2d_model, min_put_2d, grid, op)
        psi = amer.obstacle.ravel()
        step = op.step_matrix.diagonal()
        sets = [np.flatnonzero(m.diagonal() != step) for m in factorized] + updated
        assert all(psi[s].min() > 0 for s in sets if s.size)
        assert len(factorized) == 1 + sum(amer.metadata["factorizations"])
        assert sum(s.size for s in updated) == sum(amer.metadata["update_columns"]) > 0

    @pytest.mark.parametrize("solves", ["merton_solves", "minput2d_solves"])
    def test_stored_jump_field_is_the_operator(self, solves, request):
        _, op, amer, eur = request.getfixturevalue(solves)
        for sol in (amer, eur):
            for k in range(sol.grid.n_time + 1):
                again = apply_jump_operator(sol, op, k)
                assert sol.jump_field[k].tobytes() == again.tobytes(), (sol.kind, k)

    def test_ladder_must_increase(self, bs_model, put_1d, bs_solves):
        grid, op, _, _ = bs_solves
        with pytest.raises(ValueError):
            lp.solve_american_penalty(bs_model, put_1d, grid, op, penalty=(1e3, 1e2))

    def test_merton_close_to_lsmc(self, merton_solves, merton_model, put_1d):
        from levypricer.monte_carlo import RegressionBasis, price_american_ls
        _, _, amer, _ = merton_solves
        est = price_american_ls(merton_model, put_1d, 0.0, [SPOT], 1.0, 50, 50_000,
                                RegressionBasis(), seed=21)
        tol = 0.01 * amer.value_at_spot() + 3.0 * est.stderr
        assert abs(est.mean - amer.value_at_spot()) < tol

    def test_penalty_source_bounded_by_benefit_rate(self, bs_solves, bs_model, put_1d):
        grid, _, amer, _ = bs_solves
        prices = np.exp(grid.axes[0])
        psim = put_1d.psi_minus(prices[:, None], bs_model.rates, bs_model.gaussian)
        worst = -np.inf
        for k in range(20, grid.n_time, 20):
            core = binary_erosion(amer.exercise_set[k], iterations=3)
            if core.any():
                worst = max(worst, float((amer.penalty_source[k][core]
                                          - psim[core] * 1.001).max()))
        assert worst <= 0.0


class TestOwnedCopies:
    """The operator owns its model and grid, the solution its model, payoff
    and grid: a copy handed in that differs from the owner's raises."""

    def test_european_for_another_model_rejected(self, bs_small_solves, merton_model, put_1d):
        # a Merton model on the Black-Scholes operator returned 5.5264, the
        # Black-Scholes price
        grid, op, _, _ = bs_small_solves
        with pytest.raises(ValueError, match="operator was assembled for the model"):
            lp.solve_european(merton_model, put_1d, grid, op)

    def test_american_on_another_grid_rejected(self, bs_small_solves, bs_model, put_1d):
        # a grid centred at 90 on the operator built at 100 returned 11.4568
        _, op, _, _ = bs_small_solves
        grid90 = lp.build_grid(bs_model, put_1d, [90.0], 1.0, 201, 40, beta=5.0, trunc_tol=1e-5)
        with pytest.raises(ValueError, match="operator was assembled for the grid"):
            lp.solve_american_penalty(bs_model, put_1d, grid90, op)

    def test_equal_copies_accepted(self, bs_small_solves, put_1d):
        # a second load of the same spec and a second build_grid call
        grid, op, _, eur = bs_small_solves
        model = lp.load_model(CONFIGS / "models" / "bs1d.json")
        again = lp.build_grid(model, put_1d, [SPOT], 1.0, 201, 40, beta=5.0, trunc_tol=1e-5)
        assert model is not op.model and again is not grid
        assert np.array_equal(lp.solve_european(model, put_1d, again, op).values, eur.values)

    def test_residual_for_another_payoff_rejected(self, bs_small_solves):
        # the K = 100 put solution read as K = 110 returned 2.70e-5; its own
        # residual is 8.69e-4
        _, op, amer, _ = bs_small_solves
        with pytest.raises(ValueError, match="american solution was solved for"):
            lp.complementarity_residual(amer, op, lp.Payoff.min_put(110.0, 1))

    def test_residual_on_another_operator_rejected(self, bs_small_solves, merton_model):
        grid, _, amer, _ = bs_small_solves
        with pytest.raises(ValueError, match="operator was assembled for the model"):
            lp.complementarity_residual(amer, lp.assemble(merton_model, grid), amer.payoff)


class TestFarFieldTables:
    @pytest.mark.parametrize("payoff", catalog(1) + catalog(2),
                             ids=lambda p: f"{p.kind}-{p.dim}d")
    def test_rows_are_the_per_level_values(self, payoff, merton_model, merton2d_model):
        # each row bitwise equals the scalar call at its level and the
        # discounted forward payoff spelled out, floored for the American
        model = merton_model if payoff.dim == 1 else merton2d_model
        grid = lp.build_grid(model, payoff, [SPOT] * payoff.dim, 0.5, 51, 10, beta=5.0,
                             trunc_tol=1e-5)
        op = lp.assemble(model, grid)
        r, carry = model.rates.r, model.rates.r - model.rates.delta
        tau = grid.T - grid.times
        for american in (False, True):
            tables = pide._far_field_tables(op, payoff, american)
            for prices, table in zip((op.boundary_prices, op.ring_prices), tables):
                assert table.shape == (grid.n_time + 1, len(prices)) and len(prices)
                floor = payoff.evaluate(prices) if american else None
                for k, t in enumerate(tau):
                    spelled = np.exp(-r * t) * payoff.evaluate(prices * np.exp(carry * t))
                    spelled = spelled if floor is None else np.maximum(spelled, floor)
                    assert table[k].tobytes() == spelled.tobytes(), (american, k)
                    assert table[k].tobytes() == far_field_values(
                        payoff, model, prices, t, floor).tobytes(), (american, k)


class TestResidual:
    def test_european_refinement(self, bs_model, put_1d):
        norms = []
        for ns, nt in ((201, 100), (401, 200)):
            grid = lp.build_grid(bs_model, put_1d, [SPOT], 1.0, ns, nt, beta=5.0,
                                 trunc_tol=1e-5)
            op = lp.assemble(bs_model, grid)
            eur = lp.solve_european(bs_model, put_1d, grid, op)
            _, norm = lp.complementarity_residual(eur, op, put_1d)
            norms.append(norm)
        assert norms[0] / norms[1] >= 1.5

    def test_american_refinement_with_jumps(self, merton_model, put_1d):
        norms = []
        for ns, nt in ((201, 100), (401, 200)):
            grid = lp.build_grid(merton_model, put_1d, [SPOT], 1.0, ns, nt, beta=4.0,
                                 trunc_tol=1e-5)
            op = lp.assemble(merton_model, grid)
            amer = lp.solve_american_penalty(merton_model, put_1d, grid, op)
            _, norm = lp.complementarity_residual(amer, op, put_1d)
            norms.append(norm)
        assert norms[0] / norms[1] >= 1.5

    @pytest.mark.parametrize("name, spot, T, cfg", [
        ("merton_model", [SPOT], 1.0, SolverConfig(n_space=201, n_time=40, beta=4.0, trunc_tol=1e-5)),
        ("merton2d_model", [SPOT, SPOT], 0.5, SolverConfig(n_space=61, n_time=20, beta=5.0,
                                                           trunc_tol=1e-5)),
    ])
    def test_reuses_the_stored_jump_field(self, name, spot, T, cfg, request, monkeypatch):
        model = request.getfixturevalue(name)
        payoff = lp.Payoff.min_put(100.0, model.dim)
        grid, op, amer, eur = lp.solve_pair(model, payoff, spot, T, cfg)
        calls, convolve = [], pide.DiscreteOperator.convolve
        monkeypatch.setattr(pide.DiscreteOperator, "convolve",
                            lambda self, ext: calls.append(1) or convolve(self, ext))
        for sol in (amer, eur):
            field, norm = lp.complementarity_residual(sol, op, payoff)
            assert not calls
            ref = _reference_residual(sol, op, payoff)
            calls.clear()
            assert np.array_equal(np.isnan(field), np.isnan(ref))
            assert np.nanmax(np.abs(field - ref)) <= 1e-13 * (1.0 + np.abs(sol.values).max())
            assert norm == np.nanmax(np.abs(field))

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(1,), (7,), (40,), (1, 9), (6, 5), (25, 31)]),
           st.floats(0.05, 0.95))
    @settings(max_examples=150, deadline=None)
    def test_exercise_band_matches_ndimage(self, seed, shape, density):
        # random 1D and 2D sets, edges and one-cell axes included
        ex = np.random.default_rng(seed).random(shape) < density
        assert np.array_equal(pide._exercise_band(ex), ndimage_exercise_band(ex, pide._KINK_LAYERS))

    def test_american_norm_scale(self, bs_solves, put_1d):
        grid, op, amer, _ = bs_solves
        _, norm = lp.complementarity_residual(amer, op, put_1d)
        scale = amer.obstacle.max()
        assert norm <= 10.0 * max(grid.dt, grid.dz.max() ** 2) * scale


def _reference_residual(solution, op, payoff, kink_layers=3, terminal_buffer=0.05):
    """complementarity_residual with the generator applied from scratch: the
    local part, a fresh convolution of the far-field-extended level, the rate."""
    grid, u, psi = solution.grid, solution.values, solution.obstacle
    a_max = float(np.diag(op.model.gaussian.a).max())
    margin = payoff.kink_margin_log(grid.mesh())
    american = solution.kind == "american"
    field = np.full((grid.n_time - 1, *grid.shape), np.nan)
    for k in range(1, grid.n_time):
        tau = grid.T - grid.times[k]
        if tau < terminal_buffer * grid.T:
            continue
        ring = far_field_values(payoff, op.model, op.ring_prices, tau,
                                payoff.evaluate(op.ring_prices) if american else None)
        gen = (op.local @ u[k].ravel()).reshape(grid.shape) + op.convolve(op.extend(u[k], ring)) \
            - op.model.rates.r * u[k]
        pde = -(u[k + 1] - u[k - 1]) / (2.0 * grid.dt) - gen
        res = np.minimum(pde, u[k] - psi) if american else pde
        mask = grid.interior & (margin >= max(kink_layers * grid.dz.max(), 4.0 * np.sqrt(a_max * tau)))
        if american:
            ex = solution.exercise_set[k]
            mask &= ~ndimage_exercise_band(ex, kink_layers)
        field[k - 1][mask] = res[mask]
    return field


class TestJumpOperator:
    def test_zero_on_constants(self, merton_solves, merton_model, put_1d):
        grid, op, amer, _ = merton_solves
        sol = lp.Solution(grid=grid, model=merton_model, kind="european", payoff=put_1d,
                          values=np.ones((grid.n_time + 1, *grid.shape)),
                          obstacle=amer.obstacle,
                          exercise_set=np.zeros((grid.n_time + 1, *grid.shape), bool),
                          jump_field=np.zeros((grid.n_time + 1, *grid.shape)))
        # constant far field: override with constant payoff solution instead
        const = lp.Payoff.constant(1.0, 1)
        sol = lp.Solution(grid=grid, model=merton_model, kind="european", payoff=const,
                          values=sol.values, obstacle=np.ones(grid.shape),
                          exercise_set=sol.exercise_set, jump_field=sol.jump_field)
        field = apply_jump_operator(sol, op, grid.n_time)
        # tau = 0 at the terminal level so the far-field frame is exactly 1
        assert np.abs(field).max() < 1e-10

    def test_kills_linear_price(self, put_1d):
        # compensated integral vanishes on u(x) = x; at tau = 0 the far-field
        # extension of the identity payoff is exact
        jumps = lp.JumpSpec(0.1, lp.MertonNormal(mean=[-0.1], cov=[[0.0225]]))
        model = lp.LevyModel(lp.GaussianPart(a=[[0.04]]), jumps,
                             lp.Rates(r=0.0, delta=[0.0]))
        ident = lp.Payoff.index_call(0.0, [1.0], 1)  # psi(x) = x
        grid = lp.build_grid(model, ident, [SPOT], 1.0, 401, 50, beta=2.0,
                             trunc_tol=1e-5)
        op = lp.assemble(model, grid)
        n_levels = grid.n_time + 1
        prices = np.exp(grid.axes[0])
        vals = np.tile(prices, (n_levels, 1))
        sol = lp.Solution(grid=grid, model=model, kind="european", payoff=ident, values=vals,
                          obstacle=prices,
                          exercise_set=np.zeros((n_levels, *grid.shape), bool),
                          jump_field=np.zeros((n_levels, *grid.shape)))
        field = apply_jump_operator(sol, op, grid.n_time)
        m = op.offsets[0]
        sl = slice(m + 2, -(m + 2))
        rel = np.abs(field[sl]) / prices[sl]
        assert rel.max() < 5e-4  # quadrature + central-difference tolerance

    def test_matches_fine_quadrature(self, merton_solves, merton_model, merton_cfg, put_1d):
        grid, op, amer, _ = merton_solves
        level = 0
        field = amer.jump_field[level]
        z = grid.axes[0]
        u0 = amer.values[level]
        law = merton_model.jumps.law
        lam = merton_model.jumps.intensity
        tau = grid.T
        # direct quadrature with 10x nodes; linear interpolation of u, far
        # field from the same discounted-forward closure the solver uses
        dy = grid.dz[0] / 10.0
        radius = merton_model.jumps.radius(merton_cfg.y_max_tail, 1)
        yy = np.arange(-radius, radius + dy / 2, dy)
        wts = law.density(yy.reshape(-1, 1)) * dy * lam
        wts *= lam / wts.sum()
        kappa = merton_model.jumps.mean_exp_minus_one(1)[0]
        zmesh_ff = None
        idx = np.arange(40, grid.n_space - 40, 16)
        ref = np.empty(idx.shape[0])
        for out_i, j in enumerate(idx):
            zq = z[j] + yy
            inside = (zq >= z[0]) & (zq <= z[-1])
            uq = np.empty_like(zq)
            uq[inside] = np.interp(zq[inside], z, u0)
            if np.any(~inside):
                prices = np.exp(zq[~inside][:, None])
                ff = far_field_values(put_1d, merton_model, prices, tau, put_1d.evaluate(prices))
                uq[~inside] = ff
            grad = (np.interp(z[j] + grid.dz[0], z, u0)
                    - np.interp(z[j] - grid.dz[0], z, u0)) / (2 * grid.dz[0])
            ref[out_i] = np.sum(wts * uq) - lam * u0[j] - lam * kappa * grad
        scale = np.abs(field[idx]).max()
        assert np.abs(field[idx] - ref).max() < 1e-4 * max(scale, 1.0)


class TestInterpolate:
    def test_level_interp_vectorized(self, bs_solves):
        grid, _, amer, _ = bs_solves
        zq = np.array([[np.log(95.0)], [np.log(105.0)]])
        out = interp_level(amer.values, grid, 0, lattice_cells(grid, zq))
        assert out.shape == (2,)
        assert out[0] > out[1]  # put value decreasing in price

    @pytest.mark.parametrize("solves", ["merton_solves", "minput2d_solves"])
    def test_level_interp_matches_per_dimension_formulas(self, solves, request):
        # random points, points clamped beyond both grid ends, and the nodes;
        # a row subset of the cells reads as the cells of that row subset
        grid, _, amer, _ = request.getfixturevalue(solves)
        rng = np.random.default_rng(17)
        span = grid.z_max - grid.z_min
        zq = np.concatenate([
            rng.uniform(grid.z_min - 0.1 * span, grid.z_max + 0.1 * span, (20_000, grid.dim)),
            np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1).reshape(-1, grid.dim)])
        assert np.any(zq < grid.z_min) and np.any(zq > grid.z_max)
        cells = lattice_cells(grid, zq)
        band = rng.uniform(size=zq.shape[0]) < 0.3
        for field in (amer.values, amer.jump_field, amer.values - amer.obstacle):
            for k in (0, grid.n_time // 2, grid.n_time):
                got = interp_level(field, grid, k, cells)
                assert got.tobytes() == _interp_level_by_dimension(field, grid, k, zq).tobytes()
                sub = interp_level(field, grid, k, cells.rows(band))
                assert sub.tobytes() == interp_level(field, grid, k,
                                                     lattice_cells(grid, zq[band])).tobytes()
                assert sub.tobytes() == got[band].tobytes()


def _interp_level_by_dimension(solution_field, grid, level, zq):
    """Reference: the linear (1D) and bilinear (2D) formulas written out."""
    level_values = solution_field[level]
    idx, frac = [], []
    for i in range(grid.dim):
        pos = (zq[:, i] - grid.z_min[i]) / grid.dz[i]
        lo = np.clip(np.floor(pos).astype(int), 0, grid.n_space - 2)
        idx.append(lo)
        frac.append(pos - lo)
    if grid.dim == 1:
        lo, f = idx[0], frac[0]
        return level_values[lo] * (1 - f) + level_values[lo + 1] * f
    i0, j0 = idx
    fi, fj = frac
    return (level_values[i0, j0] * (1 - fi) * (1 - fj)
            + level_values[i0 + 1, j0] * fi * (1 - fj)
            + level_values[i0, j0 + 1] * (1 - fi) * fj
            + level_values[i0 + 1, j0 + 1] * fi * fj)


class TestTwoDimensional:
    def test_solved_at_spot(self, minput2d_solves):
        _, _, amer, eur = minput2d_solves
        assert amer.value_at_spot() > eur.value_at_spot() > 0

    def test_center_node_is_spot(self, minput2d_solves):
        grid, _, _, _ = minput2d_solves
        ci = grid.center_index
        assert grid.axes[0][ci[0]] == pytest.approx(np.log(SPOT), abs=1e-12)
        assert grid.axes[1][ci[1]] == pytest.approx(np.log(SPOT), abs=1e-12)

    @pytest.mark.parametrize("n_space", [51, 61, 151])
    def test_step_matrix_matches_masked_reference(self, merton2d_model, min_put_2d, n_space):
        # diag(1/dt on interior, 1 on boundary) - local: the same stored
        # pattern and values as the masked expression it replaced
        grid = lp.build_grid(merton2d_model, min_put_2d, [SPOT, SPOT], 0.5, n_space, 20,
                             beta=5.0, trunc_tol=1e-5)
        op = lp.assemble(merton2d_model, grid)
        step, ref = op.step_matrix, step_matrix_2d(op)
        for part in ("indptr", "indices", "data"):
            assert getattr(step, part).tobytes() == getattr(ref, part).tobytes(), part

    def test_mixed_term_monotonicity_guard(self, min_put_2d):
        a = [[0.01, 0.02], [0.02, 0.09]]  # positive definite, |a12| > min(a11, a22)
        model = lp.LevyModel(lp.GaussianPart(a=a), lp.JumpSpec(0.0),
                             lp.Rates(r=0.0, delta=[0.0, 0.0]))
        grid = lp.build_grid(model, min_put_2d, [SPOT, SPOT], 1.0, 101, 20, beta=2.0)
        with pytest.raises(lp.SchemeNotMonotone, match="correlation"):
            lp.assemble(model, grid)

    def test_factor_needs_no_pivoting_at_the_guard_bound(self, merton2d_model, min_put_2d):
        # a12 at 0.999 of the mixed-derivative bound: the step matrix rows are
        # not diagonally dominant, yet the diagonal pivots of `splu` solve it
        # as accurately as SuperLU's partial pivoting
        grid = lp.build_grid(merton2d_model, min_put_2d, [SPOT, SPOT], 0.5, 151, 10, beta=5.0,
                             trunc_tol=1e-5)
        a = merton2d_model.gaussian.a
        a12 = 0.999 * min(a[0, 0] * grid.dz[1] / grid.dz[0], a[1, 1] * grid.dz[0] / grid.dz[1])
        model = lp.LevyModel(lp.GaussianPart(a=[[a[0, 0], a12], [a12, a[1, 1]]]),
                             merton2d_model.jumps, merton2d_model.rates)
        matrix = lp.assemble(model, grid).step_matrix
        margin = 2 * matrix.diagonal() - abs(matrix).sum(axis=1).A1  # diagonal minus the rest
        assert margin.min() < -1.0
        b = np.random.default_rng(7).standard_normal(matrix.shape[0])
        x = pide.splu(matrix).solve(b)
        ref = scipy.sparse.linalg.splu(matrix).solve(b)
        assert np.abs(matrix @ x - b).max() <= 1e-12 * np.abs(b).max()
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_convolve_transforms_the_stencil_once(self, merton2d_model, min_put_2d,
                                                  monkeypatch):
        # the kernel and the padded shape are fixed per operator, so only the
        # field is transformed per call; the result is the uncached one,
        # bitwise, and scipy.fft's within round-off
        grid = lp.build_grid(merton2d_model, min_put_2d, [SPOT, SPOT], 0.5, 61, 20, beta=5.0,
                             trunc_tol=1e-5)
        op = lp.assemble(merton2d_model, grid)
        calls, rfftn = [], np.fft.rfftn
        monkeypatch.setattr(np.fft, "rfftn", lambda *a, **kw: calls.append(1) or rfftn(*a, **kw))
        fields = np.random.default_rng(3).uniform(0.0, 50.0, (3, *(grid.n_space + 2 * m
                                                                  for m in op.offsets)))
        for ext in fields:
            ref = _uncached_fft_convolve_valid(ext, op.stencil[::-1, ::-1])
            out = op.convolve(ext)
            assert out.tobytes() == ref.tobytes()
            scipy_ref = scipy_fft_convolve_valid(ext, op.stencil[::-1, ::-1])
            assert np.abs(out - scipy_ref).max() <= 1e-14 * np.abs(scipy_ref).max()
        assert len(calls) == 3 + 1 + 6  # three fields, the stencil once; the reference six

    def test_correlated_jump_stencil(self, merton2d_model, min_put_2d):
        # off-diagonal jump covariance: cell masses are density x cell area
        law = lp.MertonNormal(mean=[-0.05, -0.05], cov=[[0.01, 0.004], [0.004, 0.01]])
        model = lp.LevyModel(merton2d_model.gaussian, lp.JumpSpec(0.1, law), merton2d_model.rates)
        cfg = SolverConfig(n_space=51, n_time=10, beta=5.0, trunc_tol=1e-5)
        _, op, amer, eur = lp.solve_pair(model, min_put_2d, [SPOT, SPOT], 0.5, cfg)
        assert op.stencil.sum() == pytest.approx(0.1, rel=1e-14)
        assert op.raw_mass_defect < 1e-3 * 0.1  # 4.5e-7 measured
        assert amer.value_at_spot() >= eur.value_at_spot() >= 0  # 6.8615 >= 6.7150

    def test_coarse_correlated_jump_stencil_is_refused(self, merton2d_model, min_put_2d):
        # jump correlation 0.9: the 51^2 cell masses miss 0.134 of lambda, rescaled before;
        # more than the cut tail can hold, so the remedy is a finer grid
        law = lp.MertonNormal(mean=[-0.05, -0.05], cov=[[0.01, 0.009], [0.009, 0.01]])
        model = lp.LevyModel(merton2d_model.gaussian, lp.JumpSpec(0.1, law), merton2d_model.rates)
        grid = lp.build_grid(model, min_put_2d, [SPOT, SPOT], 0.5, 51, 10, beta=5.0,
                             trunc_tol=1e-5)
        with pytest.raises(lp.QuadratureTailTooHeavy,
                           match=r"misses 0.134 of the jump mass .*; raise n_space$"):
            lp.assemble(model, grid)

    @pytest.mark.parametrize("payoff, errors", [
        (lp.Payoff.min_put(100.0, 2), (-0.5795, -0.1901, -0.0944)),
        (lp.Payoff.max_call(100.0, 2), (-0.5202, -0.1707, -0.0856))], ids=["min_put", "max_call"])
    def test_european_approaches_stulz_from_below(self, merton2d_model, payoff, errors):
        # merton2d's Gaussian part and rates without jumps has the closed form
        # of Stulz (1982): min-put 7.54179, max-call 10.25869
        model = lp.LevyModel(merton2d_model.gaussian, lp.JumpSpec(0.0), merton2d_model.rates)
        exact = dict(zip(("max_call", "min_put"), stulz_two_asset(
            [SPOT, SPOT], 100.0, 0.5, 0.05, [0.02, 0.01], model.gaussian.a)))[payoff.kind]
        got = []
        for n_space, n_time in ((61, 20), (101, 50), (151, 50)):
            grid = lp.build_grid(model, payoff, [SPOT, SPOT], 0.5, n_space, n_time, beta=5.0,
                                 trunc_tol=1e-5)
            got.append(lp.solve_european(model, payoff, grid, lp.assemble(model, grid))
                       .value_at_spot() - exact)
        # below the exact value, each error within 1e-3 of the one measured
        assert got == pytest.approx(errors, abs=1e-3)
        assert 0 > got[2] > got[1] > got[0]

    def test_lattice_european_approaches_stulz(self, merton2d_model):
        # the Boyle-Evnine-Gibbs lattice's European min-put errors at N = 100,
        # 200 and 400 against the closed form 7.54179, each within 2e-5 of the
        # one measured: below it and halving with each doubling of N
        a, rates = merton2d_model.gaussian.a, merton2d_model.rates
        exact = stulz_two_asset([SPOT, SPOT], 100.0, 0.5, rates.r, rates.delta, a)[1]
        errors = [beg_two_asset(_min_put_100, [SPOT, SPOT], 0.5, rates.r, rates.delta, a, n,
                                american=False) - exact for n in (100, 200, 400)]
        assert errors == pytest.approx([-0.02053, -0.01027, -0.00513], abs=2e-5)
        assert errors[0] < errors[1] < errors[2] < 0

    def test_american_stays_below_the_lattice(self, merton2d_model, min_put_2d):
        # 2D Black-Scholes (merton2d without jumps): the lattice at N = 400
        # gives 7.69709 (Richardson extrapolation in N: 7.7005); the PIDE
        # American min-put at 61^2 x 20 and 101^2 x 50, 7.11454 and 7.50344,
        # falls short of it by 0.5825 and 0.1936, each within 1e-3 of the one
        # measured and shrinking
        model = lp.LevyModel(merton2d_model.gaussian, lp.JumpSpec(0.0), merton2d_model.rates)
        lattice = beg_two_asset(_min_put_100, [SPOT, SPOT], 0.5, model.rates.r,
                                model.rates.delta, model.gaussian.a, 400)
        assert lattice == pytest.approx(7.69709, abs=1e-5)
        errors = []
        for n_space, n_time in ((61, 20), (101, 50)):
            grid = lp.build_grid(model, min_put_2d, [SPOT, SPOT], 0.5, n_space, n_time,
                                 beta=5.0, trunc_tol=1e-5)
            amer = lp.solve_american_penalty(model, min_put_2d, grid, lp.assemble(model, grid))
            errors.append(amer.value_at_spot() - lattice)
        assert errors == pytest.approx([-0.5825, -0.1936], abs=1e-3)
        assert 0 > errors[1] > errors[0]

    def test_fast_length_is_scipys(self):
        from scipy.fft import next_fast_len
        assert [pide._next_fast_len(n) for n in range(1, 5000)] == \
            [next_fast_len(n, True) for n in range(1, 5000)]


def _min_put_100(s1, s2):
    return np.maximum(100.0 - np.minimum(s1, s2), 0.0)


def _uncached_fft_convolve_valid(a, kernel):
    """Reference 'valid' convolution by numpy real FFTs that transforms the
    kernel on every call."""
    from scipy.fft import next_fast_len
    fshape = [next_fast_len(sa + sk - 1, True) for sa, sk in zip(a.shape, kernel.shape)]
    out = np.fft.irfftn(np.fft.rfftn(a, fshape, axes=(0, 1))
                        * np.fft.rfftn(kernel, fshape, axes=(0, 1)), fshape, axes=(0, 1))
    return out[tuple(slice(sk - 1, sa) for sa, sk in zip(a.shape, kernel.shape))]


def _dense(matrix: pide.Tridiagonal) -> np.ndarray:
    return np.diag(matrix.main) + np.diag(matrix.lower[1:], -1) + np.diag(matrix.upper[:-1], 1)


def _drift_model(a: float, carry: float, lam: float = 0.0):
    """A 1D model with diffusion variance `a` and r - delta = `carry`; Kou
    jumps of intensity `lam`."""
    jumps = lp.JumpSpec(lam, lp.KouDoubleExponential(p_up=[0.4], eta_plus=[10.0], eta_minus=[5.0])) \
        if lam else lp.JumpSpec(0.0)
    return lp.LevyModel(lp.GaussianPart(a=[[a]]), jumps, lp.Rates(r=0.3, delta=[0.3 - carry]))


class TestTridiagonal:
    @pytest.mark.parametrize("case", ["bs", "merton", "kou", "upwind_up", "upwind_down"])
    def test_bands_match_sparse_assembly(self, case, request, put_1d):
        # the 1D local, step and penalized matrices hold, bit for bit, the
        # entries of the scipy.sparse assembly they replaced
        model = request.getfixturevalue(f"{case}_model") if "_" not in case \
            else _drift_model(1e-4, 0.2 if case == "upwind_up" else -0.2)
        grid = lp.build_grid(model, put_1d, [SPOT], 1.0, 401, 100, beta=4.0, trunc_tol=1e-5)
        peclet = abs(model.log_drift[0]) * grid.dz[0] / model.gaussian.a[0, 0]
        assert (peclet > 1.0) == ("_" in case)
        op = lp.assemble(model, grid)
        rng = np.random.default_rng(11)
        active = grid.interior.ravel() & (rng.random(grid.n_space) < 0.4)
        refs = sparse_operator_1d(model, grid, 1e3, active)
        for got, ref in zip((op.local, op.step_matrix, op.penalized_matrix(1e3, active)), refs):
            assert got.main.tobytes() == ref.diagonal().tobytes()
            assert got.lower.tobytes() == np.r_[0.0, ref.diagonal(-1)].tobytes()
            assert got.upper.tobytes() == np.r_[ref.diagonal(1), 0.0].tobytes()
        x = rng.uniform(-50.0, 150.0, grid.n_space)
        assert np.all(np.abs(op.local @ x - refs[0] @ x) <= 1e-15 * (abs(refs[0]) @ abs(x)))

    @settings(max_examples=60, deadline=None, database=None)
    @given(a=st.floats(1e-4, 0.2), carry=st.floats(-0.3, 0.3),
           lam=st.floats(0.0, 5.0, allow_subnormal=False),
           n_time=st.integers(10, 400), n_space=st.sampled_from([51, 201, 401]),
           n_pen=st.sampled_from([1e2, 1e3, 1e4]), share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_solve_matches_dense(self, put_1d, a, carry, lam, n_time, n_space, n_pen, share,
                                 seed):
        # cell Peclet numbers above and below 1 for either drift sign, with
        # and without jumps, on the step matrix and on a penalized set
        model = _drift_model(a, carry, lam)
        grid = lp.build_grid(model, put_1d, [SPOT], 1.0, n_space, n_time, beta=4.0,
                             trunc_tol=1e-5)
        op = lp.assemble(model, grid)
        rng = np.random.default_rng(seed)
        active = grid.interior.ravel() & (rng.random(n_space) < share)
        rhs = rng.uniform(-1.0, 100.0, n_space) / grid.dt
        for matrix in (op.step_matrix, op.penalized_matrix(n_pen, active)):
            x = pide.splu(matrix).solve(rhs)
            ref = np.linalg.solve(_dense(matrix), rhs)
            assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_fine_step_matrix_stops_doubling_early(self, bs_model, put_1d):
        # 801 nodes and n_time 4000: the multipliers are about 0.06, so the
        # coefficients of a full doubling (ten strides) underflow to zero; the
        # solve stops once every coefficient left is below 2^-53
        grid = lp.build_grid(bs_model, put_1d, [SPOT], 1.0, 801, 4000, beta=5.0, trunc_tol=1e-5)
        op = lp.assemble(bs_model, grid)
        rhs = np.random.default_rng(5).uniform(0.0, 100.0, grid.n_space) / grid.dt
        active = grid.interior.ravel() & (grid.axes[0] < np.log(SPOT))
        for matrix in (op.step_matrix, op.penalized_matrix(1e4, active)):
            lu = pide.splu(matrix)
            assert len(lu._forward) <= 5 and len(lu._backward) <= 5
            ref = np.linalg.solve(_dense(matrix), rhs)
            assert np.abs(lu.solve(rhs) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_solver_config_roundtrip():
    cfg = SolverConfig(n_space=301, n_time=77, beta=3.5,
                       penalty_ladder=(10.0, 100.0), trunc_tol=1e-6,
                       y_max_tail=1e-9, exercise_tol=1e-7)
    again = SolverConfig.from_dict(cfg.to_dict())
    assert again == cfg


@pytest.mark.parametrize("key, value", [
    ("beta", float("nan")), ("trunc_tol", 0.0), ("y_max_tail", 1.0), ("exercise_tol", -1.0),
    ("penalty_ladder", (1e2, 0.0)), ("penalty_ladder", 1e2), ("penalty_ladder", []),
    ("penalty_ladder", [1e3, 1e2])])
def test_solver_config_built_in_python_checks_ranges(key, value):
    # SolverConfig(beta=nan) once solved to NaN prices and trunc_tol=0 ended
    # in a ZeroDivisionError in build_grid
    with pytest.raises(ValueError, match=key):
        SolverConfig(**{key: value})


@pytest.mark.parametrize("call, key, value", [
    # build_grid on merton1d 201 x 40 (beta 4, trunc_tol 1e-5; half-width 3.96,
    # American 6.2769): trunc_tol 0 raised ZeroDivisionError, trunc_tol 2 gave
    # 0.91 and 6.3131, beta inf 1.09 and 6.3123, y_max_tail 0 raised
    # statistics.StatisticsError and a NaN "cannot convert float NaN to integer"
    ("build_grid", "trunc_tol", 0.0), ("build_grid", "trunc_tol", 2.0),
    ("build_grid", "beta", np.inf), ("build_grid", "y_max_tail", 0.0),
    ("build_grid", "beta", np.nan), ("build_grid", "trunc_tol", np.nan),
    ("build_grid", "y_max_tail", np.nan), ("assemble", "y_max_tail", np.nan),
    # solve_american_penalty on bs 201 x 40 (American 6.0323): the ladders
    # (nan,) and (1e2, nan) returned NaN, (0,) 6.0098 and (-5,) 6.0068; with
    # exercise_tol NaN no node was exercised before T, and -1 was accepted
    ("solve_american_penalty", "penalty", (np.nan,)),
    ("solve_american_penalty", "penalty", (1e2, np.nan)),
    ("solve_american_penalty", "penalty", (0.0,)), ("solve_american_penalty", "penalty", (-5.0,)),
    ("solve_american_penalty", "exercise_tol", np.nan),
    ("solve_american_penalty", "exercise_tol", -1.0)])
def test_direct_calls_check_solver_settings(merton_model, bs_model, put_1d, bs_small_solves,
                                            call, key, value):
    # each call checks the SolverConfig its loose settings describe
    merton_args = (merton_model, put_1d, [SPOT], 1.0, 201, 40)
    kwargs = {key: value}
    if call == "build_grid":
        args, kwargs = merton_args, {"beta": 4.0, "trunc_tol": 1e-5, **kwargs}
    elif call == "assemble":
        args = (merton_model, lp.build_grid(*merton_args, beta=4.0, trunc_tol=1e-5))
    else:
        grid, op, _, _ = bs_small_solves
        args = (bs_model, put_1d, grid, op)
    with pytest.raises(ValueError, match="penalty_ladder entry" if key == "penalty" else key):
        getattr(lp, call)(*args, **kwargs)


def test_solver_config_rejects_unknown_keys():
    # a misspelled ladder must not fall back to the default one
    with pytest.raises(ValueError, match="penalty_laddder") as err:
        SolverConfig.from_dict({"penalty_laddder": [10, 5]})
    assert "penalty_ladder" in str(err.value).split("known fields:")[1]


def test_export_csv(tmp_path, zero_rate_solves):
    _, _, amer, _ = zero_rate_solves
    path = tmp_path / "sol.csv"
    lp.export_solution_csv(amer, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,z,price,u,psi,exercised,jump_field"
    n_rows = len(path.read_text().splitlines()) - 1
    assert n_rows == (amer.grid.n_time + 1) * amer.grid.n_space

def _row_by_row_csv(solution) -> str:
    """Reference formatter: one f-string list per (level, node)."""
    grid = solution.grid
    d = grid.dim
    flat_z = grid.mesh().reshape(-1, d)
    flat_p = np.exp(grid.mesh()).reshape(-1, d)
    zcols = [f"z{i+1}" for i in range(d)] if d > 1 else ["z"]
    pcols = [f"price{i+1}" for i in range(d)] if d > 1 else ["price"]
    lines = [",".join(["t", *zcols, *pcols, "u", "psi", "exercised", "jump_field"])]
    psi = solution.obstacle.ravel()
    for k, t in enumerate(grid.times):
        uk, ek = solution.values[k].ravel(), solution.exercise_set[k].ravel()
        jk = solution.jump_field[k].ravel()
        for j in range(flat_z.shape[0]):
            row = [f"{t:.10g}", *(f"{v:.10g}" for v in flat_z[j]),
                   *(f"{v:.10g}" for v in flat_p[j]),
                   f"{uk[j]:.10g}", f"{psi[j]:.10g}", str(int(ek[j])), f"{jk[j]:.10g}"]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dim", [1, 2])
def test_export_csv_matches_row_formatter(tmp_path, dim, merton_model, put_1d,
                                          merton2d_model, min_put_2d):
    model, payoff = (merton_model, put_1d) if dim == 1 else (merton2d_model, min_put_2d)
    cfg = SolverConfig(n_space=51, n_time=10, beta=5.0, trunc_tol=1e-5)
    _, _, amer, eur = lp.solve_pair(model, payoff, [SPOT] * dim, 0.5, cfg)
    assert amer.exercise_set.any()
    for sol in (amer, eur):
        path = tmp_path / f"{sol.kind}.csv"
        lp.export_solution_csv(sol, path)
        assert path.read_text() == _row_by_row_csv(sol)


def _column_stack_csv(solution, path) -> None:
    """Reference formatter: every column of a level, node coordinates, prices
    and psi included, stacked into one float array and formatted per level."""
    grid = solution.grid
    zmesh = grid.mesh()
    d = grid.dim
    zcols = [f"z{i+1}" for i in range(d)] if d > 1 else ["z"]
    pcols = [f"price{i+1}" for i in range(d)] if d > 1 else ["price"]
    header = ",".join(["t", *zcols, *pcols, "u", "psi", "exercised", "jump_field"])
    nodes = np.concatenate([zmesh, np.exp(zmesh)], axis=-1).reshape(-1, 2 * d)
    psi = solution.obstacle.ravel()
    block = (",".join(["%.10g"] * (2 * d + 3) + ["%d", "%.10g"]) + "\n") * len(nodes)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k, t in enumerate(grid.times):
            cols = np.column_stack([np.full(len(nodes), t), nodes, solution.values[k].ravel(), psi,
                                    solution.exercise_set[k].ravel(), solution.jump_field[k].ravel()])
            fh.write(block % tuple(cols.ravel().tolist()))


def test_export_csv_bytes_match_column_stack_reference(tmp_path, merton_model, put_1d,
                                                       merton2d_model, min_put_2d):
    cfg = SolverConfig(n_space=101, n_time=20, beta=4.0, trunc_tol=1e-5)
    _, _, amer, eur = lp.solve_pair(merton_model, put_1d, [SPOT], 1.0, cfg)
    nan_levels = amer.jump_field.copy()
    nan_levels[::4] = np.nan
    nan_levels[1, :10] = -0.0
    amer = dataclasses.replace(amer, jump_field=nan_levels)
    # 31^2 x 10 is below build_grid's minimum, so the 2D grid is cut down from 51^2
    grid2d = dataclasses.replace(lp.build_grid(merton2d_model, min_put_2d, [SPOT, SPOT], 0.5,
                                               51, 10, 5.0, 1e-5), n_space=31)
    amer2d = lp.solve_american_penalty(merton2d_model, min_put_2d, grid2d,
                                       lp.assemble(merton2d_model, grid2d))
    assert amer.exercise_set.any() and amer2d.exercise_set.any()
    for name, sol in (("amer1d", amer), ("eur1d", eur), ("amer2d", amer2d)):
        path, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
        lp.export_solution_csv(sol, path)
        _column_stack_csv(sol, ref)
        assert path.read_bytes() == ref.read_bytes(), name

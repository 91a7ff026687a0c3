import json

import numpy as np
import pytest

import levypricer as lp
from levypricer.monte_carlo import MCConfig
from levypricer.pide import SolverConfig
from levypricer.premium import boundary_curve, premium_identity

SPOT = 100.0


@pytest.fixture(scope="module")
def bs_report(bs_model, put_1d, bs_cfg, bs_solves):
    _, _, amer, eur = bs_solves
    mc = MCConfig(n_paths=100_000, n_steps=bs_cfg.n_time, seed=61)
    return premium_identity(bs_model, put_1d, [SPOT], 1.0, bs_cfg, mc,
                            solutions=(amer, eur))


class TestPremiumIdentity:
    def test_bs_fixture_passes(self, bs_report):
        assert bs_report.passed
        assert bs_report.identity_gap <= bs_report.tolerance
        assert not bs_report.tolerance_sensitive

    def test_tolerance_formula(self, bs_report):
        want = max(0.005 * bs_report.american_pide, 3 * bs_report.premium_mc.stderr)
        assert bs_report.tolerance == pytest.approx(want, rel=1e-12)

    def test_sensitivity_rows(self, bs_report):
        assert set(bs_report.sensitivity) == {1e-5, 1e-6, 1e-7}
        spread = max(bs_report.sensitivity.values()) - min(bs_report.sensitivity.values())
        assert spread < bs_report.tolerance

    def test_zero_premium_fixture(self, zero_rate_model, put_1d, zero_rate_cfg,
                                  zero_rate_solves):
        _, _, amer, eur = zero_rate_solves
        mc = MCConfig(n_paths=30_000, n_steps=zero_rate_cfg.n_time, seed=62)
        rep = premium_identity(zero_rate_model, put_1d, [SPOT], 1.0,
                               zero_rate_cfg, mc, solutions=(amer, eur))
        assert rep.premium_mc.mean == 0.0
        assert abs(rep.american_pide - rep.european_pide) < 1e-8
        assert rep.passed

    def test_model_rejected_when_weights_break(self, kou_model, put_1d):
        # 2 beta = 6 exceeds eta_minus = 5: weighted second moment diverges
        cfg = SolverConfig(n_space=101, n_time=20, beta=3.0)
        _, _, amer, eur = lp.solve_pair(kou_model, put_1d, [SPOT], 1.0, cfg)
        with pytest.raises(lp.ModelRejected):
            premium_identity(kou_model, put_1d, [SPOT], 1.0, cfg,
                             MCConfig(n_paths=1000, n_steps=20, seed=0), solutions=(amer, eur))

    @pytest.mark.parametrize("spot, payoff", [(95.0, lp.Payoff.min_put(100.0, 1)),
                                              (SPOT, lp.Payoff.min_put(102.0, 1))])
    def test_solutions_for_another_spot_or_payoff_rejected(self, bs_model, bs_cfg, bs_solves,
                                                           spot, payoff):
        _, _, amer, eur = bs_solves  # solved at spot 100 for K = 100
        mc = MCConfig(n_paths=1000, n_steps=bs_cfg.n_time, seed=0)
        with pytest.raises(ValueError, match="american solution was solved for"):
            premium_identity(bs_model, payoff, [spot], 1.0, bs_cfg, mc, solutions=(amer, eur))

    def test_report_serializes(self, bs_report):
        blob = json.dumps(bs_report.to_dict())
        again = json.loads(blob)
        assert again["pass"] is True
        assert again["premium"]["n_paths"] == 100_000
        assert set(again["sensitivity"]) == {"1e-05", "1e-06", "1e-07"}


class TestExerciseRegion:
    def test_near_expiry_put_region(self, bs_solves, put_1d):
        _, _, amer, _ = bs_solves
        mask = amer.exercise_set[-1]  # the level nearest t = 1 - 1e-9
        assert mask.any()
        assert np.all(amer.obstacle[mask] > 0)
        boundary = boundary_curve(amer, put_1d)[-1, 1]
        assert boundary == np.exp(amer.grid.axes[0][mask]).max() and boundary < 100.0

    def test_zero_rate_region_empty(self, zero_rate_solves, put_1d):
        _, _, amer, _ = zero_rate_solves
        grid = amer.grid
        levels = [round(t / grid.dt) for t in (0.0, 0.3, 0.7, 0.99)]
        assert not amer.exercise_set[levels].any()
        assert np.isnan(boundary_curve(amer, put_1d)[levels, 1]).all()

    def test_inclusion_every_level(self, merton_solves):
        _, _, amer, _ = merton_solves
        for k in range(amer.grid.n_time):
            mask = amer.exercise_set[k]
            if mask.any():
                assert np.all(amer.obstacle[mask] > 0)

    def test_boundary_curve_needs_1d(self, minput2d_solves, min_put_2d):
        # a 2D exercise set once broadcast to an (n_time + 1, n + 1) array
        _, _, amer, _ = minput2d_solves
        with pytest.raises(ValueError, match="1D solution"):
            boundary_curve(amer, min_put_2d)

    def test_boundary_curve_monotone(self, bs_solves, put_1d):
        _, _, amer, _ = bs_solves
        rows = boundary_curve(amer, put_1d)
        interior = rows[:-1, 1]
        finite = np.isfinite(interior)
        assert finite.all()  # region nonempty at every level before expiry
        assert np.all(np.diff(interior[finite]) >= -1e-12)
        assert interior[0] < interior[-1] < 100.0

    def test_region_grows_toward_expiry(self, merton_solves):
        _, _, amer, _ = merton_solves
        early = amer.exercise_set[0].sum()
        late = amer.exercise_set[amer.grid.n_time - 1].sum()
        assert late >= early > 0


def test_identity_gap_shrinks_in_trend(bs_model, put_1d):
    # shipped convergence fixture: 2x grid, 4x paths per level; the gap need
    # not fall monotonically but the finest level must beat the coarsest
    gaps = []
    for ns, nt, npaths in ((201, 50, 25_000), (401, 100, 100_000),
                           (801, 200, 400_000)):
        cfg = SolverConfig(n_space=ns, n_time=nt, beta=5.0, trunc_tol=1e-5)
        mc = MCConfig(n_paths=npaths, n_steps=nt, seed=81)
        _, _, amer, eur = lp.solve_pair(bs_model, put_1d, [SPOT], 1.0, cfg)
        rep = premium_identity(bs_model, put_1d, [SPOT], 1.0, cfg, mc, solutions=(amer, eur))
        gaps.append(rep.identity_gap)
    assert gaps[-1] <= gaps[0]

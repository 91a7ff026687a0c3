import json
import pathlib
import threading
import time

import numpy as np
import pytest

import levypricer as lp
import levypricer.model as model_mod
from levypricer.model import FAILS, HOLDS_ANALYTIC
from oracles import ndtr_component_cdf, ndtri_component_radius, reference_simulate_block

MODEL_DIR = pathlib.Path(__file__).parent.parent / "configs" / "models"
MODEL_CONFIGS = sorted(MODEL_DIR.glob("*.json"))


def test_calibrate_drift_pure_diffusion():
    model = lp.LevyModel(lp.GaussianPart(a=[[0.04]]), lp.JumpSpec(0.0),
                         lp.Rates(r=0.05, delta=[0.0]))
    assert model.log_drift == pytest.approx([0.03], abs=1e-15)


def test_calibrate_drift_merton(merton_model):
    kappa = np.exp(-0.1 + 0.5 * 0.0225) - 1.0
    expected = 0.05 - 0.02 - 0.1 * kappa
    assert merton_model.log_drift[0] == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.038493, abs=5e-7)


def test_calibrate_drift_two_assets():
    model = lp.LevyModel(lp.GaussianPart(a=np.eye(2) * 0.04), lp.JumpSpec(0.0),
                         lp.Rates(r=0.0, delta=[0.02, 0.0]))
    assert model.log_drift == pytest.approx([-0.04, -0.02], abs=1e-15)


def test_drift_calibration_matches_mc_mean(merton_model):
    # discounted price mean must be 1; verified on one exact step
    paths = lp.simulate_paths(merton_model, 0.0, [1.0], 1.0, 1, 1_000_000, seed=31)
    disc = np.exp(-0.05) * paths.paths[:, -1, 0]
    stderr = disc.std(ddof=1) / np.sqrt(disc.shape[0])
    assert abs(disc.mean() - 1.0) < 3 * stderr


class TestValidateIntegrability:
    def test_merton_all_hold(self):
        jumps = lp.JumpSpec(0.2, lp.MertonNormal(mean=[0.0], cov=[[0.1]]))
        report = lp.validate_integrability(jumps, p=1.0, beta=1.5, epsilon=0.1)
        assert report.ok
        assert all(c.status == HOLDS_ANALYTIC for c in report.checks)

    def test_kou_weighted_second_moment_fails(self):
        jumps = lp.JumpSpec(0.2, lp.KouDoubleExponential([0.5], [3.0], [5.0]))
        report = lp.validate_integrability(jumps, p=1.0, beta=1.5, epsilon=0.1)
        by_exp = {c.exponent: c for c in report.checks}
        assert by_exp[1.1].holds          # payoff moment, exponent (1 v 1) + 0.1
        assert by_exp[3.0].status == FAILS  # second weighted moment at 2 beta = 3
        assert not report.ok

    def test_empirical_bounded_support(self):
        jumps = lp.JumpSpec(1.0, lp.Empirical(jumps=[[0.1], [-0.1]], probs=[0.5, 0.5]))
        report = lp.validate_integrability(jumps, p=3.0, beta=9.0, epsilon=0.5)
        assert report.ok

    def test_monotone_in_exponent(self):
        # once a Kou condition fails at some beta it fails for every larger one
        jumps = lp.JumpSpec(0.2, lp.KouDoubleExponential([0.5], [3.0], [5.0]))
        failed = False
        for beta in (0.5, 1.0, 1.4, 1.6, 2.0, 2.4, 2.6, 3.5):
            ok = lp.validate_integrability(jumps, p=0.0, beta=beta, epsilon=0.1).ok
            if failed:
                assert not ok
            failed = failed or not ok
        assert failed

    @pytest.mark.parametrize("eta_plus, eta_minus", [(4.0, 3.0), (3.0, 4.0)])
    def test_kou_conditions_flip_exactly_at_the_tail_rates(self, eta_plus, eta_minus):
        # one-sided rows need q < eta_plus, two-sided rows q < min(eta_plus, eta_minus)
        jumps = lp.JumpSpec(0.2, lp.KouDoubleExponential([0.5], [eta_plus], [eta_minus]))
        flips = set()
        for edge in (eta_plus, eta_minus):
            for q in (np.nextafter(edge, 0.0), edge):
                # payoff row at 1 + epsilon = q, weighted rows at q and 2 q
                for beta, epsilon in ((q, q - 1.0), (q / 2.0, q - 1.0)):
                    for c in lp.validate_integrability(jumps, p=0.0, beta=beta, epsilon=epsilon).checks:
                        bound = min(eta_plus, eta_minus) if c.name.startswith("weighted") else eta_plus
                        assert c.holds == (c.exponent < bound), (c.name, c.exponent, c.detail)
                        flips.add((c.name.split()[0], c.exponent))
        assert {("payoff", eta_plus), ("weighted", eta_plus), ("weighted", eta_minus)} <= flips

    def test_shipped_model_statuses(self):
        # only kou1d (eta_minus = 5) fails: the weighted second moment once
        # 2 beta >= 5, the weighted first moment once beta >= 5
        kou_fails = {1.5: [], 3.0: [3], 6.0: [2, 3]}
        for path in MODEL_CONFIGS:
            jumps = lp.load_model(path).jumps
            for beta, fails in kou_fails.items():
                checks = lp.validate_integrability(jumps, p=1.0, beta=beta, epsilon=0.1).checks
                assert [c.status for c in checks] == [
                    FAILS if path.stem == "kou1d" and i in fails else HOLDS_ANALYTIC
                    for i in range(4)], (path.stem, beta)

    def test_no_jumps_trivially_ok(self):
        report = lp.validate_integrability(lp.JumpSpec(0.0), p=2.0, beta=4.0, epsilon=0.1)
        assert report.ok

    def test_precondition(self):
        with pytest.raises(ValueError):
            lp.validate_integrability(lp.JumpSpec(0.0), p=2.0, beta=1.0, epsilon=0.1)


class TestExpMoment:
    def test_martingale_unit(self, bs_model):
        # r = delta = 0 model: q = 1 moment is exactly 1
        m = lp.LevyModel(lp.GaussianPart(a=[[0.04]]), lp.JumpSpec(0.0),
                         lp.Rates(r=0.0, delta=[0.0]))
        assert lp.exp_moment(m, 1.0, 0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_gaussian_second_moment(self):
        m = lp.LevyModel(lp.GaussianPart(a=[[0.04]]), lp.JumpSpec(0.0),
                         lp.Rates(r=0.0, delta=[0.0]))
        assert lp.exp_moment(m, 2.0, 0, 1.0) == pytest.approx(np.exp(0.04), rel=1e-14)

    def test_merton_calibrated_unit(self):
        jumps = lp.JumpSpec(0.1, lp.MertonNormal(mean=[-0.1], cov=[[0.0225]]))
        m = lp.LevyModel(lp.GaussianPart(a=[[0.04]]), jumps,
                         lp.Rates(r=0.0, delta=[0.0]))
        assert lp.exp_moment(m, 1.0, 0, 2.0) == pytest.approx(1.0, abs=1e-12)
        paths = lp.simulate_paths(m, 0.0, [1.0], 2.0, 1, 1_000_000, seed=77)
        samples = paths.paths[:, -1, 0]
        stderr = samples.std(ddof=1) / np.sqrt(samples.shape[0])
        assert abs(samples.mean() - 1.0) < 3 * stderr

    def test_q1_equals_carry_for_all_catalog_models(self, bs_model, merton_model,
                                                    kou_model, merton2d_model):
        for model in (bs_model, merton_model, kou_model, merton2d_model):
            for i in range(model.dim):
                target = np.exp(model.rates.r - model.rates.delta[i])
                assert lp.exp_moment(model, 1.0, i, 1.0) == pytest.approx(target, abs=1e-12)

    def test_divergent_moment_raises(self, kou_model):
        with pytest.raises(lp.NonIntegrableJump):
            lp.exp_moment(kou_model, 12.0, 0, 1.0)


class TestSimulatePaths:
    def test_initial_condition_exact(self, merton_model):
        ps = lp.simulate_paths(merton_model, 0.0, [123.456], 1.0, 5, 100, seed=1)
        assert np.all(ps.paths[:, 0, 0] == 123.456)

    def test_positive_everywhere(self, kou_model):
        ps = lp.simulate_paths(kou_model, 0.0, [100.0], 1.0, 20, 5000, seed=2)
        assert np.all(ps.paths > 0)

    def test_same_seed_bitwise_identical(self, merton_model):
        a = lp.simulate_paths(merton_model, 0.0, [100.0], 1.0, 10, 20_000, seed=9)
        b = lp.simulate_paths(merton_model, 0.0, [100.0], 1.0, 10, 20_000, seed=9)
        assert np.array_equal(a.paths, b.paths)

    def test_thread_count_invariance(self, kou_model):
        a = lp.simulate_paths(kou_model, 0.0, [100.0], 1.0, 10, 30_000, seed=9)
        b = lp.simulate_paths(kou_model, 0.0, [100.0], 1.0, 10, 30_000, seed=9,
                              n_threads=4)
        assert np.array_equal(a.paths, b.paths)

    def test_martingale_at_intermediate_dates(self, merton_model):
        ps = lp.simulate_paths(merton_model, 0.0, [100.0], 1.0, 4, 100_000, seed=13)
        for k in (1, 2, 4):  # T/4, T/2, T
            t = ps.times[k]
            disc = np.exp(-0.05 * t) * ps.paths[:, k, 0] / 100.0
            stderr = disc.std(ddof=1) / np.sqrt(disc.shape[0])
            assert abs(disc.mean() - 1.0) < 3 * stderr

    def test_bs_terminal_moments(self, bs_model):
        ps = lp.simulate_paths(bs_model, 0.0, [100.0], 1.0, 1, 100_000, seed=17)
        term = ps.paths[:, -1, 0]
        disc = np.exp(-0.05) * term
        stderr = disc.std(ddof=1) / np.sqrt(term.shape[0])
        assert abs(disc.mean() - 100.0) < 3 * stderr
        lv = np.log(term)
        var = lv.var(ddof=1)
        var_se = var * np.sqrt(2.0 / (term.shape[0] - 1))
        assert abs(var - 0.04) < 3 * var_se

    def test_rejects_nonpositive_start(self, bs_model):
        with pytest.raises(lp.InvalidDomain):
            lp.simulate_paths(bs_model, 0.0, [-1.0], 1.0, 1, 10, seed=0)

    @pytest.mark.parametrize("n_threads", [2, 3])
    def test_pool_simulates_at_most_n_threads_blocks_ahead(self, merton_model, monkeypatch,
                                                           n_threads):
        # a slow consumer must not let simulated blocks pile up in memory
        lock = threading.Lock()
        count = {"started": 0, "yielded": 0, "ahead": 0}
        simulate_block = model_mod._simulate_block

        def counted(*args):
            with lock:
                count["started"] += 1
                count["ahead"] = max(count["ahead"], count["started"] - count["yielded"])
            return simulate_block(*args)

        monkeypatch.setattr(model_mod, "_simulate_block", counted)
        n_blocks = 8
        for _ in model_mod.simulate_log_blocks(merton_model, [100.0], 0.0, 1.0, 1,
                                               n_blocks * model_mod._PATH_BLOCK, seed=3,
                                               n_threads=n_threads):
            with lock:
                count["yielded"] += 1
            time.sleep(0.02)
        assert count["started"] == count["yielded"] == n_blocks
        assert count["ahead"] <= n_threads


# a second block of 100 paths has many steps where no path jumps
REFERENCE_PATHS = model_mod._PATH_BLOCK + 100


@pytest.mark.parametrize("n_threads", [1, 2])
@pytest.mark.parametrize("name", ["bs1d", "merton1d", "kou1d", "empirical1d", "merton2d"])
def test_blocks_match_path_major_reference(name, n_threads):
    model = lp.load_model(MODEL_DIR / f"{name}.json")
    spot, T, n_steps, seed, stream = np.full(model.dim, 100.0), 1.0, 25, 29, 1
    blocks = list(model_mod.simulate_log_blocks(model, spot, 0.0, T, n_steps, REFERENCE_PATHS,
                                                seed, stream=stream, n_threads=n_threads))
    assert [lo for lo, _ in blocks] == [0, model_mod._PATH_BLOCK]
    for idx, (lo, block) in enumerate(blocks):
        ref = reference_simulate_block(model, np.log(spot), T / n_steps, n_steps,
                                       model_mod._block_rng(seed, stream, idx),
                                       min(model_mod._PATH_BLOCK, REFERENCE_PATHS - lo))
        assert block.shape == ref.shape
        assert np.array_equal(block, ref)


@pytest.mark.parametrize("name", ["kou1d", "merton2d"])
def test_block_dates_are_contiguous(name):
    # consumers read date k as block[:, k] without a gather
    model = lp.load_model(MODEL_DIR / f"{name}.json")
    n_steps = 7
    for lo, block in model_mod.simulate_log_blocks(model, np.full(model.dim, 100.0), 0.0, 1.0,
                                                   n_steps, REFERENCE_PATHS, seed=3):
        assert block.shape == (min(model_mod._PATH_BLOCK, REFERENCE_PATHS - lo), n_steps + 1,
                               model.dim)
        assert all(block[:, k].flags.c_contiguous for k in range(n_steps + 1))


@pytest.mark.parametrize("jumps, probs, dz", [
    ([[0.1], [-0.08], [0.037]], [0.5, 0.3, 0.2], [0.013]),
    ([[0.1, -0.05], [-0.08, 0.03], [0.02, 0.2]], [0.3, 0.3, 0.4], [0.013, 0.021]),
])
def test_empirical_cell_masses_keep_mass_and_first_moment(jumps, probs, dz):
    law = lp.Empirical(jumps=jumps, probs=probs)
    dz = np.array(dz)
    axes = [dz[i] * np.arange(-12, 13) for i in range(law.dim)]
    masses = law.cell_masses(axes, dz)
    nodes = np.meshgrid(*axes, indexing="ij")
    assert abs(masses.sum() - 1.0) <= 1e-15
    for i in range(law.dim):
        assert abs((masses * nodes[i]).sum() - law.probs @ law.jumps[:, i]) <= 1e-15
    assert masses.tobytes() == _split_atoms_by_dimension(law, axes, dz).tobytes()


def _split_atoms_by_dimension(law, axes, dz):
    """Reference: the cell masses written out separately for one and two axes."""
    shape = tuple(len(ax) for ax in axes)
    out = np.zeros(shape)
    for atom, prob in zip(law.jumps, law.probs):
        idx_lo, frac = [], []
        for i, ax in enumerate(axes):
            pos = (atom[i] - ax[0]) / dz[i]
            lo = int(np.clip(np.floor(pos), 0, shape[i] - 2))
            idx_lo.append(lo)
            frac.append(np.clip(pos - lo, 0.0, 1.0))
        if len(axes) == 1:
            out[idx_lo[0]] += prob * (1 - frac[0])
            out[idx_lo[0] + 1] += prob * frac[0]
        else:
            for di in (0, 1):
                for dj in (0, 1):
                    w = (frac[0] if di else 1 - frac[0]) * (frac[1] if dj else 1 - frac[1])
                    out[idx_lo[0] + di, idx_lo[1] + dj] += prob * w
    return out


class TestConstruction:
    def test_gaussian_must_be_pd(self):
        with pytest.raises(ValueError):
            lp.GaussianPart(a=[[0.0]])

    def test_gaussian_must_be_symmetric(self):
        with pytest.raises(ValueError):
            lp.GaussianPart(a=[[0.04, 0.01], [0.02, 0.04]])

    def test_kou_needs_eta_plus_above_one(self):
        with pytest.raises(ValueError):
            lp.KouDoubleExponential([0.5], [1.0], [5.0])

    def test_empirical_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            lp.Empirical(jumps=[[0.1], [-0.1]], probs=[0.5, 0.6])

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            lp.JumpSpec(-0.1)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            lp.Rates(r=-0.01, delta=[0.0])
        with pytest.raises(ValueError):
            lp.Rates(r=0.01, delta=[-0.5])


def test_model_json_roundtrip(merton_model, kou_model):
    for model in (merton_model, kou_model):
        spec = lp.model_to_dict(model)
        again = lp.model_from_dict(json.loads(json.dumps(spec)))
        assert again.dim == model.dim
        assert np.allclose(again.log_drift, model.log_drift, atol=1e-15)
        assert np.array_equal(again.gaussian.a, model.gaussian.a)
    rates = {"r": 0.05, "delta": [0.02, 0.01]}
    specs = [json.loads(path.read_text()) for path in MODEL_CONFIGS] + [
        {"dim": 2, "a": [[0.04, 0.012], [0.012, 0.04]], "rates": rates,
         "jumps": {"kind": "kou", "lambda": 0.2, "p_up": [0.4, 0.5],
                   "eta_plus": [10.0, 8.0], "eta_minus": [5.0, 6.0]}},
        {"dim": 2, "a": [[0.04, 0.0], [0.0, 0.09]], "rates": rates,
         "jumps": {"kind": "empirical", "lambda": 0.5, "jumps": [[0.1, -0.05], [-0.08, 0.03]],
                   "probs": [0.25, 0.75]}},
    ]
    for spec in specs:
        out = lp.model_to_dict(lp.model_from_dict(spec))
        assert {key: out[key] for key in spec} == spec
        assert lp.model_to_dict(lp.model_from_dict(json.loads(json.dumps(out)))) == out


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("kind, path", [
    ("merton", ("rates", "r")), ("merton", ("rates", "delta", 0)), ("merton", ("a", 0, 0)),
    ("merton", ("jumps", "lambda")), ("merton", ("jumps", "mean", 0)),
    ("merton", ("jumps", "cov", 0, 0)), ("kou", ("jumps", "p_up", 0)),
    ("kou", ("jumps", "eta_plus", 0)), ("kou", ("jumps", "eta_minus", 0)),
    ("empirical", ("jumps", "jumps", 0, 0)), ("empirical", ("jumps", "probs", 0))],
    ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)))
def test_non_finite_model_reals_are_refused(kind, path, bad):
    # a NaN lambda, jump mean or covariance, or an infinite a, once priced the
    # min-put as K e^{-r T} by Monte Carlo; a NaN a was refused as unsymmetric
    spec = json.loads((MODEL_DIR / f"{kind}1d.json").read_text())
    *parents, last = path
    node = spec
    for key in parents:
        node = node[key]
    node[last] = bad
    key = next(k for k in reversed(path) if isinstance(k, str))
    with pytest.raises(ValueError, match=rf"\b{key} must be finite"):
        lp.model_from_dict(spec)


@pytest.mark.parametrize("dim", [2.5, [2], True, "2", 0, None])
def test_model_dim_must_be_a_whole_number(dim):
    spec = {"dim": dim, "a": [[0.04, 0.0], [0.0, 0.04]],
            "rates": {"r": 0.05, "delta": [0.0, 0.0]}}
    with pytest.raises(ValueError, match="dim must be a whole number"):
        lp.model_from_dict(spec)
    assert lp.model_from_dict({**spec, "dim": np.int64(2)}).dim == 2


def test_merton_cholesky_factored_once_per_law():
    law = lp.MertonNormal(mean=[-0.05, -0.05], cov=[[0.01, 0.004], [0.004, 0.01]])
    spec = lp.model_to_dict(lp.LevyModel(lp.GaussianPart(a=[[0.04, 0.0], [0.0, 0.04]]),
                                         lp.JumpSpec(0.1, law),
                                         lp.Rates(r=0.05, delta=[0.0, 0.0])))
    assert law.chol is law.chol
    assert np.array_equal(law.chol, np.linalg.cholesky(law.cov + 1e-300 * np.eye(2)))
    # the cached factor is not a field: JSON, equality and hashing ignore it
    assert set(spec["jumps"]) == {"kind", "lambda", "mean", "cov"}
    one = lp.MertonNormal(mean=[-0.1], cov=[[0.0225]])
    assert one.chol.shape == (1, 1)
    assert one == lp.MertonNormal(mean=[-0.1], cov=[[0.0225]])
    with pytest.raises(TypeError):
        hash(one)


class TestMertonLawAgainstScipy:
    LAW = lp.MertonNormal(mean=[0.0], cov=[[1.0]])

    def test_cdf(self):
        # past x = -37.68 ndtr underflows to 0 where erfc keeps subnormals
        x = np.linspace(-38.0, 38.0, 20001)
        got, ref = self.LAW.component_cdf(x, 0), ndtr_component_cdf(self.LAW, x, 0)
        assert np.all(np.abs(got - ref) <= 5e-13 * ref + 1e-300)  # measured 4.3e-13

    def test_quantile_within_five_ulp(self):
        tails = np.logspace(-16, -1, 1501)
        got = np.array([self.LAW.component_radius(0, t) for t in tails])
        ref = np.array([ndtri_component_radius(self.LAW, 0, t) for t in tails])
        assert np.all(np.abs(got - ref) <= 5 * np.spacing(ref))  # measured 4

    @pytest.mark.parametrize("name, solver, payoff, spot, T", [
        ("merton1d", "merton_put", "put100_1d", [100.0], 1.0),
        ("merton2d", "minput2d", "minput100_2d", [100.0, 100.0], 0.5)])
    def test_shipped_grids_and_stencils(self, name, solver, payoff, spot, T, monkeypatch):
        configs = MODEL_DIR.parent
        model = lp.load_model(MODEL_DIR / f"{name}.json")
        payoff = lp.load_payoff(configs / "payoffs" / f"{payoff}.json")
        cfg = lp.SolverConfig.from_dict(json.loads((configs / "solver" / f"{solver}.json").read_text()))

        def operator():
            grid = lp.build_grid(model, payoff, spot, T, cfg.n_space, cfg.n_time, cfg.beta,
                                 cfg.trunc_tol, cfg.y_max_tail)
            return grid, lp.assemble(model, grid, cfg.y_max_tail)

        grid, op = operator()
        monkeypatch.setattr(lp.MertonNormal, "component_cdf", ndtr_component_cdf)
        monkeypatch.setattr(lp.MertonNormal, "component_radius", ndtri_component_radius)
        ref_grid, ref_op = operator()
        assert grid.z_min.tobytes() == ref_grid.z_min.tobytes()
        assert grid.z_max.tobytes() == ref_grid.z_max.tobytes()
        assert op.offsets == ref_op.offsets
        assert np.abs(op.stencil - ref_op.stencil).max() <= 1e-16  # measured 1.2e-17

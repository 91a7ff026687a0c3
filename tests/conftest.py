import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import levypricer as lp
from levypricer.monte_carlo import MCConfig
from levypricer.pide import SolverConfig

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

SPOT = 100.0
STRIKE = 100.0


@pytest.fixture(scope="session")
def bs_model():
    return lp.LevyModel(lp.GaussianPart(a=[[0.04]]), lp.JumpSpec(0.0),
                        lp.Rates(r=0.05, delta=[0.0]))


@pytest.fixture(scope="session")
def merton_model():
    jumps = lp.JumpSpec(0.1, lp.MertonNormal(mean=[-0.1], cov=[[0.0225]]))
    return lp.LevyModel(lp.GaussianPart(a=[[0.04]]), jumps,
                        lp.Rates(r=0.05, delta=[0.0]))


@pytest.fixture(scope="session")
def kou_model():
    jumps = lp.JumpSpec(0.3, lp.KouDoubleExponential(p_up=[0.4], eta_plus=[10.0],
                                                     eta_minus=[5.0]))
    return lp.LevyModel(lp.GaussianPart(a=[[0.04]]), jumps,
                        lp.Rates(r=0.05, delta=[0.0]))


@pytest.fixture(scope="session")
def merton2d_model():
    a = [[0.04, 0.012], [0.012, 0.04]]
    jumps = lp.JumpSpec(0.1, lp.MertonNormal(mean=[-0.05, -0.05],
                                             cov=[[0.01, 0.0], [0.0, 0.01]]))
    return lp.LevyModel(lp.GaussianPart(a=a), jumps,
                        lp.Rates(r=0.05, delta=[0.02, 0.01]))


@pytest.fixture(scope="session")
def zero_rate_model():
    return lp.LevyModel(lp.GaussianPart(a=[[0.04]]), lp.JumpSpec(0.0),
                        lp.Rates(r=0.0, delta=[0.0]))


@pytest.fixture(scope="session")
def put_1d():
    return lp.Payoff.min_put(STRIKE, 1)


@pytest.fixture(scope="session")
def min_put_2d():
    return lp.Payoff.min_put(STRIKE, 2)


SOLVE_SECONDS = {}


def _solve_pair(model, payoff, spot, T, cfg, label=None):
    import time
    t0 = time.perf_counter()
    solves = lp.solve_pair(model, payoff, spot, T, cfg)
    if label:
        SOLVE_SECONDS[label] = time.perf_counter() - t0
    return solves


# acceptance-fixture solves, shared across the whole session

@pytest.fixture(scope="session")
def bs_cfg():
    return SolverConfig(n_space=801, n_time=400, beta=5.0, trunc_tol=1e-5)


@pytest.fixture(scope="session")
def bs_solves(bs_model, put_1d, bs_cfg):
    return _solve_pair(bs_model, put_1d, [SPOT], 1.0, bs_cfg, label="bs")


@pytest.fixture(scope="session")
def merton_cfg():
    return SolverConfig(n_space=801, n_time=400, beta=4.0, trunc_tol=1e-5)


@pytest.fixture(scope="session")
def merton_solves(merton_model, put_1d, merton_cfg):
    return _solve_pair(merton_model, put_1d, [SPOT], 1.0, merton_cfg, label="merton")


@pytest.fixture(scope="session")
def kou_cfg():
    return SolverConfig(n_space=801, n_time=200, beta=2.0, trunc_tol=1e-5)


@pytest.fixture(scope="session")
def kou_solves(kou_model, put_1d, kou_cfg):
    return _solve_pair(kou_model, put_1d, [SPOT], 1.0, kou_cfg, label="kou")


@pytest.fixture(scope="session")
def minput2d_cfg():
    return SolverConfig(n_space=151, n_time=50, beta=5.0, trunc_tol=1e-5)


@pytest.fixture(scope="session")
def minput2d_solves(merton2d_model, min_put_2d, minput2d_cfg):
    return _solve_pair(merton2d_model, min_put_2d, [SPOT, SPOT], 0.5, minput2d_cfg, label="minput2d")


@pytest.fixture(scope="session")
def zero_rate_cfg():
    return SolverConfig(n_space=401, n_time=100, beta=5.0, trunc_tol=1e-5)


@pytest.fixture(scope="session")
def zero_rate_solves(zero_rate_model, put_1d, zero_rate_cfg):
    return _solve_pair(zero_rate_model, put_1d, [SPOT], 1.0, zero_rate_cfg, label="zero_rate")


@pytest.fixture(scope="session")
def mc_cfg():
    return MCConfig(n_paths=100_000, n_steps=50, seed=20240901)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(987654321)

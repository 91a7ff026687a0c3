"""The names the benchmark tracer patches must exist where it patches them.

`perfbench/tracing.py` replaces each `TARGETS` entry in the namespace of the
module where callers look it up (`Tracer.install` reads `owner.__dict__`),
so a refactor that stops importing a name there breaks the benchmark with a
KeyError.  This checks every entry without running the benchmark.
"""

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module_name,path,span", tracing.TARGETS,
                         ids=[f"{m}:{p}" for m, p, _ in tracing.TARGETS])
def test_target_resolves_where_it_is_patched(module_name, path, span):
    owner, attr = tracing._resolve(module_name, path)
    assert attr in owner.__dict__, f"{module_name} no longer holds {path!r}"
    assert callable(owner.__dict__[attr])


def test_monte_carlo_simulates_through_the_patched_name(monkeypatch, bs_model, put_1d):
    # the `model.simulate_log_blocks` layer covers LSMC and European MC only
    # while they look the sampler up in `levypricer.monte_carlo`
    from levypricer import monte_carlo

    streams = []
    simulate = monte_carlo.simulate_log_blocks

    def counting(*args, stream=0, **kwargs):
        streams.append(stream)
        return simulate(*args, stream=stream, **kwargs)

    monkeypatch.setattr(monte_carlo, "simulate_log_blocks", counting)
    monte_carlo.price_american_ls(bs_model, put_1d, 0.0, [100.0], 1.0, 10, 200, seed=1)
    assert streams == [0, 1]
    monte_carlo.price_european_mc(bs_model, put_1d, 0.0, [100.0], 1.0, 200, seed=1)
    assert streams == [0, 1, 0]


def test_premium_sweep_interpolates_through_the_patched_name(monkeypatch, merton2d_model,
                                                             min_put_2d):
    # the `pide.interp_level` layer covers the sweep only while it looks the
    # interpolant up in `levypricer.monte_carlo`: u, u - psi and the jump
    # field, once each per step of each block
    import levypricer as lp
    from levypricer import monte_carlo
    from levypricer.pide import SolverConfig

    cfg = SolverConfig(n_space=51, n_time=10, beta=5.0, trunc_tol=1e-5)
    _, _, amer, _ = lp.solve_pair(merton2d_model, min_put_2d, [100.0, 100.0], 0.5, cfg)
    n_paths, tols = 8192 + 1000, (1e-5, 1e-6)  # two blocks
    plain = monte_carlo.premium_sweep(amer, [100.0, 100.0], n_paths, 3, tols)

    calls = []
    interp = monte_carlo.interp_level

    def counting(*args, **kwargs):
        calls.append(args[2])
        return interp(*args, **kwargs)

    monkeypatch.setattr(monte_carlo, "interp_level", counting)
    estimates, exit_fraction = monte_carlo.premium_sweep(amer, [100.0, 100.0], n_paths, 3, tols)
    assert exit_fraction == plain[1] == 0.0
    assert calls == 2 * [k for k in range(cfg.n_time) for _ in range(3)]
    assert estimates == plain[0]

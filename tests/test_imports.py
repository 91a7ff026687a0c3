import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
# the only scipy modules the package imports, where the 2D implicit step
# uses them: scipy.sparse for its matrices, scipy.sparse.linalg for SuperLU
DEFERRED = "(['scipy', 'sparse'],)"
# the modules whose numpy and stdlib replacements the package uses (Merton's
# normal CDF and quantile, the 2D convolution, the residual's masks); the
# tests keep them as oracles
REPLACED = "(['scipy', 'special'], ['scipy', 'fft'], ['scipy', 'ndimage'])"


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _loaded(modules: str) -> str:
    return f"print(sorted(m for m in sys.modules if m.split('.')[:2] in {modules}))"


def _scipy_modules(code: str) -> str:
    """Modules named scipy or scipy.* that a fresh interpreter holds after `code`."""
    return _run(f"import sys\n{code}\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))").strip()


def _quiet_main(argv) -> str:
    return (f"import contextlib, io; from levypricer import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()): assert cli.main({argv!r}) == 0")


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.stats and scipy.signal cost about a second of import time
    # between them; the package needs neither, and defers every submodule
    # it uses: scipy.sparse to the first operator assembly
    assert _scipy_modules("import levypricer") == "[]"


def test_validate_loads_no_scipy():
    argv = ["validate", "--model", str(ROOT / "configs/models/kou1d.json")]
    assert _scipy_modules(_quiet_main(argv)) == "[]"


def test_monte_carlo_price_loads_no_scipy(tmp_path):
    mc = tmp_path / "mc.json"
    mc.write_text(json.dumps({"n_paths": 2000, "n_steps": 20, "seed": 5}))
    argv = ["price", "--method", "mc", "--model", str(ROOT / "configs/models/kou1d.json"),
            "--payoff", str(ROOT / "configs/payoffs/put100_1d.json"), "--spot", "100",
            "--T", "1", "--mc-config", str(mc), "--out", str(tmp_path / "out")]
    assert _scipy_modules(_quiet_main(argv)) == "[]"
    assert "mc" in json.loads((tmp_path / "out" / "price.json").read_text())


def test_kou_price_loads_no_deferred_scipy_submodule(tmp_path):
    solver = tmp_path / "solver.json"
    solver.write_text(json.dumps({"n_space": 101, "n_time": 20, "beta": 2.0}))
    mc = tmp_path / "mc.json"
    mc.write_text(json.dumps({"n_paths": 2000, "n_steps": 20, "seed": 5}))
    argv = ["price", "--method", "both", "--model", str(ROOT / "configs/models/kou1d.json"),
            "--payoff", str(ROOT / "configs/payoffs/put100_1d.json"), "--spot", "100",
            "--T", "1", "--solver-config", str(solver), "--mc-config", str(mc),
            "--out", str(tmp_path / "out")]
    assert _run(f"import sys\n{_quiet_main(argv)}\n{_loaded(DEFERRED)}").strip() == "[]"
    assert (tmp_path / "out" / "european_solution.csv").exists()


@pytest.mark.parametrize("model", ["kou1d", "bs1d", "empirical1d", "merton1d"])
def test_one_dimensional_price_loads_no_scipy(tmp_path, model):
    # a 1D PIDE solve factors its tridiagonal matrices in numpy, and a Merton
    # stencil takes its normal CDF and quantile from the stdlib
    solver = tmp_path / "solver.json"
    solver.write_text(json.dumps({"n_space": 101, "n_time": 20, "beta": 2.0}))
    mc = tmp_path / "mc.json"
    mc.write_text(json.dumps({"n_paths": 2000, "n_steps": 20, "seed": 5}))
    argv = ["price", "--method", "both", "--model", str(ROOT / f"configs/models/{model}.json"),
            "--payoff", str(ROOT / "configs/payoffs/put100_1d.json"), "--spot", "100",
            "--T", "1", "--solver-config", str(solver), "--mc-config", str(mc),
            "--out", str(tmp_path / "out")]
    assert _scipy_modules(_quiet_main(argv)) == "[]"
    assert (tmp_path / "out" / "american_solution.csv").exists()


def test_two_dimensional_price_loads_only_the_sparse_modules(tmp_path):
    solver = tmp_path / "solver.json"
    solver.write_text(json.dumps({"n_space": 51, "n_time": 10, "beta": 5.0, "trunc_tol": 1e-5}))
    argv = ["price", "--method", "pide", "--model", str(ROOT / "configs/models/merton2d.json"),
            "--payoff", str(ROOT / "configs/payoffs/minput100_2d.json"), "--spot", "100,100",
            "--T", "0.5", "--solver-config", str(solver), "--out", str(tmp_path / "out")]
    out = _run(f"import sys\n{_quiet_main(argv)}\n{_loaded(REPLACED)}\n{_loaded(DEFERRED)}")
    replaced, deferred = out.strip().splitlines()
    assert replaced == "[]"
    assert "'scipy.sparse.linalg'" in deferred
    assert (tmp_path / "out" / "american_solution.csv").exists()


def test_one_dimensional_converge_loads_no_scipy(tmp_path):
    # the residual's exercise-band masks are numpy shifts
    argv = ["converge", "--model", str(ROOT / "configs/models/bs1d.json"),
            "--payoff", str(ROOT / "configs/payoffs/put100_1d.json"), "--spot", "100",
            "--T", "1", "--levels", "51,10,500;101,20,500;201,40,500",
            "--out", str(tmp_path / "out")]
    assert _scipy_modules(_quiet_main(argv)) == "[]"
    assert (tmp_path / "out" / "converge.csv").exists()

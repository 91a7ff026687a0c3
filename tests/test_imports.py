import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
# loaded where they are used: scipy.special for Merton stencils, scipy.fft
# for 2D jump convolutions, scipy.ndimage for the complementarity residual
DEFERRED = "(['scipy', 'special'], ['scipy', 'ndimage'], ['scipy', 'fft'])"


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


@pytest.mark.parametrize("model", ["kou1d", "bs1d", "empirical1d"])
def test_one_dimensional_price_loads_no_scipy(tmp_path, model):
    # a 1D PIDE solve factors its tridiagonal matrices in numpy; a Merton
    # stencil (scipy.special) and a 2D solve (scipy.sparse) still load scipy
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

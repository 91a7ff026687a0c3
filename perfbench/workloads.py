"""Workload definitions, generated inputs, the jobs and their correctness checks.

Every job reads only spec files that `make_inputs` copied or wrote into a
per-run work directory; the Monte Carlo seed in those files is the
benchmark's `--seed`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# Relative tolerance of PIDE prices against reference.json (acceptance criterion 1).
PRICE_RTOL = 5e-3
EXIT_FRACTION_MAX = 1e-3


def _solver(n_space: int, n_time: int, beta: float) -> dict:
    """Solver spec with the shipped penalty ladder and tolerances."""
    return {"n_space": n_space, "n_time": n_time, "beta": beta,
            "penalty_ladder": [100.0, 1000.0, 10000.0], "trunc_tol": 1e-5,
            "y_max_tail": 1e-10, "exercise_tol": 1e-6}


# Whole 8192-path blocks of `simulate_log_blocks`.  Sizes are kept small
# enough for several jobs per run: at the acceptance sizes (100k paths,
# 151^2 x 50) a job takes 10-70 s.
_PATHS = 16_384

WORKLOADS = {
    "identity-minput2d": {
        "kind": "identity",
        "why": "2D min-put report where obstacle Newton refactorization (splu) dominates; "
               "MC is a minor single-thread share.",
        "model": "configs/models/merton2d.json",
        "payoff": "configs/payoffs/minput100_2d.json",
        "spot": [100.0, 100.0],
        "T": 0.5,
        "n_threads": 1,
        # 61^2 x 20: splu is still most of the job, and the identity gap is
        # two thirds of its tolerance (at 51^2 it fails for some seeds)
        "full": {"solver": _solver(61, 20, 5.0),
                 "mc": {"n_paths": _PATHS}},
        "tiny": {"solver": _solver(61, 10, 5.0),
                 "mc": {"n_paths": 4_000}},
    },
    "price-kou1d-cli": {
        "kind": "cli",
        "why": "levypricer price --method both as a subprocess: CSV export, LSMC and European MC, "
               "Kou sampler, interpreter start and import.",
        "model": "configs/models/kou1d.json",
        "payoff": "configs/payoffs/put100_1d.json",
        "mc_base": "configs/mc/default.json",
        "spot": [100.0],
        "T": 1.0,
        "n_threads": 1,
        # kou_put.json at half resolution in space and time (401 x 100): the two
        # CSVs then have 40k rows each instead of 161k
        "full": {"solver": _solver(401, 100, 2.0),
                 "mc": {"n_paths": _PATHS}},
        "tiny": {"solver": _solver(201, 40, 2.0),
                 "mc": {"n_paths": 4_000, "n_steps": 10}},
    },
}

CSV_HEADER_1D = "t,z,price,u,psi,exercised,jump_field"


def _read(root: Path, path: str) -> dict:
    return json.loads((root / path).read_text())


def make_inputs(root: Path, work: Path, name: str, seed: int, size: str) -> dict:
    """Write the workload's spec files into `work`; return the job inputs."""
    wl = WORKLOADS[name]
    sized = wl[size]
    work.mkdir(parents=True, exist_ok=True)
    solver = sized["solver"]
    seed = seed % 2**32     # SeedSequence takes non-negative seeds only
    if wl["kind"] == "identity":
        # the premium sweep steps on the PIDE time grid
        mc = {**sized["mc"], "n_steps": solver["n_time"], "seed": seed,
              "n_threads": wl["n_threads"]}
    else:
        mc = {**_read(root, wl["mc_base"]), **sized["mc"], "seed": seed}
    files = {}
    for key, spec in (("model", _read(root, wl["model"])),
                      ("payoff", _read(root, wl["payoff"])),
                      ("solver", solver), ("mc", mc)):
        files[key] = str(work / f"{key}.json")
        Path(files[key]).write_text(json.dumps(spec, indent=1) + "\n")
    return {"workload": name, "kind": wl["kind"], "size": size, "seed": seed,
            "spot": wl["spot"], "T": wl["T"], "n_threads": wl["n_threads"],
            "solver": solver, "mc": mc, "files": files}


# --------------------------------------------------------------------------- #
# Identity workloads: the `levypricer premium` pipeline, in process
# --------------------------------------------------------------------------- #

def identity_job(inputs: dict) -> tuple[dict, float, float]:
    """build_grid -> assemble -> American -> European -> premium_identity.

    Returns (outputs, first_price_s, job_s).  Functions are looked up on
    their modules at call time so that the traced run sees its wrappers.
    """
    from levypricer import model as model_mod, monte_carlo, payoffs, pide, premium
    files = inputs["files"]
    t0 = time.perf_counter()
    model = model_mod.load_model(files["model"])
    payoff = payoffs.load_payoff(files["payoff"])
    cfg = pide.SolverConfig.from_dict(json.loads(Path(files["solver"]).read_text()))
    mc = monte_carlo.MCConfig.from_dict(json.loads(Path(files["mc"]).read_text()))
    spot, T = inputs["spot"], inputs["T"]
    grid = pide.build_grid(model, payoff, spot, T, cfg.n_space, cfg.n_time,
                           cfg.beta, cfg.trunc_tol, cfg.y_max_tail)
    operator = pide.assemble(model, grid, cfg.y_max_tail)
    amer = pide.solve_american_penalty(model, payoff, grid, operator,
                                       penalty=cfg.penalty_ladder,
                                       exercise_tol=cfg.exercise_tol)
    first_price = time.perf_counter() - t0
    eur = pide.solve_european(model, payoff, grid, operator)
    report = premium.premium_identity(model, payoff, spot, T, cfg, mc,
                                      solutions=(amer, eur))
    job = time.perf_counter() - t0
    out = {"american": report.american_pide, "european": report.european_pide,
           "premium_mean": report.premium_mc.mean, "premium_stderr": report.premium_mc.stderr,
           "identity_gap": report.identity_gap, "tolerance": report.tolerance,
           "sensitivity": [report.sensitivity[k] for k in sorted(report.sensitivity)],
           "exit_fraction": report.exit_fraction, "passed": report.passed}
    return out, first_price, job


def check_identity(out: dict, ref: dict) -> list[str]:
    problems = []
    if not out["passed"]:
        problems.append(f"report failed: gap {out['identity_gap']:.4g} "
                        f"vs tolerance {out['tolerance']:.4g}")
    if not 0.0 <= out["european"] <= out["american"]:
        problems.append(f"need 0 <= european {out['european']} <= american {out['american']}")
    if not out["exit_fraction"] < EXIT_FRACTION_MAX:
        problems.append(f"exit fraction {out['exit_fraction']}")
    problems += _check_prices(out, ref)
    return problems


def _check_prices(prices: dict, ref: dict) -> list[str]:
    return [f"{key} {prices[key]!r} differs from reference {ref[key]!r} "
            f"by more than {PRICE_RTOL:g} relative"
            for key in ("american", "european")
            if not abs(prices[key] - ref[key]) <= PRICE_RTOL * abs(ref[key])]


# --------------------------------------------------------------------------- #
# CLI workload: `levypricer price --method both`
# --------------------------------------------------------------------------- #

def cli_argv(inputs: dict, out_dir: Path) -> list[str]:
    files = inputs["files"]
    return ["price", "--method", "both", "--model", files["model"],
            "--payoff", files["payoff"], "--spot", ",".join(map(str, inputs["spot"])),
            "--T", str(inputs["T"]), "--solver-config", files["solver"],
            "--mc-config", files["mc"], "--threads", str(inputs["n_threads"]),
            "--out", str(out_dir)]


def cli_subprocess_job(inputs: dict, out_dir: Path,
                       poll_s: float = 0.002) -> tuple[dict, float, float, int]:
    """Run the CLI as a child process.

    Returns (outputs, first_price_s, job_s, child peak RSS in KiB).  The
    American PIDE price exists once the child creates american_solution.csv,
    which it does right after the American solve; polling for that file
    times first_price_s from outside the process.
    """
    first_artifact = out_dir / "american_solution.csv"
    argv = [sys.executable, "-m", "levypricer.cli", *cli_argv(inputs, out_dir)]
    with open(out_dir.parent / "stdout.txt", "wb") as so, \
            open(out_dir.parent / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se)
        first_price, pid = None, 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if first_price is None and first_artifact.exists():
                    first_price = time.perf_counter() - t0
                time.sleep(poll_s)
        finally:
            if not pid:
                proc.kill()
                proc.wait()
        job = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (out_dir.parent / "stderr.txt").read_text()
    out = collect_cli_outputs(inputs, out_dir, proc.returncode, stderr)
    return out, (job if first_price is None else first_price), job, usage.ru_maxrss


def setup_probe(inputs: dict, probe_script: Path) -> float:
    """One cold start in a fresh interpreter; seconds (see README, setup_s)."""
    files = inputs["files"]
    if inputs["kind"] == "cli":
        argv = [sys.executable, "-m", "levypricer.cli", "validate", "--model", files["model"]]
    else:
        argv = [sys.executable, str(probe_script), files["model"], files["payoff"],
                files["solver"], ",".join(map(str, inputs["spot"])), str(inputs["T"])]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return wall if inputs["kind"] == "cli" else float(proc.stdout.split()[-1])


def cli_inprocess_job(inputs: dict, out_dir: Path) -> tuple[dict, float]:
    """Call `levypricer.cli.main` in this process (the traced CLI pass)."""
    from levypricer import cli
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(cli_argv(inputs, out_dir))
    job = time.perf_counter() - t0
    return collect_cli_outputs(inputs, out_dir, code, ""), job


def collect_cli_outputs(inputs: dict, out_dir: Path, code: int, stderr: str) -> dict:
    out = {"exit_code": code,
           "lsmc_shrink_warnings": sum("shrinking" in line for line in stderr.splitlines())}
    price_path = out_dir / "price.json"
    out["price"] = json.loads(price_path.read_text()) if price_path.exists() else None
    for kind in ("american", "european"):
        path = out_dir / f"{kind}_solution.csv"
        if path.exists():
            data = path.read_bytes()
            out[f"{kind}_csv"] = {"header": data[:data.index(b"\n")].decode(),
                                  "rows": data.count(b"\n") - 1,
                                  "bytes": len(data),
                                  "sha256": hashlib.sha256(data).hexdigest()}
    return out


def check_cli(out: dict, inputs: dict, ref: dict) -> list[str]:
    if out["exit_code"] != 0:
        return [f"exit code {out['exit_code']}"]
    problems = []
    solver = inputs["solver"]
    rows = (solver["n_time"] + 1) * solver["n_space"]
    for kind in ("american", "european"):
        csv = out.get(f"{kind}_csv")
        if csv is None:
            problems.append(f"{kind}_solution.csv missing")
            continue
        if csv["header"] != CSV_HEADER_1D:
            problems.append(f"{kind} CSV header {csv['header']!r}")
        if csv["rows"] != rows:
            problems.append(f"{kind} CSV has {csv['rows']} rows, expected {rows}")
    price = out["price"]
    if price is None or "pide" not in price:
        return problems + ["price.json missing or without PIDE prices"]
    return problems + _check_prices(price["pide"], ref)


def outputs_equal(a: dict, b: dict) -> bool:
    """Bitwise comparison of two job outputs, ignoring captured-stderr counts."""
    skip = {"lsmc_shrink_warnings"}
    return ({k: v for k, v in a.items() if k not in skip}
            == {k: v for k, v in b.items() if k not in skip})

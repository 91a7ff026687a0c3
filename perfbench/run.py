"""levypricer benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S    # every workload, one table

Run from anywhere inside a checkout that holds `src/levypricer` and
`configs/`.  Set-up probes and the workload run in fresh child processes
with BLAS/OpenMP threads pinned to 1; everything is written under
`.perfbench-out/` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_LIMIT_S = 170.0   # every run must end within 180 s

END_TO_END = (("setup_s", "s"), ("first_price_s", "s"), ("job_s", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {
    "pide.solve_american_penalty.s": "s", "pide.solve_american_penalty.self_s": "s",
    "pide.splu.calls": "count", "pide.splu.s": "s",
    "pide.DiscreteOperator.convolve.calls": "count", "pide.DiscreteOperator.convolve.s": "s",
    "pide.solve_european.s": "s", "pide.build_grid.s": "s", "pide.assemble.s": "s",
    "pide.interp_level.calls": "count", "pide.interp_level.s": "s",
    "pide.export_solution_csv.s": "s", "pide.export_solution_csv.bytes": "bytes",
    "model.simulate_log_blocks.s": "s", "model.simulate_log_blocks.path_steps": "count",
    "model.path_steps_per_s": "1/s",
    "payoffs.Payoff.psi_minus.calls": "count", "payoffs.Payoff.psi_minus.s": "s",
    "payoffs.Payoff.evaluate.s": "s",
    "monte_carlo.premium_sweep.s": "s", "monte_carlo.premium_sweep.self_s": "s",
    "monte_carlo.price_american_ls.s": "s", "monte_carlo.price_american_ls.self_s": "s",
    "monte_carlo.price_european_mc.s": "s", "monte_carlo.exit_fraction": "ratio",
    "monte_carlo.lsmc_shrink_warnings": "count",
    "premium.premium_identity.s": "s", "premium.premium_identity.self_s": "s",
    "premium.identity_gap_over_tol": "ratio",
    "cli.main.s": "s", "cli.overhead_s": "s", "trace.overhead_frac": "ratio",
}


def child_env() -> dict:
    """Environment of every child: threads pinned, the checkout's sources first."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    env.pop("LEVYPRICER_THREADS", None)
    return env


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    pct = 100 * (n - 10) // n
    return pct, sorted(samples)[(pct * n) // 100 - 1]


def run_worker(args, work: Path, out: Path, env: dict, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
            "--work", str(work), "--out", str(out)]
    # own process group, so that a timeout also ends the worker's children
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_one(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    out = ROOT / ".perfbench-out"
    (out / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out / "work"))
    env = child_env()
    try:
        rec = run_worker(args, work, out, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = rec["attempted"], rec["failed"]
    if args.trace:
        metrics = {name: {"value": rec["layers"].get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        samples = rec["samples"] or [{"first_price_s": 0.0, "job_s": 0.0}]
        firsts = [s["first_price_s"] for s in samples]
        jobs = [s["job_s"] for s in samples]
        values = {"setup_s": statistics.median(rec["setup_samples_s"]),
                  "first_price_s": statistics.median(firsts),
                  "job_s": statistics.median(jobs),
                  "peak_rss_mb": rec["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        tail = tail_percentile(jobs)
        if tail:
            rec[f"job_s_p{tail[0]}"] = tail[1]

    wl = workloads.WORKLOADS[args.workload]
    rec.update({"workload": args.workload, "why": wl["why"], "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "size": args.size})
    (out / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1) + "\n")

    print(f"workload {args.workload}: {wl['why']}")
    print(f"machine {json.dumps(rec['machine'])}")
    print(f"inputs {json.dumps(rec['inputs'])}")
    for problem in rec["problems"]:
        print(f"FAILED: {problem}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'(jobs in the run)':40s} {len(rec['samples']):>14d}")
        if tail:
            print(f"  {'job_s p' + str(tail[0]):40s} {tail[1]:>14.6g} s")
    print(f"  {'failed_frac':40s} {failed / max(attempted, 1):>14.6g} ratio "
          f"({failed} of {attempted} jobs)")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one summary table."""
    rows, code = [], 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "0", "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows.append((name, json.loads(lines[-1]) if lines else None))
    print(f"\n{'workload':20s} " + " ".join(f"{n + ' [' + u + ']':>18s}" for n, u in END_TO_END)
          + f" {'failed_frac':>12s}")
    for name, res in rows:
        if res is None:
            print(f"{name:20s} no result")
            continue
        vals = " ".join(f"{res['metrics'][n]['value']:>18.4f}" for n, _ in END_TO_END)
        print(f"{name:20s} {vals} {res['failed'] / res['attempted']:>12.3g}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levypricer" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no levypricer checkout (src/levypricer, configs/)",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

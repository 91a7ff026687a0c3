"""Runs one workload's jobs in a fresh process and prints a JSON record.

Started by run.py with the thread variables pinned and `src` on PYTHONPATH:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --size full|tiny --work DIR --out DIR

With --trace 0 it runs untraced jobs back to back (a closed loop) for about
S seconds.  With --trace 1 it runs rounds of one untraced and one traced
in-process job; the traced job must reproduce the untraced outputs bitwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_REPS = 5


def _reference(name: str, size: str) -> dict:
    table = json.loads((Path(__file__).parent / "reference.json").read_text())
    return table[name][size]


class Runner:
    """Runs and checks jobs of one workload, keeping the per-job records."""

    def __init__(self, args):
        self.args = args
        self.work = Path(args.work)
        self.inputs = workloads.make_inputs(ROOT, self.work / "inputs", args.workload,
                                            args.seed, args.size)
        self.ref = _reference(args.workload, args.size)
        self.kind = self.inputs["kind"]
        self.shrinks = tracing.route_mc_warnings()
        self.n_jobs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _job_dir(self) -> Path:
        self.n_jobs += 1
        path = self.work / f"job{self.n_jobs}"
        path.mkdir()
        return path

    def run(self, inputs: dict, in_process: bool) -> dict | None:
        """One job; None if it raised.

        Returns {"out", "first_price_s", "job_s", "rss_kb"}; rss_kb is the
        child's peak RSS for a CLI subprocess job and None otherwise.
        """
        job_dir = self._job_dir()
        rss_kb = None
        try:
            if self.kind == "identity":
                out, first, job = workloads.identity_job(inputs)
            elif in_process:
                out, job = workloads.cli_inprocess_job(inputs, job_dir / "out")
                first = None
            else:
                out, first, job, rss_kb = workloads.cli_subprocess_job(inputs,
                                                                       job_dir / "out")
        except Exception:  # a job that raises counts as failed; keep measuring
            self.problems.append(traceback.format_exc(limit=3))
            return None
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)
        return {"out": out, "first_price_s": first, "job_s": job, "rss_kb": rss_kb}

    def checked(self, rec: dict | None) -> bool:
        """Count the job as attempted and run its correctness checks."""
        self.attempted += 1
        if rec is None:
            problems = ["job raised"]
        elif self.kind == "identity":
            problems = workloads.check_identity(rec["out"], self.ref)
        else:
            problems = workloads.check_cli(rec["out"], self.inputs, self.ref)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def warm_up(self) -> None:
        """One tiny in-process job, so lazy imports and first calls are not timed."""
        tiny = workloads.make_inputs(ROOT, self.work / "warmup", self.args.workload,
                                     self.args.seed, "tiny")
        self.run(tiny, in_process=True)


def untraced_loop(runner: Runner, seconds: float) -> dict:
    """Closed loop of jobs, with a set-up probe before each of the first
    SETUP_REPS jobs.

    Interleaving the probes with jobs spreads them over the run, so their
    median does not hang on one slow stretch of a shared machine.
    """
    samples, setup = [], []
    rss_kb = 0
    start = time.perf_counter()
    while True:
        if len(setup) < SETUP_REPS:
            setup.append(workloads.setup_probe(runner.inputs, PROBE))
        rec = runner.run(runner.inputs, in_process=False)
        if runner.checked(rec):
            samples.append({"first_price_s": rec["first_price_s"], "job_s": rec["job_s"],
                            "lsmc_shrink_warnings": rec["out"].get("lsmc_shrink_warnings", 0)})
            rss_kb = max(rss_kb, rec["rss_kb"] or 0)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / runner.attempted > seconds:
            break
    while len(setup) < SETUP_REPS:
        setup.append(workloads.setup_probe(runner.inputs, PROBE))
    if runner.kind == "identity":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"samples": samples, "setup_samples_s": setup, "peak_rss_mb": rss_kb / 1024.0}


def traced_loop(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Rounds of an untraced and a traced in-process job with equal outputs.

    On the CLI workload each round also runs the untraced subprocess job,
    whose wall time minus the traced `cli.main` gives `cli.overhead_s`.
    """
    tracer = tracing.Tracer()
    rounds = []
    start = time.perf_counter()
    while True:
        jobs = [runner.run(runner.inputs, in_process=True)]
        tracer.job = runner.n_jobs
        shrinks0 = runner.shrinks.count
        tracer.install()
        try:
            jobs.append(runner.run(runner.inputs, in_process=True))
        finally:
            tracer.uninstall()
        shrinks = runner.shrinks.count - shrinks0
        if runner.kind == "cli":
            jobs.append(runner.run(runner.inputs, in_process=False))
        ok = all([runner.checked(rec) for rec in jobs])
        if ok and not workloads.outputs_equal(jobs[0]["out"], jobs[1]["out"]):
            runner.failed += 1
            runner.problems.append("traced outputs differ from untraced outputs")
            ok = False
        if ok:
            rounds.append((tracer.job, jobs, shrinks))
        elapsed = time.perf_counter() - start
        per_round = elapsed * len(jobs) / runner.attempted
        if elapsed + per_round > seconds:
            break
    tracer.write_spans(spans_path)
    stats = tracer.per_job()
    per_round = [layer_metrics(runner.kind, stats.get(job, {}), tracer.counts, job, jobs,
                               shrinks)
                 for job, jobs, shrinks in rounds]
    return {"layers": {name: statistics.median(m[name] for m in per_round)
                       for name in (per_round[0] if per_round else {})},
            "rounds": len(rounds)}


def layer_metrics(kind: str, spans: dict, counts: dict, job: int, jobs: list,
                  shrinks: int) -> dict:
    m = {name: spans.get(span, {}).get(stat, 0)
         for name, span, stat in tracing.SPAN_METRICS}
    m["pide.export_solution_csv.bytes"] = counts.get((job, "pide.export_solution_csv.bytes"), 0)
    steps = counts.get((job, "model.simulate_log_blocks.path_steps"), 0)
    m["model.simulate_log_blocks.path_steps"] = steps
    sim_s = m["model.simulate_log_blocks.s"]
    m["model.path_steps_per_s"] = steps / sim_s if sim_s > 0 else 0.0
    plain, traced = jobs[0], jobs[1]
    identity = kind == "identity"
    out = traced["out"]
    m["monte_carlo.exit_fraction"] = out["exit_fraction"] if identity else 0.0
    m["monte_carlo.lsmc_shrink_warnings"] = shrinks
    m["premium.identity_gap_over_tol"] = (out["identity_gap"] / out["tolerance"]
                                          if identity else 0.0)
    m["cli.overhead_s"] = 0.0 if identity else jobs[2]["job_s"] - m["cli.main.s"]
    m["trace.overhead_frac"] = traced["job_s"] / plain["job_s"] - 1.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    runner = Runner(args)
    runner.warm_up()
    if args.trace:
        spans = Path(args.out) / f"spans-{args.workload}-seed{args.seed}.csv"
        result = traced_loop(runner, args.seconds, spans)
    else:
        result = untraced_loop(runner, args.seconds)
    result.update({
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems[:10],
        "inputs": {k: runner.inputs[k] for k in ("spot", "T", "n_threads", "solver", "mc")},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "platform": platform.platform()},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

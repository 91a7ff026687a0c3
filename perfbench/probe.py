"""Set-up probe for the in-process workloads; run in a fresh interpreter.

    python3 perfbench/probe.py MODEL.json PAYOFF.json SOLVER.json SPOT T

Prints the seconds spent importing levypricer, loading the model and payoff
specs, and running build_grid and assemble.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from levypricer import model, payoffs, pide  # noqa: E402


def main(model_path, payoff_path, solver_path, spot, T) -> None:
    m = model.load_model(model_path)
    p = payoffs.load_payoff(payoff_path)
    with open(solver_path) as fh:
        cfg = pide.SolverConfig.from_dict(json.load(fh))
    grid = pide.build_grid(m, p, [float(v) for v in spot.split(",")], float(T),
                           cfg.n_space, cfg.n_time, cfg.beta, cfg.trunc_tol, cfg.y_max_tail)
    pide.assemble(m, grid, cfg.y_max_tail)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(*sys.argv[1:])

"""Command-line entry point.

Subcommands: validate (drift calibration and integrability table), price
(PIDE and/or Monte Carlo prices), premium (identity report plus boundary
CSV), converge (refinement study).  Stdout carries only a summary JSON;
arrays go to files in --out.  Exit codes: 0 success, 1 domain failure,
2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import premium as premium_mod
from .errors import PricingError
from .model import exp_moment, load_model, model_to_dict, read_json, validate_integrability
from .monte_carlo import MCConfig, price_american_ls, price_european_mc, RegressionBasis
from .payoffs import load_payoff
from .pide import SolverConfig, complementarity_residual, export_solution_csv, solve_pair
# not called here since solve_pair runs them; perfbench/tracing.py patches these names here
from .pide import assemble, build_grid, solve_american_penalty, solve_european  # noqa: F401

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

def _load_inputs(args):
    model = load_model(args.model)
    payoff = load_payoff(args.payoff)
    spot = np.array([float(v) for v in str(args.spot).split(",")])
    solver_cfg = SolverConfig.from_dict(read_json(args.solver_config)) \
        if getattr(args, "solver_config", None) else SolverConfig()
    mc_cfg = MCConfig.from_dict(read_json(args.mc_config)) \
        if getattr(args, "mc_config", None) else MCConfig()
    if args.threads is not None:
        mc_cfg = dataclasses.replace(mc_cfg, n_threads=args.threads)
    return model, payoff, spot, solver_cfg, mc_cfg


def _emit(summary: dict, out_dir: str | None, name: str) -> None:
    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / name).write_text(text + "\n")


def _diagnostics(amer) -> dict:
    """Per-rung counts of the American solve: counts only, never timings."""
    return {key: amer.metadata[key]
            for key in ("newton_solves", "factorizations", "update_columns")}


def cmd_validate(args) -> int:
    model = load_model(args.model)
    p = float(args.p)
    report = validate_integrability(model.jumps, p, float(args.beta), float(args.epsilon))
    mart = [exp_moment(model, 1.0, i, 1.0) for i in range(model.dim)]
    target = np.exp(model.rates.r - model.rates.delta)
    summary = {
        "model": model_to_dict(model),
        "calibrated_drift": model.log_drift.tolist(),
        "martingale_check": {
            "exp_moment_q1_t1": mart,
            "target": target.tolist(),
            "max_abs_gap": float(np.abs(np.asarray(mart) - target).max()),
        },
        "integrability": report.to_dict(),
    }
    _emit(summary, args.out, "validate.json")
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_price(args) -> int:
    model, payoff, spot, solver_cfg, mc_cfg = _load_inputs(args)
    T = float(args.T)
    summary = {"spot": spot.tolist(), "T": T, "method": args.method}
    if args.method in ("pide", "both"):
        _, _, amer, eur = solve_pair(model, payoff, spot, T, solver_cfg)
        summary["pide"] = {"european": eur.value_at_spot(), "american": amer.value_at_spot()}
        summary["diagnostics"] = _diagnostics(amer)
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            export_solution_csv(amer, Path(args.out) / "american_solution.csv")
            export_solution_csv(eur, Path(args.out) / "european_solution.csv")
    if args.method in ("mc", "both"):
        eur_mc = price_european_mc(model, payoff, 0.0, spot, T,
                                   mc_cfg.n_paths, mc_cfg.seed, mc_cfg.n_threads)
        amer_mc = price_american_ls(model, payoff, 0.0, spot, T, mc_cfg.n_steps,
                                    mc_cfg.n_paths,
                                    RegressionBasis(degree=mc_cfg.basis_degree),
                                    mc_cfg.seed, mc_cfg.n_threads)
        summary["mc"] = {"european": eur_mc.to_dict(), "american": amer_mc.to_dict()}
    if args.method == "both":
        gap_e = abs(summary["pide"]["european"] - summary["mc"]["european"]["mean"])
        gap_a = abs(summary["pide"]["american"] - summary["mc"]["american"]["mean"])
        summary["cross_method_gap"] = {
            "european_abs": gap_e,
            "american_abs": gap_a,
            "european_rel": gap_e / max(abs(summary["pide"]["european"]), 1e-300),
            "american_rel": gap_a / max(abs(summary["pide"]["american"]), 1e-300),
        }
    _emit(summary, args.out, "price.json")
    return EXIT_OK


def cmd_premium(args) -> int:
    model, payoff, spot, solver_cfg, mc_cfg = _load_inputs(args)
    T = float(args.T)
    premium_mod.check_admissible(model, payoff, solver_cfg)
    grid, _, amer, eur = solve_pair(model, payoff, spot, T, solver_cfg)
    report = premium_mod.premium_identity(model, payoff, spot, T, solver_cfg, mc_cfg,
                                          solutions=(amer, eur))
    summary = {**report.to_dict(), "diagnostics": _diagnostics(amer)}
    _emit(summary, args.out, "premium.json")
    if args.out and grid.dim == 1:
        rows = premium_mod.boundary_curve(amer, payoff)
        with open(Path(args.out) / "boundary.csv", "w") as fh:
            fh.write("t,boundary_price\n")
            for t, b in rows:
                fh.write(f"{t:.10g},{'' if np.isnan(b) else f'{b:.10g}'}\n")
    return EXIT_OK if report.passed else EXIT_DOMAIN


def cmd_converge(args) -> int:
    model, payoff, spot, solver_cfg, mc_cfg = _load_inputs(args)
    T = float(args.T)
    levels = [tuple(int(v) for v in part.split(",")) for part in args.levels.split(";")]
    if len(levels) < 3 or any(len(level) != 3 for level in levels):
        raise ValueError("need at least 3 refinement levels, each n_space,n_time,n_paths")
    premium_mod.check_admissible(model, payoff, solver_cfg)
    rows, diagnostics = [], []
    for i, (ns, nt, npaths) in enumerate(levels):
        t0 = time.perf_counter()
        cfg = dataclasses.replace(solver_cfg, n_space=ns, n_time=nt)
        mc = dataclasses.replace(mc_cfg, n_paths=npaths)
        _, operator, amer, eur = solve_pair(model, payoff, spot, T, cfg)
        report = premium_mod.premium_identity(model, payoff, spot, T, cfg, mc,
                                              solutions=(amer, eur))
        _, resid = complementarity_residual(amer, operator, payoff)
        rows.append({
            "level": i, "n_space": ns, "n_time": nt, "n_paths": npaths,
            "american": amer.value_at_spot(), "european": eur.value_at_spot(),
            "premium_gap": report.identity_gap, "complementarity_maxnorm": resid,
            "runtime_s": time.perf_counter() - t0,
        })
        diagnostics.append(_diagnostics(amer))
    summary = {"levels": rows, "diagnostics": diagnostics}
    _emit(summary, args.out, "converge.json")
    if args.out:
        with open(Path(args.out) / "converge.csv", "w") as fh:
            cols = ["level", "n_space", "n_time", "n_paths", "american", "european",
                    "premium_gap", "complementarity_maxnorm", "runtime_s"]
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(f"{row[c]:.10g}" if isinstance(row[c], float)
                                  else str(row[c]) for c in cols) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="levypricer",
                                     description="American/European option pricing "
                                                 "in exponential Levy models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_payoff=True):
        p.add_argument("--model", required=True, help="model spec JSON")
        if needs_payoff:
            p.add_argument("--payoff", required=True, help="payoff spec JSON")
            p.add_argument("--spot", required=True, help="spot price(s), comma separated")
            p.add_argument("--T", required=True, help="maturity in years")
            p.add_argument("--solver-config", dest="solver_config", help="solver config JSON")
            p.add_argument("--mc-config", dest="mc_config", help="MC config JSON")
            p.add_argument("--threads", type=int, default=None,
                           help="Monte Carlo worker threads (default: the MC config's n_threads, or 1)")
        p.add_argument("--out", help="output directory for artifacts")

    v = sub.add_parser("validate", help="calibration and integrability checks")
    common(v, needs_payoff=False)
    v.add_argument("--p", default=0.0, help="payoff growth exponent")
    v.add_argument("--beta", default=2.0, help="weight exponent")
    v.add_argument("--epsilon", default=0.1, help="moment slack")
    v.set_defaults(func=cmd_validate)

    pr = sub.add_parser("price", help="European and American prices")
    common(pr)
    pr.add_argument("--method", choices=("pide", "mc", "both"), default="both")
    pr.set_defaults(func=cmd_price)

    pm = sub.add_parser("premium", help="early-exercise premium identity report")
    common(pm)
    pm.set_defaults(func=cmd_premium)

    cv = sub.add_parser("converge", help="refinement study")
    common(cv)
    cv.add_argument("--levels", required=True,
                    help="semicolon-separated n_space,n_time,n_paths triples")
    cv.set_defaults(func=cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PricingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

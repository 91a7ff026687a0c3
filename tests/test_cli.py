import json
import pathlib

import pytest

from levypricer.cli import main

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"
# the American solve's counts that price, premium and converge report
DIAGNOSTIC_KEYS = {"newton_solves", "factorizations", "update_columns"}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def small_setup(tmp_path):
    model = _write(tmp_path, "model.json", {
        "dim": 1, "a": [[0.04]],
        "rates": {"r": 0.05, "delta": [0.0]},
        "jumps": {"kind": "merton", "lambda": 0.1, "mean": [-0.1], "cov": [[0.0225]]},
    })
    payoff = _write(tmp_path, "payoff.json", {"kind": "min_put", "dim": 1, "K": 100.0})
    solver = _write(tmp_path, "solver.json", {
        "n_space": 201, "n_time": 40, "beta": 4.0,
        "penalty_ladder": [100.0, 1000.0, 10000.0],
        "trunc_tol": 1e-5, "y_max_tail": 1e-8, "exercise_tol": 1e-6,
    })
    mc = _write(tmp_path, "mc.json", {"n_paths": 20000, "n_steps": 40,
                                      "seed": 7, "basis_degree": 3})
    out = tmp_path / "out"
    return model, payoff, solver, mc, out


class TestValidate:
    def test_merton_spec_passes(self, capsys):
        code = main(["validate", "--model", str(CONFIGS / "models" / "merton1d.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["martingale_check"]["max_abs_gap"] < 1e-10
        assert out["integrability"]["ok"] is True

    def test_kou_near_threshold_fails(self, tmp_path, capsys):
        model = _write(tmp_path, "kou.json", {
            "dim": 1, "a": [[0.04]], "rates": {"r": 0.0, "delta": [0.0]},
            "jumps": {"kind": "kou", "lambda": 0.2, "p_up": [0.5],
                      "eta_plus": [1.05], "eta_minus": [5.0]},
        })
        code = main(["validate", "--model", model, "--beta", "1.5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        statuses = [c["status"] for c in out["integrability"]["checks"]]
        assert "fails" in statuses

    def test_unknown_jump_kind_usage_error(self, tmp_path, capsys):
        model = _write(tmp_path, "model.json", {
            "dim": 1, "a": [[0.04]], "rates": {"r": 0.0, "delta": [0.0]},
            "jumps": {"kind": "variance_gamma", "lambda": 0.2},
        })
        assert main(["validate", "--model", model]) == 2
        assert "unknown jump kind 'variance_gamma'" in capsys.readouterr().err

    def test_malformed_json_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--model", str(bad)]) == 2

    def test_missing_file_usage_error(self):
        assert main(["validate", "--model", "/nonexistent/model.json"]) == 2

    def test_threads_is_not_an_option(self, capsys):
        # validate simulates nothing; it once accepted --threads and ignored it
        code = main(["validate", "--model", str(CONFIGS / "models" / "bs1d.json"),
                     "--threads", "2"])
        assert code == 2
        assert "--threads" in capsys.readouterr().err


class TestPrice:
    def test_both_methods_agree(self, small_setup, capsys):
        model, payoff, solver, mc, out = small_setup
        code = main(["price", "--model", model, "--payoff", payoff,
                     "--spot", "100", "--T", "1.0", "--method", "both",
                     "--solver-config", solver, "--mc-config", mc,
                     "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cross_method_gap"]["european_rel"] < 0.05
        assert summary["cross_method_gap"]["american_rel"] < 0.05
        assert (out / "price.json").exists()
        assert (out / "american_solution.csv").exists()
        # emitted JSON round-trips through the same parser
        assert json.loads((out / "price.json").read_text()) == summary

    def test_pide_only(self, small_setup, capsys):
        model, payoff, solver, mc, out = small_setup
        code = main(["price", "--model", model, "--payoff", payoff,
                     "--spot", "100", "--T", "1.0", "--method", "pide",
                     "--solver-config", solver])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert "pide" in summary and "mc" not in summary
        diagnostics = summary["diagnostics"]
        assert set(diagnostics) == DIAGNOSTIC_KEYS
        for counts in diagnostics.values():
            assert len(counts) == 3 and all(isinstance(c, int) for c in counts)

    def test_jump_cfl_guard_is_a_domain_error(self, small_setup, capsys):
        _, payoff, _, _, out = small_setup
        model = _write(out.parent, "fast_jumps.json", {
            "dim": 1, "a": [[0.04]], "rates": {"r": 0.05, "delta": [0.0]},
            "jumps": {"kind": "merton", "lambda": 30.0, "mean": [0.0], "cov": [[0.01]]},
        })
        solver = _write(out.parent, "coarse.json", {"n_space": 101, "n_time": 20, "beta": 2.0})
        code = main(["price", "--model", model, "--payoff", payoff, "--spot", "100",
                     "--T", "1.0", "--method", "pide", "--solver-config", solver])
        assert code == 1
        assert "n_time >= 31" in capsys.readouterr().err

    def test_misspelled_mc_key_is_a_usage_error(self, small_setup, capsys):
        model, payoff, solver, _, out = small_setup
        mc = _write(out.parent, "typo.json", {"n_path": 2000, "n_steps": 10})
        code = main(["price", "--model", model, "--payoff", payoff, "--spot", "100",
                     "--T", "1.0", "--method", "mc", "--mc-config", mc])
        assert code == 2
        assert "n_path" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [2.5, [2], True])
    def test_fractional_list_or_bool_dim_is_a_usage_error(self, tmp_path, capsys, dim):
        # a payoff with "dim": 2.5 once priced as 2 assets with exit 0
        payoff = _write(tmp_path, "payoff.json", {"kind": "min_put", "dim": dim, "K": 100.0})
        mc = _write(tmp_path, "few.json", {"n_paths": 1000, "n_steps": 10})
        code = main(["price", "--model", str(CONFIGS / "models" / "merton2d.json"),
                     "--payoff", payoff, "--spot", "100,100", "--T", "0.5",
                     "--method", "mc", "--mc-config", mc])
        assert code == 2
        assert "dim must be a whole number" in capsys.readouterr().err
        n = 1 if dim is True else 2  # as int(dim), each was accepted on n assets
        model = _write(tmp_path, "model.json", {
            "dim": dim, "a": [[0.04 if i == j else 0.0 for j in range(n)] for i in range(n)],
            "rates": {"r": 0.05, "delta": [0.0] * n}})
        assert main(["validate", "--model", model]) == 2
        assert "dim must be a whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, spec, key", [
        ("--mc-config", {"n_threads": 0}, "n_threads"),
        ("--mc-config", {"n_threads": 2.5}, "n_threads"),
        ("--threads", "-3", "n_threads"),
        ("--mc-config", {"n_paths": 2000.5}, "n_paths"),
        ("--mc-config", {"n_steps": 20.5}, "n_steps"),
        ("--mc-config", {"basis_degree": 2.5}, "degree"),
        ("--mc-config", {"basis_degree": -1}, "degree"),
        ("--solver-config", {"n_space": 101.0}, "n_space"),
        ("--solver-config", {"n_time": 20.5}, "n_time"),
        ("--solver-config", {"penalty_ladder": 100}, "penalty_ladder"),
        ("--solver-config", {"penalty_ladder": []}, "penalty_ladder"),
        ("--mc-config", {"seed": 2.5}, "seed"),
        ("--mc-config", {"seed": -1}, "seed"),
        ("--mc-config", {"n_threads": None}, "n_threads"),
        ("--solver-config", {"trunc_tol": 0}, "trunc_tol"),
        ("--solver-config", {"trunc_tol": 2.0}, "trunc_tol"),
        ("--solver-config", {"beta": float("nan")}, "beta"),
        ("--solver-config", {"beta": float("inf")}, "beta"),
        ("--solver-config", {"penalty_ladder": [0.0]}, "penalty_ladder entry"),
        ("--solver-config", {"y_max_tail": 0}, "y_max_tail"),
        ("--solver-config", {"y_max_tail": -1}, "y_max_tail"),
        ("--solver-config", {"exercise_tol": -1}, "exercise_tol"),
    ], ids=["n_threads-0", "n_threads-2.5", "threads-flag-neg3", "n_paths-2000.5",
            "n_steps-20.5", "basis_degree-2.5", "basis_degree-neg1", "n_space-101.0",
            "n_time-20.5", "penalty_ladder-100", "penalty_ladder-empty", "seed-2.5",
            "seed-neg1", "n_threads-null", "trunc_tol-0", "trunc_tol-2", "beta-nan",
            "beta-inf", "penalty_ladder-0", "y_max_tail-0", "y_max_tail-neg1",
            "exercise_tol-neg1"])
    def test_counts_and_ladder_are_usage_errors(self, tmp_path, capsys, flag, spec, key):
        # each once ran on one thread or with a shifted or NaN price and exit 0,
        # or ended in a traceback (exit 1)
        base = {"--mc-config": {"n_paths": 1000, "n_steps": 10},
                "--solver-config": {"n_space": 101, "n_time": 20, "beta": 5.0}}
        if flag == "--threads":
            extra = ["--threads", spec, "--mc-config", _write(tmp_path, "mc.json", base["--mc-config"])]
        else:
            extra = [flag, _write(tmp_path, "config.json", {**base[flag], **spec})]
        code = main(["price", "--model", str(CONFIGS / "models" / "bs1d.json"),
                     "--payoff", str(CONFIGS / "payoffs" / "put100_1d.json"), "--spot", "100",
                     "--T", "1.0", "--method", "pide" if flag == "--solver-config" else "mc",
                     *extra])
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("beta", "5"), ("trunc_tol", True),
                                            ("y_max_tail", [1e-10]), ("exercise_tol", "1e-6")])
    def test_non_numeric_solver_reals_are_usage_errors(self, tmp_path, capsys, key, value):
        # "beta": "5" once ended in a TypeError traceback (exit 1) in build_grid
        solver = _write(tmp_path, "solver.json", {"n_space": 101, "n_time": 20, "beta": 5.0,
                                                  key: value})
        code = main(["price", "--model", str(CONFIGS / "models" / "bs1d.json"),
                     "--payoff", str(CONFIGS / "payoffs" / "put100_1d.json"), "--spot", "100",
                     "--T", "1.0", "--method", "pide", "--solver-config", solver])
        assert code == 2
        assert f"{key} must be a real number" in capsys.readouterr().err

    @pytest.mark.parametrize("ladder", [[True, 1e3, 1e4], [1e2, "1e3", 1e4], [1e2, 1e3, None]],
                             ids=["bool", "string", "null"])
    def test_non_numeric_ladder_entries_are_usage_errors(self, tmp_path, capsys, ladder):
        # [true, "1e3", 10000] once ran as the ladder (1.0, 1000.0, 10000.0) with exit 0
        solver = _write(tmp_path, "solver.json", {"n_space": 101, "n_time": 20, "beta": 5.0,
                                                  "penalty_ladder": ladder})
        code = main(["price", "--model", str(CONFIGS / "models" / "bs1d.json"),
                     "--payoff", str(CONFIGS / "payoffs" / "put100_1d.json"), "--spot", "100",
                     "--T", "1.0", "--method", "pide", "--solver-config", solver])
        assert code == 2
        assert "penalty_ladder entry must be a real number" in capsys.readouterr().err

    def test_spot_dimension_mismatch(self, small_setup):
        model, payoff, solver, mc, out = small_setup
        code = main(["price", "--model", model, "--payoff", payoff,
                     "--spot", "100,90", "--T", "1.0"])
        assert code == 2


    @pytest.mark.parametrize("method, spot, T, words", [
        ("pide", "100", "0", "maturity"), ("pide", "100", "-1", "maturity"),
        ("pide", "100", "nan", "maturity"), ("pide", "-5", "1.0", "spot"),
        ("pide", "nan", "1.0", "spot"), ("mc", "nan", "1.0", "spot"),
        ("mc", "100", "nan", "maturity"), ("mc", "100", "inf", "maturity")])
    def test_bad_spot_or_maturity_prints_no_price(self, tmp_path, capsys, method, spot, T,
                                                  words):
        # the PIDE once printed NaN prices with exit 0 (T = 0: a ZeroDivisionError
        # traceback), and the Monte Carlo side failed in the LSMC regression
        solver = _write(tmp_path, "solver.json", {"n_space": 201, "n_time": 40, "beta": 5.0})
        mc = _write(tmp_path, "mc.json", {"n_paths": 1000, "n_steps": 10})
        code = main(["price", "--model", str(CONFIGS / "models" / "bs1d.json"),
                     "--payoff", str(CONFIGS / "payoffs" / "put100_1d.json"), "--spot", spot,
                     "--T", T, "--method", method, "--solver-config", solver, "--mc-config", mc])
        captured = capsys.readouterr()
        assert code != 0 and captured.out == ""
        assert words in captured.err

    def test_payoff_model_dimension_mismatch(self, small_setup, tmp_path):
        _, payoff, _, _, out = small_setup  # a 1-asset put on the 2-asset model
        model = str(CONFIGS / "models" / "merton2d.json")
        solver = _write(tmp_path, "small.json", {"n_space": 51, "n_time": 10, "beta": 5.0})
        mc = _write(tmp_path, "few.json", {"n_paths": 1000, "n_steps": 10})
        for method in ("pide", "mc"):
            code = main(["price", "--model", model, "--payoff", payoff, "--spot", "100,100",
                         "--T", "0.5", "--method", method, "--solver-config", solver,
                         "--mc-config", mc])
            assert code == 2, method

    def test_payoff_spec_missing_key(self, small_setup, capsys):
        model, _, _, _, out = small_setup
        payoff = _write(out.parent, "no_strike.json", {"kind": "min_put", "dim": 1})
        code = main(["price", "--model", model, "--payoff", payoff, "--spot", "100",
                     "--T", "1.0", "--method", "mc"])
        assert code == 2
        assert "min_put payoff needs key 'K'" in capsys.readouterr().err


class TestPremiumCommand:
    def test_report_and_boundary(self, small_setup, capsys):
        model, payoff, solver, mc, out = small_setup
        code = main(["premium", "--model", model, "--payoff", payoff,
                     "--spot", "100", "--T", "1.0",
                     "--solver-config", solver, "--mc-config", mc,
                     "--out", str(out)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert set(report["diagnostics"]) == DIAGNOSTIC_KEYS
        boundary = (out / "boundary.csv").read_text().splitlines()
        assert boundary[0] == "t,boundary_price"
        assert len(boundary) == 40 + 2  # header + n_time + 1 levels


class TestConverge:
    def test_three_levels(self, small_setup, capsys):
        model, payoff, solver, mc, out = small_setup
        code = main(["converge", "--model", model, "--payoff", payoff,
                     "--spot", "100", "--T", "1.0",
                     "--solver-config", solver, "--mc-config", mc,
                     "--levels", "201,40,4000;401,80,8000;801,160,16000",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        rows = summary["levels"]
        assert len(rows) == 3
        assert [set(level) for level in summary["diagnostics"]] == [DIAGNOSTIC_KEYS] * 3
        resid = [r["complementarity_maxnorm"] for r in rows]
        assert resid[0] / resid[1] >= 1.5 and resid[1] / resid[2] >= 1.5
        assert (out / "converge.csv").exists()

    def test_rejected_model_solves_nothing(self, small_setup, monkeypatch, capsys):
        _, payoff, _, _, out = small_setup
        model = _write(out.parent, "kou.json", {
            "dim": 1, "a": [[0.04]], "rates": {"r": 0.05, "delta": [0.0]},
            "jumps": {"kind": "kou", "lambda": 0.3, "p_up": [0.4], "eta_plus": [10.0],
                      "eta_minus": [5.0]}})
        # 2 beta = 6 exceeds eta_minus = 5: the weighted second moment diverges
        solver = _write(out.parent, "beta3.json", {"n_space": 101, "n_time": 20, "beta": 3.0})
        calls = []
        monkeypatch.setattr("levypricer.cli.solve_pair", lambda *a: calls.append(a))
        code = main(["converge", "--model", model, "--payoff", payoff, "--spot", "100",
                     "--T", "1.0", "--solver-config", solver,
                     "--levels", "101,20,1000;201,40,2000;401,80,4000"])
        assert code == 1
        assert calls == []
        assert "integrability failures" in capsys.readouterr().err

    def test_too_few_levels(self, small_setup):
        model, payoff, solver, mc, out = small_setup
        code = main(["converge", "--model", model, "--payoff", payoff,
                     "--spot", "100", "--T", "1.0",
                     "--levels", "101,20,1000;201,40,2000"])
        assert code == 2

    def test_approaches_binomial_oracle(self, tmp_path, capsys):
        from oracles import crr_american_put
        model = _write(tmp_path, "bs.json", {
            "dim": 1, "a": [[0.04]],
            "rates": {"r": 0.05, "delta": [0.0]}, "jumps": {"kind": "none"},
        })
        payoff = _write(tmp_path, "payoff.json",
                        {"kind": "min_put", "dim": 1, "K": 100.0})
        solver = _write(tmp_path, "solver.json", {
            "n_space": 201, "n_time": 40, "beta": 5.0, "trunc_tol": 1e-5,
        })
        code = main(["converge", "--model", model, "--payoff", payoff,
                     "--spot", "100", "--T", "1.0", "--solver-config", solver,
                     "--levels", "201,40,4000;401,80,8000;801,160,16000"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["levels"]
        crr = crr_american_put(100.0, 100.0, 1.0, 0.05, 0.2, 5000)
        errs = [abs(r["american"] - crr) for r in rows]
        assert errs[-1] < errs[0]  # converging toward the oracle in trend
        runtimes = [r["runtime_s"] for r in rows]
        assert runtimes[0] < runtimes[1] < runtimes[2]


def test_constant_payoff_fixture_both_methods(tmp_path, capsys):
    model = _write(tmp_path, "bs.json", {
        "dim": 1, "a": [[0.04]],
        "rates": {"r": 0.05, "delta": [0.0]}, "jumps": {"kind": "none"},
    })
    payoff = _write(tmp_path, "const.json", {"kind": "constant", "dim": 1, "c": 5.0})
    solver = _write(tmp_path, "solver.json",
                    {"n_space": 101, "n_time": 20, "beta": 2.0, "trunc_tol": 1e-4})
    mc = _write(tmp_path, "mc.json", {"n_paths": 2000, "n_steps": 10, "seed": 3})
    code = main(["price", "--model", model, "--payoff", payoff, "--spot", "100",
                 "--T", "1.0", "--method", "both",
                 "--solver-config", solver, "--mc-config", mc])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    import numpy as np
    want = 5.0 * np.exp(-0.05)
    assert abs(summary["pide"]["european"] - want) < 1e-8
    assert abs(summary["mc"]["european"]["mean"] - want) < 1e-12
    # a constant claim with r > 0 is exercised immediately: obstacle binds
    # everywhere and the American value is the constant itself
    assert abs(summary["pide"]["american"] - 5.0) < 1e-8


def test_unknown_command_usage():
    assert main(["frobnicate"]) == 2

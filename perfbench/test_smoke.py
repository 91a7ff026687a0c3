"""Smoke test of the benchmark: every workload at a tiny size, both passes.

Checks that each run succeeds and reports every metric that BENCHMARK.json
names, not the values; also that the tracer keeps every span when wrapped
functions run on many threads.  Not part of the tier-1 suite; run it with

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEFINITION = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def test_definition_matches_workloads():
    assert [w["name"] for w in DEFINITION["workloads"]] == list(workloads.WORKLOADS)
    for w in DEFINITION["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]]["why"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace, section):
    code, stdout = _run("--workload", name, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny")
    assert code == 0, stdout
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in DEFINITION[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "price-kou1d-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_records_every_span_from_many_threads():
    import threading
    import tracing

    tracer = tracing.Tracer()
    traced = tracer._wrap("f", lambda: tracer.add("n", 1))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [traced() for _ in range(500)])
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == 4000 and tracer.counts[(None, "n")] == 4000
    assert all(end is not None and parent == -1 for _, _, end, parent, _ in tracer.spans)

"""Smoke runs of the scripts at tiny sizes: each exits 0 and prints its summary."""

import json
import os
import subprocess
import sys

import quips

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quips.__file__)))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                         cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    return out.stdout


def test_run_benchmark(tmp_path):
    stdout = run_script("run_benchmark.py", "--n", "600", "--d", "16", "--n-queries", "60",
                        "--c", "16", "--bits", "16", "--iters", "2",
                        "--out-dir", str(tmp_path / "results"), cwd=tmp_path)
    methods = ("quip-cov-x", "quip-cov-q", "quip-opt",
               "simple-lsh", "signed-alsh", "l2-alsh")
    for regime in ("fixed-bit", "fixed-time"):
        section = stdout.split(f"{regime}:\n")[1].split(":\n")[0]
        for method in methods:
            assert f"  {method}@16 " in section and "P@R0.5=" in section
        with open(tmp_path / "results" / f"{regime}.json") as f:
            assert set(json.load(f)["methods"]) == {f"{m}@16" for m in methods}
        assert (tmp_path / "results" / f"{regime}.csv").stat().st_size > 0


def test_run_theory_checks(tmp_path):
    stdout = run_script("run_theory_checks.py", "--n", "300", "--d", "8", "--k", "2",
                        "--c", "4", "--n-queries", "30", "--samples", "2000", cwd=tmp_path)
    assert stdout.count("== covariance source: ") == 2
    assert "== covariance source: database" in stdout
    assert "== covariance source: example_queries" in stdout
    assert stdout.count("mean signed error") == 2
    assert stdout.count('"empirical_failure_rate"') == 2
    assert stdout.count("failure rate within bound: ") == 2

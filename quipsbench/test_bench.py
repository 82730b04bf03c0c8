"""The benchmark's own tests, at smoke sizes.

    PYTHONPATH=src python3 -m pytest -q quipsbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import quips  # noqa: E402
from quips import evalbench, vecstore  # noqa: E402

from quipsbench import oracle, workloads  # noqa: E402
from quipsbench.metrics import END_TO_END, LAYER  # noqa: E402
from quipsbench.tracer import Tracer  # noqa: E402

E2E_NAMES = [m[0] for m in END_TO_END]
LAYER_NAMES = [m[0] for m in LAYER]
# metrics that must read the same on every run with one seed
EXACT_E2E = ["recall_at_10", "p_at_r50", "index_bytes", "index_mem_bytes"]
EXACT_LAYER = ["train.iterations", "train.constraints_mined", "hybrid.scanned_per_query"]


def _run(name, workdir, trace=True, seed=3):
    return workloads.run_workload(name, seed, 0.05, trace, str(workdir), smoke=True)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_and_quality_repeat_exactly(name, tmp_path):
    a = _run(name, tmp_path / "a")
    b = _run(name, tmp_path / "b")
    assert a.correct and b.correct, a.failures + b.failures
    assert a.failed == 0 and a.attempted > 0
    assert list(a.end_to_end) == [*E2E_NAMES[:2], "query_p99_ms", *E2E_NAMES[2:]]
    assert list(a.layer) == LAYER_NAMES
    for key in EXACT_E2E:
        assert a.end_to_end[key] == b.end_to_end[key], key
    for key in EXACT_LAYER:
        assert a.layer[key] == b.layer[key], key
    assert all(np.isfinite(v) for v in [*a.end_to_end.values(), *a.layer.values()])
    assert a.layer["train.iterations"] > 0
    if name == "train":
        assert a.layer["train.constraints_mined"] > 0
    if name == "partitioned":
        assert 0 < a.layer["hybrid.scanned_per_query"] < 3_000


def _rebind(monkeypatch, original, replacement):
    for key, mod in list(sys.modules.items()):
        if key == "quips" or key.startswith("quips."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


def test_oracle_catches_a_corrupted_result(tmp_path, monkeypatch):
    original = quips.index.search_top_n

    def corrupted(index, q, N):
        res = original(index, q, N)
        ids = res.ids.copy()
        ids[[0, 1]] = ids[[1, 0]]  # still well formed: only the oracle can tell
        return type(res)(ids=ids, scores=res.scores)

    _rebind(monkeypatch, original, corrupted)
    out = _run("flat", tmp_path, trace=False)
    assert not out.correct and out.failed > 0
    assert any("recomputed" in f for f in out.failures)


def test_ground_truth_matches_evalbench():
    db = vecstore.generate_synthetic(500, 16, 10.0, 0)
    qs = vecstore.generate_synthetic(40, 16, 10.0, 1)
    ours = oracle.exact_top_n_ids(db.data, db.ids, qs.data, 10, block=16)
    assert np.array_equal(ours, evalbench.ground_truth(db, qs, 10))


def test_tracer_wraps_every_binding_and_restores():
    before = quips.hybrid.search_top_n
    with Tracer():
        assert quips.hybrid.search_top_n is not before
        assert quips.index.search_top_n is quips.hybrid.search_top_n
        assert quips.search_top_n is quips.hybrid.search_top_n
        assert quips.index.mahalanobis_assign is quips.train.mahalanobis_assign
    assert quips.hybrid.search_top_n is before
    assert quips.index.search_top_n is before


def test_self_times_under_search_top_n_add_up(tmp_path):
    tracer = _run("flat", tmp_path).tracer
    spans, selfs = tracer.spans, tracer.self_times()
    roots = [i for i, s in enumerate(spans)
             if s.name == "index.search_top_n" and s.request.startswith("q")]
    assert roots
    for root in roots:
        subtree, members = {root}, 0.0
        for i in range(root, len(spans)):
            if i == root or spans[i].parent in subtree:
                subtree.add(i)
                members += selfs[i]
        assert len(subtree) == 4  # preprocess, lookup table, scan
        assert members == pytest.approx(spans[root].duration, rel=1e-9, abs=1e-12)


def test_benchmark_json_lists_the_code_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
            == [tuple(m[:4]) for m in END_TO_END])
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [tuple(m[:3]) for m in LAYER])


def _bench(cwd, *extra):
    return subprocess.run(
        [sys.executable, "quipsbench/run.py", "--workload", "partitioned", "--seed", "1",
         "--seconds", "0.05", *extra], cwd=cwd, capture_output=True, text=True, timeout=120)


def test_command_prints_one_json_result_last():
    p = _bench(ROOT, "--trace", "0", "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == E2E_NAMES
    for name, unit, *_ in END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert f"{name} = " in p.stdout
    assert "query_p99_ms = " in p.stdout and "failed_share = 0 " in p.stdout


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "quipsbench"), tmp_path / "quipsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench(tmp_path, "--trace", "0")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout

"""The flat, train and partitioned workloads, driven through the public quips API.

One client sends single queries in a closed loop: the next query goes out
only after the previous one returned.  Ground truth, precision-recall curves
and the correctness oracle run outside every timed region.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import quips
from quips import covariance, evalbench, hybrid, train, vecstore
from quips import index as qindex

from . import oracle
from .metrics import LAYER
from .tracer import Tracer

TOPN = 10
SERVING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serving.py")
SETUP_REPS = 3
WARMUP_SHARE = 0.1  # of --seconds, spent on untimed queries before the timed loop
BLOCK = 16  # queries per tracing block; a traced run alternates traced/untraced blocks

FULL = {
    "flat": dict(n=100_000, d=64, spread=10.0, sample=20_000, n_example=1_000,
                 K=8, C=256, T=5, n_queries=300, n_pr=150, prefix=1_000,
                 cli_batch=50, n_oracle=20),
    "train": dict(n=20_000, d=64, spread=10.0, n_example=1_000, K=8, C=256,
                  T_covx=10, T_opt=3, J=200, lam=0.01, n_queries=500, n_pr=500,
                  prefix=1_000, cli_batch=200, n_oracle=20),
    "partitioned": dict(n=50_000, d=64, clusters=1_000, noise=1.2, sample=20_000,
                        K=8, C=256, T=5, P=100, probe=5, n_queries=4_000,
                        n_pr=200, prefix=1_000, cli_batch=100, n_oracle=20),
}
SMOKE = {
    "flat": dict(FULL["flat"], n=3_000, sample=1_000, n_example=200, C=16, T=3,
                 n_queries=30, n_pr=20, prefix=300, cli_batch=10, n_oracle=5),
    "train": dict(FULL["train"], n=2_000, n_example=200, C=16, T_covx=3, T_opt=2,
                  J=20, n_queries=40, n_pr=40, prefix=300, cli_batch=10,
                  n_oracle=5),
    "partitioned": dict(FULL["partitioned"], n=3_000, clusters=20, sample=1_000,
                        C=16, T=3, P=10, probe=2, n_queries=100, n_pr=20,
                        prefix=300, cli_batch=10, n_oracle=5),
}


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict
    layer: dict
    info: dict
    failures: list = field(default_factory=list)
    tracer: Tracer | None = None


def array_bytes(obj) -> int:
    """nbytes summed over the distinct numpy arrays reachable from obj."""
    seen: dict[int, int] = {}

    def visit(x):
        if isinstance(x, np.ndarray):
            seen[id(x)] = x.nbytes
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            for f in dataclasses.fields(x):
                visit(getattr(x, f.name))
        elif isinstance(x, (list, tuple)):
            for y in x:
                visit(y)

    visit(obj)
    return sum(seen.values())


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, the timed set-up, one query


def _write(workdir: str, name: str, data: np.ndarray) -> str:
    path = os.path.join(workdir, name)
    vecstore.save_fvecs(vecstore.DenseVectorSet(
        data=data, ids=np.arange(data.shape[0], dtype=np.int64)), path)
    return path


def _layout(d: int, K: int):
    layout = vecstore.make_chunk_layout(d, K)
    return vecstore.make_preprocess("permutation", 0, layout)


def _sample(vs, rows):
    return vecstore.DenseVectorSet(data=vs.data[rows], ids=vs.ids[rows])


class Flat:
    """Build-then-serve flat index over a varying-norm synthetic database."""

    def __init__(self, cfg: dict, seed: int, workdir: str):
        self.cfg = cfg
        gen = vecstore.generate_synthetic
        db = gen(cfg["n"], cfg["d"], cfg["spread"], 10 * seed + 1).data
        ex = gen(cfg["n_example"], cfg["d"], cfg["spread"], 10 * seed + 2).data
        self.queries = gen(cfg["n_queries"], cfg["d"], cfg["spread"], 10 * seed + 3).data
        self.db = db
        self.rows = np.sort(np.random.default_rng(10 * seed + 4).choice(
            cfg["n"], cfg["sample"], replace=False))
        self.db_path = _write(workdir, "db.fvecs", db)
        self.ex_path = _write(workdir, "example.fvecs", ex)
        self.index_path = os.path.join(workdir, "flat.quip")

    def setup(self) -> dict:
        c = self.cfg
        db = vecstore.load_vectors(self.db_path, "fvecs")
        spec, layout = _layout(db.d, c["K"])
        dbp = vecstore.apply_preprocess(db, spec)
        ex = vecstore.apply_preprocess(vecstore.load_vectors(self.ex_path, "fvecs"), spec)
        cov = covariance.regularize(covariance.estimate_subspace_covariances(
            ex, layout, source="example_queries"), 1e-6)
        cb, _, _ = train.train_quip(_sample(dbp, self.rows), cov,
                                    train.TrainConfig(K=c["K"], C=c["C"], T=c["T"], seed=0))
        codes = qindex.encode_database(dbp, cb, cov, layout)
        mem = qindex.build_index(dbp, cb, codes, spec, cov)
        qindex.save_index(mem, self.index_path)
        return {"mem": mem, "flat": qindex.load_index(self.index_path),
                "path": self.index_path}

    def search(self, state, q):
        res = qindex.search_top_n(state["flat"], q, TOPN)
        return res.ids, res.scores, 0

    def served(self, state):
        return state["flat"]

    def check_served(self, state, q, served, flat_top):
        """The served result is the flat scan itself."""
        return [("served result == flat scan", oracle.same_result(*served[:2], *flat_top))]


class Train(Flat):
    """quip-cov-x and quip-opt trained through evalbench.build_quip_pipeline."""

    def __init__(self, cfg: dict, seed: int, workdir: str):
        self.cfg = cfg
        gen = vecstore.generate_synthetic
        self.db = gen(cfg["n"], cfg["d"], cfg["spread"], 10 * seed + 1).data
        ex = gen(cfg["n_example"], cfg["d"], cfg["spread"], 10 * seed + 2).data
        self.queries = gen(cfg["n_queries"], cfg["d"], cfg["spread"], 10 * seed + 3).data
        self.db_path = _write(workdir, "db.fvecs", self.db)
        self.ex_path = _write(workdir, "example.fvecs", ex)
        self.index_path = os.path.join(workdir, "opt.quip")

    def setup(self) -> dict:
        c = self.cfg
        db = vecstore.load_vectors(self.db_path, "fvecs")
        ex = vecstore.load_vectors(self.ex_path, "fvecs")
        ecfg = evalbench.ExperimentConfig(iters=c["T_covx"], lam=c["lam"], J=c["J"],
                                          seed=0, preprocess="permutation", ridge=1e-6)
        evalbench.build_quip_pipeline("quip-cov-x", db, ex, c["K"], c["C"], ecfg)
        ecfg.iters = c["T_opt"]
        mem = evalbench.build_quip_pipeline("quip-opt", db, ex, c["K"], c["C"], ecfg)
        qindex.save_index(mem, self.index_path)
        return {"mem": mem, "flat": qindex.load_index(self.index_path),
                "path": self.index_path}


class Partitioned:
    """Coarse k-means partitions over clustered data, shared codebook and codes.

    Queries are raw (not preprocessed), as a caller would send them.
    """

    def __init__(self, cfg: dict, seed: int, workdir: str):
        self.cfg = cfg
        rng = np.random.default_rng(10 * seed + 5)
        d = cfg["d"]
        centers = rng.standard_normal((cfg["clusters"], d))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        sd = cfg["noise"] / np.sqrt(d)  # noise norm ~ noise x center norm
        labels = rng.integers(0, cfg["clusters"], cfg["n"])
        self.db = centers[labels] + sd * rng.standard_normal((cfg["n"], d))
        qlabels = rng.integers(0, cfg["clusters"], cfg["n_queries"])
        self.queries = centers[qlabels] + sd * rng.standard_normal((cfg["n_queries"], d))
        self.rows = np.sort(rng.choice(cfg["n"], cfg["sample"], replace=False))
        self.db_path = _write(workdir, "db.fvecs", self.db)
        self.index_path = os.path.join(workdir, "shared.quip")

    def setup(self) -> dict:
        c = self.cfg
        db = vecstore.load_vectors(self.db_path, "fvecs")
        spec, layout = _layout(db.d, c["K"])
        dbp = vecstore.apply_preprocess(db, spec)
        cov = covariance.regularize(covariance.estimate_subspace_covariances(
            dbp, layout, source="database"), 1e-6)
        tcfg = train.TrainConfig(K=c["K"], C=c["C"], T=c["T"], seed=0)
        cb, _, _ = train.train_quip(_sample(dbp, self.rows), cov, tcfg)
        codes = qindex.encode_database(dbp, cb, cov, layout)
        pindex = hybrid.build_hybrid(dbp, c["P"], cov, tcfg, spec, 0,
                                     shared_codebook=cb, shared_codes=codes)
        return {"pindex": pindex, "parts": (dbp, cb, codes, spec, cov)}

    def after_setup(self, state) -> None:
        """The flat scan over the shared codes: the oracle's reference and the
        CLI's .quip file.  Built once, outside the timed set-up."""
        mem = qindex.build_index(*state.pop("parts"))
        qindex.save_index(mem, self.index_path)
        state.update(mem=mem, flat=qindex.load_index(self.index_path),
                     path=self.index_path)

    def search(self, state, q):
        res, scanned = hybrid.hybrid_search(state["pindex"], q, TOPN, self.cfg["probe"])
        return res.ids, res.scores, scanned

    def served(self, state):
        return state["pindex"]

    def check_served(self, state, q, served, flat_top):
        """Probing every partition reproduces the flat scan over the shared codes."""
        pindex = state["pindex"]
        res, _ = hybrid.hybrid_search(pindex, q, TOPN, pindex.P)
        return [("probe=P == flat scan", oracle.same_result(res.ids, res.scores, *flat_top))]


WORKLOADS = {"flat": Flat, "train": Train, "partitioned": Partitioned}


# ---------------------------------------------------------------------------
# the harness


class Bench:
    def __init__(self, trace: bool):
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def traced(self, on: bool, request: str):
        if not on or self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.request = request
        return self.tracer

    def setups(self, wl) -> tuple[dict, dict]:
        """SETUP_REPS full set-ups; a traced run traces every rep but the middle one."""
        times: dict[bool, list[float]] = {False: [], True: []}
        state = None
        for rep in range(SETUP_REPS):
            state = None
            on = self.tracer is not None and rep != SETUP_REPS // 2
            t0 = time.perf_counter()
            with self.traced(on, f"setup{rep}"):
                state = wl.setup()
            times[on].append(time.perf_counter() - t0)
            self.attempted += 1
        return state, times

    def closed_loop(self, search, queries: np.ndarray, seconds: float):
        """Single queries back to back for `seconds`, and at least one pass.

        Returns latencies split by traced/untraced and the first pass's results.
        """
        warm_until = time.perf_counter() + WARMUP_SHARE * seconds
        k = 0
        while k < BLOCK or time.perf_counter() < warm_until:
            search(queries[k % len(queries)])
            k += 1
        lat: dict[bool, list[float]] = {False: [], True: []}
        first: list = [None] * len(queries)
        i = 0
        deadline = time.perf_counter() + seconds
        while i < len(queries) or time.perf_counter() < deadline:
            on = self.tracer is not None and (i // BLOCK) % 2 == 0
            with self.traced(on, ""):
                for _ in range(BLOCK):
                    j = i % len(queries)
                    if on:
                        self.tracer.request = f"q{i}"
                    t0 = time.perf_counter()
                    try:
                        out = search(queries[j])
                    except Exception as e:  # a failed query is counted, not fatal
                        out = e
                    lat[on].append(time.perf_counter() - t0)
                    if i < len(queries):
                        first[j] = out
                    i += 1
                    self.attempted += 1
                    if isinstance(out, Exception):
                        self.failures.append(f"query {j}: {out!r}")
                    elif not oracle.well_formed(out[0], out[1], TOPN):
                        self.failures.append(f"query {j}: malformed result")
        return lat, first

    def serving_sample(self, index_path: str, query_path: str, csv_path: str) -> dict:
        """Reloads and one `quips search` batch in a fresh process (serving.py),
        with the CSV ids per query added to its report."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quips.__file__)))
        out = subprocess.run(
            [sys.executable, SERVING, index_path, query_path, csv_path,
             str(int(self.tracer is not None))],
            env=env, check=True, capture_output=True, text=True, timeout=170)
        report = json.loads(out.stdout)
        report["ids"] = defaultdict(list)
        if report["code"] == 0:
            with open(csv_path, newline="") as f:
                for row in list(csv.reader(f))[1:]:
                    report["ids"][int(row[0])].append(int(row[2]))
        return report


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, smoke: bool = False) -> Outcome:
    cfg = (SMOKE if smoke else FULL)[name]
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[name](cfg, seed, workdir)
    bench = Bench(trace)

    state, setup_times = bench.setups(wl)
    if hasattr(wl, "after_setup"):
        wl.after_setup(state)
    flat, path = state["flat"], state["path"]

    query_path = _write(workdir, "cli_queries.fvecs", wl.queries[:cfg["cli_batch"]])
    samples = []

    def sample_serving():
        # taken at three points of the run, so that one slow spell of a shared
        # machine cannot set the median
        samples.append(bench.serving_sample(path, query_path,
                                            os.path.join(workdir, "out.csv")))

    sample_serving()
    lat, first = bench.closed_loop(lambda q: wl.search(state, q), wl.queries, seconds)
    sample_serving()

    # ground truth, quality and the oracle: outside every timed region, untraced
    truth = oracle.exact_top_n_ids(wl.db, np.arange(wl.db.shape[0]), wl.queries, TOPN)
    done = [j for j, r in enumerate(first) if not isinstance(r, Exception)]
    recall, hits = oracle.recall([first[j][0] for j in done], truth[done])
    scanned = sum(int(first[j][2]) for j in done)

    pr_q = wl.queries[:cfg["n_pr"]]
    ranked = [qindex.search_top_n(flat, q, cfg["prefix"]) for q in pr_q]
    curve = evalbench.precision_recall(np.stack([r.ids for r in ranked]),
                                       truth[:cfg["n_pr"]], TOPN)
    flat_top = [(r.ids[:TOPN], r.scores[:TOPN]) for r in ranked]

    for j in range(cfg["n_oracle"]):
        q = wl.queries[j]
        bench.check(oracle.same_result(*oracle.recompute_top_n(flat, q, TOPN), *flat_top[j]),
                    f"query {j}: search_top_n differs from the recomputed top-{TOPN}")
        mem = qindex.search_top_n(state["mem"], q, TOPN)
        bench.check(oracle.same_result(mem.ids, mem.scores, *flat_top[j]),
                    f"query {j}: in-memory and reloaded index differ")
        served = first[j]
        for what, good in ([] if isinstance(served, Exception)
                           else wl.check_served(state, q, served, flat_top[j])):
            bench.check(good, f"query {j}: {what} failed")

    sample_serving()
    for b, sample in enumerate(samples):
        for j, (expected, _) in enumerate(flat_top[:cfg["cli_batch"]]):
            bench.check(sample["code"] == 0 and sample["ids"][j] == expected.tolist(),
                        f"cli batch {b} query {j}: ids differ from search_top_n")

    untraced = lat[False]
    e2e = {
        "setup_s": statistics.median(setup_times[False]),
        "query_p50_ms": float(np.percentile(untraced, 50)) * 1e3,
        "query_p99_ms": float(np.percentile(untraced, 99)) * 1e3,
        "search_qps": cfg["cli_batch"] / statistics.median(s["cli_s"] for s in samples),
        "load_ms": statistics.median(t for s in samples for t in s["load_s"]) * 1e3,
        "recall_at_10": recall,
        "p_at_r50": curve.precision_at_recall(0.5),
        "index_bytes": os.path.getsize(path),
        "index_mem_bytes": array_bytes(wl.served(state)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "scanned_per_query": scanned / max(len(done), 1),
        "true_hits_per_1k_scanned": 1e3 * hits / scanned if scanned else 0.0,
    }
    info = {"queries_timed": len(untraced), "queries_traced": len(lat[True]),
            "setups": {"untraced": setup_times[False], "traced": setup_times[True]},
            "recall_hits": hits, "pr_recall_reached": float(curve.recall[-1])}
    layer = {}
    if bench.tracer is not None:
        counts["overhead_query_p50_ms"] = (float(np.percentile(lat[True], 50))
                                           - float(np.percentile(untraced, 50))) * 1e3
        counts["overhead_setup_s"] = (statistics.median(setup_times[True])
                                      - statistics.median(setup_times[False]))
        counts["cli_self_ms"] = statistics.median(s["cli_self_s"] for s in samples) * 1e3
        layer = layer_metrics(bench.tracer, counts, cfg.get("J", 0))
    failures = bench.failures
    return Outcome(correct=not failures, attempted=bench.attempted, failed=len(failures),
                   end_to_end=e2e, layer=layer, info=info, failures=failures,
                   tracer=bench.tracer)


# ---------------------------------------------------------------------------
# per-layer aggregation of the spans


def layer_metrics(tracer: Tracer, counts: dict, J: int) -> dict:
    spans, selfs = tracer.spans, tracer.self_times()

    # set-up: per traced rep, then the median over reps
    reps: list[dict] = []
    for idxs in tracer.by_request("setup").values():
        agg: dict = {}
        for i in idxs:
            s = spans[i]
            a = agg.setdefault(s.name, [0, 0.0, 0.0])
            a[0] += 1
            a[1] += s.duration
            a[2] += selfs[i]
            for key, val in (s.counts or {}).items():
                agg[key] = agg.get(key, 0) + val
        reps.append(agg)

    def setup_stat(name, stat):
        col = {"calls": 0, "ms": 1, "self_ms": 2}[stat]
        vals = [r.get(name, [0, 0.0, 0.0])[col] for r in reps]
        return statistics.median(vals) * (1 if stat == "calls" else 1e3)

    opt_iters = statistics.median([r.get("opt_iterations", 0) for r in reps])
    counts["iterations"] = statistics.median([r.get("iterations", 0) for r in reps])
    counts["constraints"] = statistics.median([r.get("constraints", 0) for r in reps])
    counts["constraint_yield"] = (counts["constraints"] / (J * opt_iters)
                                  if J and opt_iters else 0.0)

    # queries: totals over the traced single queries
    qagg: dict[str, list] = {}
    rows = 0
    requests = set()
    for i, s in enumerate(spans):
        if not s.request.startswith("q"):
            continue
        requests.add(s.request)
        a = qagg.setdefault(s.name, [0, 0.0, 0.0])
        a[0] += 1
        a[1] += s.duration
        a[2] += selfs[i]
        if s.name == "index.table_scores":
            rows += s.counts["rows"]
    nq = max(len(requests), 1)
    counts["rows_per_result"] = rows / (TOPN * nq)

    def query_stat(name, stat):
        calls, total, own = qagg.get(name, [0, 0.0, 0.0])
        return {"calls_per_query": calls / nq,
                "us_per_query": total * 1e6 / nq,
                "self_us_per_query": own * 1e6 / nq,
                "us_per_call": total * 1e6 / calls if calls else 0.0,
                "self_us_per_call": own * 1e6 / calls if calls else 0.0}[stat]

    out = {}
    for name, _unit, _better, source, _moves in LAYER:
        if source[0] == "setup":
            out[name] = setup_stat(source[1], source[2])
        elif source[0] == "query":
            out[name] = query_stat(source[1], source[2])
        else:
            out[name] = counts[source[1]]
    return out

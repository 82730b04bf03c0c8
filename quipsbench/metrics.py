"""Metric tables: names, units, direction, bounds, and what each layer metric
should move.  BENCHMARK.json lists the same names; test_bench.py checks that
the two agree."""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median), definition
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median of 3 set-ups: read .fvecs, preprocess, covariance, train, encode/"
     "partition, save and reload, until the index can serve"),
    ("query_p50_ms", "ms", "lower", 0.25,
     "median latency of single top-10 queries, closed loop, one client"),
    ("search_qps", "1/s", "higher", 0.25,
     "queries/s of a `quips search` batch (cli.main) over the workload's .quip "
     "file in a fresh process; median of 3, taken before, after and well after "
     "the query loop"),
    ("load_ms", "ms", "lower", 0.25,
     "median of 3 x 21 load_index calls on the workload's .quip file, in the "
     "same 3 fresh processes"),
    ("recall_at_10", "share", "higher", 0.25,
     "mean |top-10 returned & exact top-10| / 10 over the workload's queries"),
    ("p_at_r50", "share", "higher", 0.25,
     "precision at recall 0.5 of the workload's flat codebook ranking "
     "(evalbench.precision_recall)"),
    ("index_bytes", "bytes", "lower", 0.05, "size of the saved .quip file"),
    ("index_mem_bytes", "bytes", "lower", 0.05,
     "nbytes summed over the distinct arrays of the served index"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident set size of the process"),
]

# Also printed on every --trace 0 run, but not bounded in BENCHMARK.json:
#   query_p99_ms  the 99th percentile of the same latencies.  Its run-to-run
#                 spread on a 2-core VM sharing its host (IQR/median 0.12-0.21
#                 over seeds in quiet periods, above 1 in busy ones) exceeds
#                 the largest bound a metric may have.
#   failed_share  failed or wrong operations / operations attempted; 0 on a
#                 correct run, and carried by the "attempted" and "failed"
#                 fields of the result line.

# name, unit, better, source, the end-to-end metric and workload it should move
# source: ("setup", span, stat) per set-up, median over traced set-ups;
#         ("query", span, stat) over traced single queries;
#         ("count", key) read from traced boundaries or returned values.
LAYER = [
    ("vecstore.load_vectors.ms", "ms", "lower",
     ("setup", "vecstore.load_vectors", "ms"), "setup_s, search_qps on flat"),
    ("vecstore.apply_preprocess.ms", "ms", "lower",
     ("setup", "vecstore.apply_preprocess", "ms"), "setup_s on all workloads"),
    ("vecstore.apply_preprocess_rows.calls_per_query", "count", "lower",
     ("query", "vecstore.apply_preprocess_rows", "calls_per_query"),
     "query_p50_ms on partitioned (one call per probed partition) and flat"),
    ("vecstore.apply_preprocess_rows.us_per_query", "us", "lower",
     ("query", "vecstore.apply_preprocess_rows", "us_per_query"),
     "query_p50_ms on partitioned and flat"),
    ("covariance.estimate_subspace_covariances.ms", "ms", "lower",
     ("setup", "covariance.estimate_subspace_covariances", "ms"), "setup_s on train"),
    ("train.train_quip.self_ms", "ms", "lower",
     ("setup", "train.train_quip", "self_ms"), "setup_s on train and flat"),
    ("train.mahalanobis_assign.ms", "ms", "lower",
     ("setup", "train.mahalanobis_assign", "ms"), "setup_s on train and flat"),
    ("train.mahalanobis_assign.calls", "count", "lower",
     ("setup", "train.mahalanobis_assign", "calls"), "setup_s on train and flat"),
    ("train.update_centroids.ms", "ms", "lower",
     ("setup", "train.update_centroids", "ms"), "setup_s on train and flat"),
    ("train.subspace_objective.ms", "ms", "lower",
     ("setup", "train.subspace_objective", "ms"), "setup_s on train and flat"),
    ("train.train_quip_opt.self_ms", "ms", "lower",
     ("setup", "train.train_quip_opt", "self_ms"), "setup_s on train"),
    ("train.find_violated_constraints.ms", "ms", "lower",
     ("setup", "train.find_violated_constraints", "ms"), "setup_s on train"),
    ("train.constrained_assign.ms", "ms", "lower",
     ("setup", "train.constrained_assign", "ms"), "setup_s on train"),
    ("train.penalized_objective.ms", "ms", "lower",
     ("setup", "train.penalized_objective", "ms"), "setup_s on train"),
    ("train.iterations", "count", "lower", ("count", "iterations"),
     "explains setup_s on train; timings are comparable only at equal counts"),
    ("train.constraints_mined", "count", "lower", ("count", "constraints"),
     "explains setup_s on train"),
    ("train.constraint_yield", "share", "lower", ("count", "constraint_yield"),
     "explains setup_s on train: mined / (J x quip-opt iterations)"),
    ("index.encode_database.self_ms", "ms", "lower",
     ("setup", "index.encode_database", "self_ms"), "setup_s on flat"),
    ("index.build_index.ms", "ms", "lower",
     ("setup", "index.build_index", "ms"), "setup_s on flat"),
    ("index.save_index.ms", "ms", "lower",
     ("setup", "index.save_index", "ms"), "setup_s on flat"),
    ("index.load_index.ms", "ms", "lower",
     ("setup", "index.load_index", "ms"), "load_ms, search_qps on flat"),
    ("index.build_lookup_table.us_per_call", "us", "lower",
     ("query", "index.build_lookup_table", "us_per_call"),
     "query_p50_ms on partitioned and flat"),
    ("index.build_lookup_table.calls_per_query", "count", "lower",
     ("query", "index.build_lookup_table", "calls_per_query"),
     "query_p50_ms on partitioned and flat"),
    ("index.table_scores.us_per_call", "us", "lower",
     ("query", "index.table_scores", "us_per_call"),
     "query_p50_ms, search_qps on flat"),
    ("index.search_top_n.us_per_call", "us", "lower",
     ("query", "index.search_top_n", "us_per_call"),
     "query_p50_ms on flat (its span; the self times under it add up to it)"),
    ("index.search_top_n.self_us_per_call", "us", "lower",
     ("query", "index.search_top_n", "self_us_per_call"),
     "query_p50_ms, query_p99_ms on flat (mostly top-N selection)"),
    ("index.rows_scored_per_result", "count", "lower", ("count", "rows_per_result"),
     "query_p50_ms on flat and partitioned"),
    ("hybrid.train_partitioner.ms", "ms", "lower",
     ("setup", "hybrid.train_partitioner", "ms"), "setup_s on partitioned"),
    ("hybrid.build_hybrid.self_ms", "ms", "lower",
     ("setup", "hybrid.build_hybrid", "self_ms"), "setup_s on partitioned"),
    ("hybrid.assign_query_partitions.us_per_query", "us", "lower",
     ("query", "hybrid.assign_query_partitions", "us_per_query"),
     "query_p50_ms on partitioned"),
    ("hybrid.hybrid_search.self_us_per_query", "us", "lower",
     ("query", "hybrid.hybrid_search", "self_us_per_query"),
     "query_p50_ms on partitioned (the merge)"),
    ("hybrid.scanned_per_query", "count", "lower", ("count", "scanned_per_query"),
     "query_p50_ms, recall_at_10 on partitioned"),
    ("hybrid.true_hits_per_1k_scanned", "count", "higher",
     ("count", "true_hits_per_1k_scanned"),
     "query_p50_ms, recall_at_10 on partitioned (useful work per row scanned)"),
    ("cli.main.self_ms", "ms", "lower", ("count", "cli_self_ms"),
     "search_qps on flat (CSV and argument handling; traced in the fresh "
     "serving processes)"),
    ("trace.overhead.query_p50_ms", "ms", "lower", ("count", "overhead_query_p50_ms"),
     "none: traced minus untraced query_p50_ms, interleaved in one run"),
    ("trace.overhead.setup_s", "s", "lower", ("count", "overhead_setup_s"),
     "none: traced minus untraced setup_s in one run"),
]

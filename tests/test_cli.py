import csv
import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import quips
import quips.cli
from quips.cli import main
from quips.index import load_index, search_top_n
from quips.vecstore import load_vectors


@pytest.fixture
def vec_files(tmp_path):
    """Small database + query fvecs files generated through the CLI itself."""
    db = str(tmp_path / "db.fvecs")
    qs = str(tmp_path / "qs.fvecs")
    assert main(["synth", "--n", "200", "--d", "8", "--seed", "0",
                 "--out", db]) == 0
    assert main(["synth", "--n", "20", "--d", "8", "--seed", "1",
                 "--out", qs]) == 0
    return db, qs


def train_small(tmp_path, db, qs=None, method="quip-cov-x", **extra):
    out = str(tmp_path / f"{method}.quip")
    argv = ["train", "--method", method, "--data", db, "--k", "4", "--c", "8",
            "--iters", "5", "--out", out]
    if qs:
        argv += ["--queries", qs]
    for k, v in extra.items():
        argv += [f"--{k}", str(v)]
    assert main(argv) == 0
    return out


class TestSynth:
    def test_writes_requested_shape(self, tmp_path):
        out = str(tmp_path / "v.fvecs")
        assert main(["synth", "--n", "15", "--d", "6", "--out", out]) == 0
        vs = load_vectors(out, "fvecs")
        assert vs.data.shape == (15, 6)

    def test_seed_reproducible(self, tmp_path):
        a, b = str(tmp_path / "a.fvecs"), str(tmp_path / "b.fvecs")
        main(["synth", "--n", "10", "--d", "4", "--seed", "7", "--out", a])
        main(["synth", "--n", "10", "--d", "4", "--seed", "7", "--out", b])
        np.testing.assert_array_equal(load_vectors(a, "fvecs").data, load_vectors(b, "fvecs").data)


class TestTrain:
    def test_cov_x(self, tmp_path, vec_files):
        db, _ = vec_files
        out = train_small(tmp_path, db)
        index = load_index(out)
        assert index.n == 200 and index.codebook.centroids.shape == (4, 8, 2)

    def test_cov_q(self, tmp_path, vec_files):
        db, qs = vec_files
        out = train_small(tmp_path, db, qs, method="quip-cov-q")
        assert load_index(out).cov.source == "example_queries"

    def test_opt(self, tmp_path, vec_files):
        db, qs = vec_files
        out = train_small(tmp_path, db, qs, method="quip-opt", iters=3)
        assert load_index(out).n == 200

    def test_cov_q_without_queries_is_data_error(self, tmp_path, vec_files):
        db, _ = vec_files
        out = str(tmp_path / "x.quip")
        assert main(["train", "--method", "quip-cov-q", "--data", db,
                     "--out", out]) == 2

    def test_missing_data_file(self, tmp_path):
        assert main(["train", "--method", "quip-cov-x", "--data",
                     str(tmp_path / "nope.fvecs"),
                     "--out", str(tmp_path / "x.quip")]) == 2

    def test_bad_method_is_usage_error(self, tmp_path, vec_files):
        db, _ = vec_files
        assert main(["train", "--method", "magic", "--data", db,
                     "--out", str(tmp_path / "x.quip")]) == 1

    @pytest.mark.parametrize("flag, value, field", [
        ("--iters", "0", "T"), ("--lambda", "-1", "lam"), ("--j", "-3", "J"),
        ("--c", "0", "C")])
    def test_out_of_range_config_is_usage_error(self, tmp_path, vec_files, capsys,
                                                flag, value, field):
        db, qs = vec_files
        out = tmp_path / "x.quip"
        assert main(["train", "--method", "quip-opt", "--data", db, "--queries", qs,
                     "--k", "4", "--c", "8", flag, value, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("usage error: need") and f"{field} >= " in err


class TestEncodeSearch:
    def test_search_output(self, tmp_path, vec_files):
        db, qs = vec_files
        index = train_small(tmp_path, db)
        out = str(tmp_path / "hits.csv")
        assert main(["search", "--index", index, "--queries", qs,
                     "--topn", "5", "--out", out]) == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 20 * 5
        q0 = [r for r in rows if r["query"] == "0"]
        scores = [float(r["score"]) for r in q0]
        assert scores == sorted(scores, reverse=True)
        loaded, queries = load_index(index), load_vectors(qs, "fvecs")
        for j, q in enumerate(queries.data):
            ids = [int(r["id"]) for r in rows if r["query"] == str(j)]
            assert ids == search_top_n(loaded, q, 5).ids.tolist()

    def test_search_rejects_wrong_query_width(self, tmp_path, vec_files, capsys):
        db, _ = vec_files
        index = train_small(tmp_path, db)
        narrow = str(tmp_path / "narrow.fvecs")
        assert main(["synth", "--n", "3", "--d", "4", "--out", narrow]) == 0
        out = str(tmp_path / "hits.csv")
        assert main(["search", "--index", index, "--queries", narrow,
                     "--out", out]) == 2
        assert "4 dims" in capsys.readouterr().err

    def test_encode_new_database(self, tmp_path, vec_files):
        db, _ = vec_files
        index = train_small(tmp_path, db)
        fresh = str(tmp_path / "fresh.fvecs")
        main(["synth", "--n", "50", "--d", "8", "--seed", "5", "--out", fresh])
        out = str(tmp_path / "fresh.quip")
        assert main(["encode", "--index", index, "--data", fresh,
                     "--out", out]) == 0
        assert load_index(out).n == 50

    @pytest.mark.parametrize("damage", ["code byte", "truncated"])
    def test_search_damaged_index_is_data_error(self, tmp_path, vec_files, capsys,
                                                damage):
        db, qs = vec_files
        index = train_small(tmp_path, db)  # n=200, K=4, C=8: u8 codes
        raw = bytearray(open(index, "rb").read())
        if damage == "code byte":
            raw[len(raw) - (4 + 200 * 8) - 200 * 4] = 200  # first code byte
        else:
            del raw[-9:]
        with open(index, "wb") as f:
            f.write(raw)
        assert main(["search", "--index", index, "--queries", qs,
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    def test_duplicate_csv_ids_are_data_error(self, tmp_path, capsys, monkeypatch):
        # the CLI reads CSV without an id column; read it with one, as a
        # library caller can, to see that the id check reaches exit code 2
        path = tmp_path / "dup.csv"
        rows = [f"{i % 40},{i * 0.5},{1.0 - i},{i % 3},{i % 5 * 0.25}" for i in range(50)]
        path.write_text("\n".join(rows) + "\n")
        monkeypatch.setattr(quips.cli, "load_vectors",
                            functools.partial(load_vectors, id_column=True))
        assert main(["train", "--method", "quip-cov-x", "--data", str(path),
                     "--format", "csv", "--k", "2", "--c", "4", "--iters", "2",
                     "--out", str(tmp_path / "x.quip")]) == 2
        assert "dup.csv: ids are not unique" in capsys.readouterr().err

    def test_search_leaves_numpy_ma_unimported(self, tmp_path, vec_files):
        db, qs = vec_files
        index = train_small(tmp_path, db)
        script = ("import sys; from quips.cli import main; "
                  "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quips.__file__)))
        out = subprocess.run([sys.executable, "-c", script, "search", "--index", index,
                              "--queries", qs, "--out", str(tmp_path / "o.csv")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.stdout.split()[-2:] == ["0", "False"], out.stdout + out.stderr

    def test_search_missing_index(self, tmp_path, vec_files):
        _, qs = vec_files
        assert main(["search", "--index", str(tmp_path / "no.quip"),
                     "--queries", qs, "--out", str(tmp_path / "o.csv")]) == 2


class TestEval:
    def test_fixed_bit_end_to_end(self, tmp_path):
        cfg = {"n": 100, "d": 8, "n_queries": 16, "C": 4, "bits": [16],
               "topN": 5, "iters": 3, "methods": ["quip-cov-x", "simple-lsh"],
               "preprocess": "identity"}
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        prefix = str(tmp_path / "rep")
        assert main(["eval", "--config", cfg_path, "--out-prefix", prefix]) == 0
        with open(prefix + ".json") as f:
            summary = json.load(f)
        assert set(summary["methods"]) == {"quip-cov-x@16", "simple-lsh@16"}

    def test_bad_config_key(self, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({"warp_factor": 9}, f)
        assert main(["eval", "--config", cfg_path,
                     "--out-prefix", str(tmp_path / "rep")]) == 1

    @pytest.mark.parametrize("cfg, message", [
        ({"n": "abc"}, "'n' must be int; got 'abc'"),
        ({"iters": 2.5}, "'iters' must be int"),
        ({"lam": "0.1"}, "'lam' must be int or float"),
        ({"methods": "quip-opt"}, "'methods' must be list"),
        ({"data_path": 3}, "'data_path' must be str or NoneType"),
        ({"topN": True}, "'topN' must be int"),
    ])
    def test_bad_config_type_is_usage_error(self, tmp_path, capsys, cfg, message):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        assert main(["eval", "--config", cfg_path,
                     "--out-prefix", str(tmp_path / "rep")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err

    @pytest.mark.parametrize("key, value", [
        ("n", 0), ("d", -1), ("C", 0), ("topN", 0), ("iters", 0), ("lam", -0.5)])
    def test_config_out_of_range_is_usage_error(self, tmp_path, capsys, key, value):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({key: value}, f)
        assert main(["eval", "--config", cfg_path,
                     "--out-prefix", str(tmp_path / "rep")]) == 1
        assert f"usage error: config key {key!r} must be >=" in capsys.readouterr().err


class TestTheoryCheck:
    def test_passes_on_trained_index(self, tmp_path, vec_files, capsys):
        db, qs = vec_files
        index = train_small(tmp_path, db)
        capsys.readouterr()  # drop the training log line
        assert main(["theory-check", "--index", index, "--data", db,
                     "--queries", qs, "--epsilon", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["empirical_failure_rate"] <= min(
            1.0, report["variance_bound"]) + 1e-12

    def test_violation_exit_code(self, tmp_path, vec_files, monkeypatch):
        db, qs = vec_files
        index = train_small(tmp_path, db)
        import quips.evalbench as eb
        real = eb.concentration_check

        def sabotage(*a, **kw):
            rep = real(*a, **kw)
            object.__setattr__(rep, "empirical_failure_rate", 1.0)
            object.__setattr__(rep, "variance_bound", 0.0)
            return rep

        monkeypatch.setattr(eb, "concentration_check", sabotage)
        assert main(["theory-check", "--index", index, "--data", db,
                     "--queries", qs]) == 3


class TestHybridTrain:
    def test_writes_partition_file(self, tmp_path, vec_files):
        from quips import evalbench
        from quips.hybrid import train_partitioner
        db, qs = vec_files
        out = str(tmp_path / "parts.npz")
        assert main(["hybrid-train", "--data", db, "--queries", qs,
                     "--partitions", "4", "--probe", "2", "--k", "4",
                     "--c", "4", "--out", out]) == 0
        _, dbp, _, _ = evalbench.prepare_training(
            "quip-cov-x", load_vectors(db, "fvecs"), None, 4,
            evalbench.ExperimentConfig(seed=0, preprocess="permutation"))
        centers, membership = train_partitioner(dbp, 4, 0)
        with np.load(out) as arc:  # plain arrays: allow_pickle stays off
            np.testing.assert_array_equal(arc["centers"], centers)
            members, off = arc["members"], arc["offsets"]
            assert members.dtype == np.int64 == off.dtype
            assert off.shape == (5,) and off[0] == 0 and off[-1] == 200
            for p in range(4):
                np.testing.assert_array_equal(members[off[p]:off[p + 1]], membership[p])

    def test_readme_quick_start(self, tmp_path):
        # the README's commands and sizes; k-means leaves partitions far
        # smaller than C=256, which the one shared codebook does not mind
        from quips import evalbench
        from quips.hybrid import train_partitioner
        db, qs, out = (str(tmp_path / f) for f in ("db.fvecs", "queries.fvecs", "parts.npz"))
        assert main(["synth", "--n", "10000", "--d", "64", "--out", db]) == 0
        assert main(["synth", "--n", "1000", "--d", "64", "--seed", "1", "--out", qs]) == 0
        assert main(["hybrid-train", "--data", db, "--queries", qs,
                     "--partitions", "50", "--probe", "10", "--out", out]) == 0
        _, dbp, _, _ = evalbench.prepare_training(
            "quip-cov-x", load_vectors(db, "fvecs"), None, 8,
            evalbench.ExperimentConfig(seed=0, preprocess="permutation"))
        _, membership = train_partitioner(dbp, 50, 0)
        with np.load(out) as arc:
            members, off = arc["members"], arc["offsets"]
        assert min(len(m) for m in membership) < 256
        np.testing.assert_array_equal(off, np.cumsum([0] + [len(m) for m in membership]))
        np.testing.assert_array_equal(members, np.concatenate(membership))

    def test_fewer_rows_than_C_is_usage_error(self, tmp_path, capsys):
        db, out = str(tmp_path / "db.fvecs"), tmp_path / "p.npz"
        assert main(["synth", "--n", "100", "--d", "16", "--seed", "0",
                     "--out", db]) == 0
        assert main(["hybrid-train", "--data", db, "--partitions", "4",
                     "--k", "4", "--out", str(out)]) == 1
        assert "need n >= C" in capsys.readouterr().err
        assert not out.exists()

    # "QS" stands for the query file; --probe and --topn are checked only with one
    @pytest.mark.parametrize("extra,named", [
        (["--partitions", "0"], "P=0"),
        (["--partitions", "-3"], "P=-3"),
        (["--partitions", "5", "--queries", "QS", "--probe", "9"], "--probe 9"),
        (["--partitions", "5", "--queries", "QS", "--probe", "0"], "--probe 0"),
        (["--partitions", "5", "--queries", "QS", "--probe", "2", "--topn", "0"],
         "--topn >= 1; got 0"),
    ], ids=["partitions-0", "partitions-negative", "probe-over-partitions", "probe-0",
            "topn-0"])
    def test_bad_counts_are_usage_errors(self, tmp_path, vec_files, capsys, extra, named):
        db, qs = vec_files
        out = tmp_path / "p.npz"
        extra = [qs if a == "QS" else a for a in extra]
        assert main(["hybrid-train", "--data", db, "--k", "4", "--c", "4",
                     "--out", str(out)] + extra) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and named in err
        assert not out.exists()

    def test_probe_checked_before_loading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.fvecs")
        assert main(["hybrid-train", "--data", missing, "--queries", missing,
                     "--partitions", "5", "--probe", "9", "--out", str(tmp_path / "p")]) == 1
        assert "--probe 9" in capsys.readouterr().err

    def test_writes_exactly_out(self, tmp_path, vec_files):
        db, _ = vec_files
        out = tmp_path / "parts"
        assert main(["hybrid-train", "--data", db, "--partitions", "4", "--k", "4",
                     "--c", "4", "--out", str(out)]) == 0
        assert out.is_file() and not (tmp_path / "parts.npz").exists()
        with np.load(out) as arc:
            assert arc["offsets"][-1] == 200


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

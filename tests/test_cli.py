import csv
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quips
import quips.cli
from quips.cli import main
from quips.index import load_index, search_batch, search_top_n
from quips.vecstore import apply_preprocess, load_vectors


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

    @pytest.mark.parametrize("spread", ["nan", "inf"])
    def test_non_finite_spread_is_usage_error(self, tmp_path, capsys, spread):
        out = tmp_path / "v.fvecs"
        assert main(["synth", "--n", "15", "--d", "6", "--spread", spread,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: norm_spread must lie in [1, inf)")
        assert not out.exists()

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

    @pytest.mark.parametrize("ridge", ["nan", "inf", "-1"])
    def test_ridge_not_finite_and_nonnegative_is_usage_error(self, tmp_path, vec_files,
                                                             capsys, ridge):
        out = tmp_path / "x.quip"
        assert main(["train", "--method", "quip-cov-x", "--data", vec_files[0], "--k", "4",
                     "--c", "8", "--ridge", ridge, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: need a finite ridge >= 0")
        assert not out.exists()

    def test_cov_q_without_queries_is_data_error(self, tmp_path, vec_files):
        db, _ = vec_files
        out = str(tmp_path / "x.quip")
        assert main(["train", "--method", "quip-cov-q", "--data", db,
                     "--out", out]) == 2

    def test_missing_data_file(self, tmp_path):
        assert main(["train", "--method", "quip-cov-x", "--data",
                     str(tmp_path / "nope.fvecs"),
                     "--out", str(tmp_path / "x.quip")]) == 2

    def test_directory_as_data_is_data_error(self, tmp_path, capsys):
        assert main(["train", "--method", "quip-cov-x", "--data", str(tmp_path),
                     "--out", str(tmp_path / "x.quip")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
        assert not (tmp_path / "x.quip").exists()

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

    def test_search_csv_bytes(self, tmp_path, vec_files):
        db, qs = vec_files
        index = train_small(tmp_path, db)
        out = tmp_path / "hits.csv"
        assert main(["search", "--index", index, "--queries", qs,
                     "--topn", "7", "--out", str(out)]) == 0
        ids, scores = search_batch(load_index(index), load_vectors(qs, "fvecs").data, 7)
        want = "query,rank,id,score\r\n" + "".join(
            "%d,%d,%d,%.9g\r\n" % (j, r, ids[j, r], scores[j, r])
            for j in range(len(ids)) for r in range(ids.shape[1]))
        assert out.read_bytes() == want.encode()

    def test_search_rejects_wrong_query_width(self, tmp_path, vec_files, capsys):
        db, _ = vec_files
        index = train_small(tmp_path, db)
        narrow = str(tmp_path / "narrow.fvecs")
        assert main(["synth", "--n", "3", "--d", "4", "--out", narrow]) == 0
        out = str(tmp_path / "hits.csv")
        assert main(["search", "--index", index, "--queries", narrow,
                     "--out", out]) == 2
        assert "4 dims" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["quip-cov-x", "quip-cov-q", "quip-opt"])
    def test_encode_of_the_training_data_changes_no_byte(self, tmp_path, vec_files, method):
        # the freeze rule: a trained index already holds its codebook's codes
        db, qs = vec_files
        index = train_small(tmp_path, db, None if method == "quip-cov-x" else qs, method)
        out = tmp_path / "re.quip"
        assert main(["encode", "--index", index, "--data", db, "--out", str(out)]) == 0
        assert out.read_bytes() == Path(index).read_bytes()

    def test_encode_new_database(self, tmp_path, vec_files):
        db, _ = vec_files
        index = train_small(tmp_path, db)
        fresh = str(tmp_path / "fresh.fvecs")
        main(["synth", "--n", "50", "--d", "8", "--seed", "5", "--out", fresh])
        out = str(tmp_path / "fresh.quip")
        assert main(["encode", "--index", index, "--data", fresh,
                     "--out", out]) == 0
        assert load_index(out).n == 50

    def test_encode_in_place_then_search(self, tmp_path, vec_files):
        # without --out, encode rewrites --index while its codebook is mapped;
        # a child process, so a reader killed by SIGBUS fails only this test
        db, qs = vec_files
        index = train_small(tmp_path, db)
        fresh = str(tmp_path / "fresh.fvecs")
        main(["synth", "--n", "50", "--d", "8", "--seed", "5", "--out", fresh])
        side = str(tmp_path / "side.quip")
        assert main(["encode", "--index", index, "--data", fresh, "--out", side]) == 0
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quips.__file__)))
        out = subprocess.run([sys.executable, "-m", "quips.cli", "encode", "--index", index,
                              "--data", fresh], env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, (out.returncode, out.stderr)
        assert Path(index).read_bytes() == Path(side).read_bytes()
        for path, csv_out in ((index, "a.csv"), (side, "b.csv")):
            assert main(["search", "--index", path, "--queries", qs, "--topn", "5",
                         "--out", str(tmp_path / csv_out)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".")]

    # each preprocess damage is a data error whose message names the field
    PREPROCESS_DAMAGE = {"preprocess d_padded": "preprocess d_padded 10 differs",
                         "hadamard width": "power-of-2 dimensionality; got d_padded 9",
                         "negative seed": "preprocess seed must be >= 0; got -1"}

    @pytest.mark.parametrize("damage", ["code byte", "truncated", "ids width",
                                        "truncated padding", *PREPROCESS_DAMAGE])
    def test_search_damaged_index_is_data_error(self, tmp_path, vec_files, capsys,
                                                damage):
        db, qs = vec_files
        index = train_small(tmp_path, db, k=3)  # n=200, K=3, C=8: u8 codes, d_padded 9
        raw = bytearray(Path(index).read_bytes())
        # the ids section ends the file: an 8-byte length, the width byte and
        # 7 zero bytes, then 200 int16 ids; before it, 200 x 3 codes
        ids_payload = len(raw) - (8 + 200 * 2)
        # the 60-byte preprocess payload at bytes 40-99 (kind, 7 zero bytes,
        # i64 seed at 48, u32 d_padded at 56, 4 zero bytes, 9 i4 entries) is
        # padded to 104
        if damage == "code byte":
            raw[ids_payload - 8 - 200 * 3] = 200  # first code byte
        elif damage == "ids width":
            raw[ids_payload] = 3
        elif damage == "truncated padding":
            assert raw[100:104] == bytes(4)
            del raw[102:]
        elif damage == "preprocess d_padded":
            raw[56:60] = (10).to_bytes(4, "little")
        elif damage == "hadamard width":
            raw[40] = 2  # hadamard_rotation over the layout's 9 columns
        elif damage == "negative seed":
            raw[48:56] = (-1).to_bytes(8, "little", signed=True)
        else:
            del raw[-9:]
        with open(index, "wb") as f:
            f.write(raw)
        assert main(["search", "--index", index, "--queries", qs,
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
        assert self.PREPROCESS_DAMAGE.get(damage, "") in err

    # n=200, K=4, l=2: the covariance's first entry is at byte 120 and the
    # codebook's first centroid at byte 256
    @pytest.mark.parametrize("command", ["search", "encode"])
    @pytest.mark.parametrize("at, value, section", [(256, np.float32(np.nan), "codebook"),
                                                    (120, np.float64(np.inf), "covariance")])
    def test_non_finite_index_is_data_error(self, tmp_path, vec_files, capsys, command,
                                            at, value, section):
        db, qs = vec_files
        index = train_small(tmp_path, db)
        raw = bytearray(Path(index).read_bytes())
        raw[at:at + value.nbytes] = value.tobytes()
        Path(index).write_bytes(raw)
        capsys.readouterr()  # drop the training log line
        argv = (["search", "--queries", qs, "--out", str(tmp_path / "o.csv")]
                if command == "search" else ["encode", "--data", db])
        assert main(argv + ["--index", index]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{section} holds a non-finite" in err
        assert Path(index).read_bytes() == raw and not (tmp_path / "o.csv").exists()

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

    @pytest.mark.parametrize("kind", ["identity", "permutation", "hadamard_rotation"])
    def test_serving_draws_nothing(self, tmp_path, vec_files, monkeypatch, kind):
        # the index file holds its preprocessing table, so loading and
        # searching it never asks numpy's generator for the seed's draw
        db, qs = vec_files
        index = train_small(tmp_path, db, preprocess=kind)
        Q = load_vectors(qs, "fvecs").data

        def serve(out):
            loaded = load_index(index)
            top = search_top_n(loaded, Q[0], 5)
            ids, scores = search_batch(loaded, Q, 5)
            assert main(["search", "--index", index, "--queries", qs, "--topn", "5",
                         "--out", str(tmp_path / out)]) == 0
            return (top.ids.tobytes(), top.scores.tobytes(), ids.tobytes(), scores.tobytes(),
                    (tmp_path / out).read_bytes())

        want = serve("a.csv")

        def no_draw(*args, **kwargs):
            raise AssertionError("drew from numpy.random")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        assert serve("b.csv") == want
        monkeypatch.undo()
        script = ("import sys; from quips.cli import main; "
                  "code = main(sys.argv[1:]); print(code, 'numpy.random' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quips.__file__)))
        out = subprocess.run([sys.executable, "-c", script, "search", "--index", index,
                              "--queries", qs, "--topn", "5", "--out", str(tmp_path / "c.csv")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.stdout.split()[-2:] == ["0", "False"], out.stdout + out.stderr
        assert (tmp_path / "c.csv").read_bytes() == want[-1]

    def test_search_missing_index(self, tmp_path, vec_files):
        _, qs = vec_files
        assert main(["search", "--index", str(tmp_path / "no.quip"),
                     "--queries", qs, "--out", str(tmp_path / "o.csv")]) == 2

    def test_search_directory_as_index_is_data_error(self, tmp_path, vec_files, capsys):
        _, qs = vec_files
        folder = tmp_path / "d"
        folder.mkdir()
        assert main(["search", "--index", str(folder), "--queries", qs,
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()


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

    def test_every_method_in_both_regimes(self, tmp_path, capsys):
        methods = ["quip-cov-x", "quip-cov-q", "quip-opt",
                   "simple-lsh", "signed-alsh", "l2-alsh"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 600, "d": 16, "n_queries": 60, "C": 16,
                                        "bits": [16], "iters": 2, "methods": methods}))
        for regime, lsh_bits in (("fixed-bit", 16), ("fixed-time", 48)):
            prefix = str(tmp_path / regime)
            assert main(["eval", "--config", str(cfg_path), "--regime", regime,
                         "--out-prefix", prefix]) == 0
            *lines, last = capsys.readouterr().out.splitlines()
            assert last == f"wrote {prefix}.csv and {prefix}.json"
            with open(prefix + ".json") as f:
                summary = json.load(f)["methods"]
            assert list(summary) == [f"{m}@16" for m in methods]
            assert (tmp_path / f"{regime}.csv").stat().st_size > 0
            for line, (key, entry) in zip(lines, summary.items(), strict=True):
                assert entry["bits"] == (16 if key.startswith("quip") else lsh_bits)
                assert line.split() == [
                    key, f"bits={entry['bits']}",
                    f"P@R0.5={entry['precision_at_recall_0.5']:.3f}",
                    "train", f"{entry['train_s']:.2f}", "s",
                    f"{entry['query_ms']:.2f}", "ms/query"]

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
        ("n", 0), ("d", -1), ("n_queries", 0), ("C", 0), ("C", 1), ("topN", 0), ("iters", 0),
        ("lam", -0.5), ("seed", -1)])
    def test_config_out_of_range_is_usage_error(self, tmp_path, capsys, key, value):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({key: value}, f)
        assert main(["eval", "--config", cfg_path,
                     "--out-prefix", str(tmp_path / "rep")]) == 1
        assert f"usage error: config key {key!r} must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, message", [
        ({"data_path": "DB"}, "'data_path' and 'query_path' must be set together"),
        ({"bits": ["a"]}, "'bits' must list ints >= 1; got ['a']"),
        ({"bits": [0], "methods": ["simple-lsh"]}, "'bits' must list ints >= 1; got [0]"),
        ({"fixed_time_multiplier": 0}, "'fixed_time_multiplier' must be >= 1"),
        ({"example_query_fraction": -0.5},
         "'example_query_fraction' must lie in [0, 1]; got -0.5"),
        ({"example_query_fraction": 1.5}, "'example_query_fraction' must lie in [0, 1]; got 1.5"),
        ({"example_query_fraction": 1.0}, "'example_query_fraction' leaves no evaluation query"),
        ({"example_query_fraction": 0.0, "methods": ["simple-lsh", "quip-cov-q"]},
         "'example_query_fraction' and 'n_queries' leave no example query, which quip-cov-q "
         "needs (0.0 x 16 queries rounds to 0)"),
        ({"n_queries": 1, "methods": ["quip-opt"]},
         "'example_query_fraction' and 'n_queries' leave no example query, which quip-opt "
         "needs (0.5 x 1 queries rounds to 0)"),
    ])
    def test_bad_config_value_writes_no_report(self, tmp_path, vec_files, capsys, cfg,
                                               message):
        small = {"n": 100, "d": 8, "n_queries": 16, "C": 4, "bits": [16], "topN": 5,
                 "iters": 3, "methods": ["simple-lsh"], "preprocess": "identity"}
        cfg = {k: vec_files[0] if v == "DB" else v for k, v in cfg.items()}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**small, **cfg}))
        prefix = tmp_path / "rep"
        assert main(["eval", "--config", str(cfg_path), "--regime", "fixed-time",
                     "--out-prefix", str(prefix)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: config key") and message in err
        assert not list(tmp_path.glob("rep.*"))

    @pytest.mark.parametrize("key, value, message", [
        ("ridge", float("nan"), "usage error: need a finite ridge >= 0; got nan"),
        ("spread", float("inf"), "usage error: norm_spread must lie in [1, inf); got inf")])
    def test_non_finite_config_value_writes_no_report(self, tmp_path, capsys, key, value,
                                                      message):
        # JSON as Python reads it takes NaN and Infinity
        cfg = {"n": 100, "d": 8, "n_queries": 16, "C": 4, "bits": [16], "topN": 5,
               "iters": 3, "methods": ["quip-cov-x"], "preprocess": "identity", key: value}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["eval", "--config", str(tmp_path / "cfg.json"), "--out-prefix",
                     str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not list(tmp_path.glob("rep.*"))

    def test_no_example_query_for_methods_that_need_none(self, tmp_path):
        cfg = {"n": 100, "d": 8, "n_queries": 16, "C": 4, "bits": [16], "topN": 5,
               "iters": 3, "methods": ["quip-cov-x", "simple-lsh"], "preprocess": "identity",
               "example_query_fraction": 0.0}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        prefix = str(tmp_path / "rep")
        assert main(["eval", "--config", str(tmp_path / "cfg.json"), "--out-prefix",
                     prefix]) == 0
        with open(prefix + ".json") as f:
            assert set(json.load(f)["methods"]) == {"quip-cov-x@16", "simple-lsh@16"}

    def test_reported_bits_are_the_index_bits(self, tmp_path, monkeypatch):
        # C=3 codes take 2 bits each, so a 16-bit budget buys K=8 subspaces
        import quips.evalbench as eb
        built = []
        real = eb.build_quip_pipeline
        monkeypatch.setattr(eb, "build_quip_pipeline",
                            lambda *a: built.append(real(*a)) or built[-1])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 100, "d": 16, "n_queries": 16, "C": 3,
                                        "bits": [16], "iters": 2,
                                        "methods": ["quip-cov-x"]}))
        prefix = str(tmp_path / "rep")
        assert main(["eval", "--config", str(cfg_path), "--out-prefix", prefix]) == 0
        with open(prefix + ".json") as f:
            bits = json.load(f)["methods"]["quip-cov-x@16"]["bits"]
        assert [index.bits_per_vector for index in built] == [bits] == [16]


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

    def test_a_from_positive_products_and_default_epsilon(self, tmp_path, vec_files, capsys):
        db, qs = vec_files
        index = train_small(tmp_path, db)
        capsys.readouterr()  # drop the training log line
        assert main(["theory-check", "--index", index, "--data", db, "--queries", qs]) == 0
        report = json.loads(capsys.readouterr().out)
        spec = load_index(index).preprocess
        dp, qp = (apply_preprocess(load_vectors(p, "fvecs"), spec) for p in (db, qs))
        exact = qp.data @ dp.data.T
        assert report["a"] == float(np.percentile(exact[exact > 0], 70.0))
        assert report["epsilon"] == 0.2

    @pytest.mark.parametrize("method", ["quip-cov-x", "quip-cov-q"])
    def test_reports_unbiasedness(self, tmp_path, vec_files, capsys, method):
        from quips import evalbench
        db, qs = vec_files
        index = train_small(tmp_path, db, qs, method=method)
        capsys.readouterr()  # drop the training log line
        assert main(["theory-check", "--index", index, "--data", db, "--queries", qs]) == 0
        report = json.loads(capsys.readouterr().out)
        loaded = load_index(index)
        dp, qp = (apply_preprocess(load_vectors(p, "fvecs"), loaded.preprocess)
                  for p in (db, qs))
        want = evalbench.unbiasedness_check(loaded, qp, dp.data, samples=100_000)
        assert report["unbiasedness"] == want and isinstance(want["within_3se"], bool)

    def test_unbiasedness_sets_no_exit_code(self, tmp_path, vec_files, capsys, monkeypatch):
        import quips.evalbench as eb
        db, qs = vec_files
        index = train_small(tmp_path, db)
        biased = {"mean_error": 1.0, "standard_error": 0.01, "within_3se": False}
        monkeypatch.setattr(eb, "unbiasedness_check", lambda *a, **kw: biased)
        capsys.readouterr()  # drop the training log line
        assert main(["theory-check", "--index", index, "--data", db, "--queries", qs]) == 0
        assert json.loads(capsys.readouterr().out)["unbiasedness"] == biased

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

    # a NaN or infinite epsilon printed NaN or Infinity, which is not JSON, and
    # 1e-200 divided by an n a^2 epsilon^2 that underflows to 0
    @pytest.mark.parametrize("epsilon", ["nan", "inf", "1e-200"])
    def test_epsilon_must_be_finite_and_positive(self, tmp_path, vec_files, capsys, epsilon):
        db, qs = vec_files
        index = train_small(tmp_path, db)
        capsys.readouterr()  # drop the training log line
        assert main(["theory-check", "--index", index, "--data", db, "--queries", qs,
                     "--epsilon", epsilon]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error:") and "epsilon" in err

    @pytest.fixture
    def wide_index(self, tmp_path):
        """A 16-wide index over 600 rows."""
        db = str(tmp_path / "db.fvecs")
        assert main(["synth", "--n", "600", "--d", "16", "--out", db]) == 0
        return train_small(tmp_path, db), db

    @pytest.mark.parametrize("n, d, what, message", [
        (60, 16, "data", "60 rows, the index holds 600"),
        (600, 8, "data", "8 dims, the index wants 16"),
        (20, 8, "queries", "8 dims, the index wants 16"),
    ])
    def test_inputs_must_match_the_index(self, tmp_path, capsys, wide_index, n, d, what,
                                         message):
        index, db = wide_index
        other = str(tmp_path / "other.fvecs")
        assert main(["synth", "--n", str(n), "--d", str(d), "--seed", "1",
                     "--out", other]) == 0
        files = {"data": db, "queries": db, what: other}
        capsys.readouterr()
        assert main(["theory-check", "--index", index, "--data", files["data"],
                     "--queries", files["queries"]]) == 2
        assert capsys.readouterr().err == f"data error: {other}: {message}\n"

    def test_encode_rejects_data_of_another_width(self, tmp_path, capsys, wide_index):
        index, _ = wide_index
        narrow = str(tmp_path / "narrow.fvecs")
        assert main(["synth", "--n", "600", "--d", "8", "--out", narrow]) == 0
        before = Path(index).read_bytes()
        capsys.readouterr()
        assert main(["encode", "--index", index, "--data", narrow]) == 2
        assert capsys.readouterr().err == (f"data error: {narrow}: 8 dims, "
                                           "the index wants 16\n")
        assert Path(index).read_bytes() == before


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

    def test_trains_through_the_pipeline(self, tmp_path, vec_files, monkeypatch, capsys):
        # quip-cov-x at T=30 with permutation and ridge 1e-6; probing every
        # partition, the top id is the flat scan's over that index's codes
        import quips.evalbench as eb
        calls, real = [], eb.build_quip_pipeline
        monkeypatch.setattr(eb, "build_quip_pipeline", lambda *a: calls.append(a) or real(*a))
        db, qs = vec_files
        assert main(["hybrid-train", "--data", db, "--queries", qs, "--partitions", "4",
                     "--probe", "4", "--k", "4", "--c", "4",
                     "--out", str(tmp_path / "p.npz")]) == 0
        [(method, _, example, K, C, cfg)] = calls
        assert (method, example, K, C) == ("quip-cov-x", None, 4, 4)
        assert (cfg.iters, cfg.seed, cfg.preprocess, cfg.ridge) == (30, 0, "permutation", 1e-6)
        top = search_top_n(real(*calls[0]), load_vectors(qs, "fvecs").data[0], 10).ids[0]
        assert f"top id {top}\n" in capsys.readouterr().out

    # read before training: a bad query file fails the command and writes no file
    @pytest.mark.parametrize("queries, message", [
        ("narrow.fvecs", "4 dims, the index wants 8"),
        ("missing.fvecs", "No such file or directory")])
    def test_bad_query_file_is_data_error_before_training(self, tmp_path, vec_files, capsys,
                                                          queries, message):
        db, _ = vec_files
        assert main(["synth", "--n", "5", "--d", "4", "--out",
                     str(tmp_path / "narrow.fvecs")]) == 0
        out = tmp_path / "p.npz"
        capsys.readouterr()
        assert main(["hybrid-train", "--data", db, "--queries", str(tmp_path / queries),
                     "--partitions", "4", "--probe", "2", "--k", "4", "--c", "4",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("partitions", [0, 201])
    def test_partitions_checked_before_training(self, tmp_path, vec_files, capsys, monkeypatch,
                                                partitions):
        import quips.evalbench as eb

        def pipeline(*args):
            raise AssertionError("hybrid-train trained before it checked --partitions")

        monkeypatch.setattr(eb, "build_quip_pipeline", pipeline)
        db, _ = vec_files  # 200 rows
        out = tmp_path / "p.npz"
        assert main(["hybrid-train", "--data", db, "--partitions", str(partitions), "--k", "4",
                     "--c", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"usage error: need 1 <= P <= n; "
                                           f"got P={partitions}, n=200\n")
        assert not out.exists()

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
    @pytest.mark.parametrize("command", [
        ["synth", "--n", "10", "--d", "4"],
        ["train", "--method", "quip-cov-x", "--data", "DB", "--k", "4", "--c", "4"],
        ["hybrid-train", "--data", "DB", "--partitions", "2", "--k", "4", "--c", "4"]])
    def test_negative_seed_is_usage_error(self, tmp_path, vec_files, capsys, command):
        out = tmp_path / "out"
        argv = [vec_files[0] if a == "DB" else a for a in command]
        assert main(argv + ["--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: need --seed >= 0; got --seed -1")
        assert not out.exists()

    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

"""The library's whole pipeline against the reference QUIP in reference.py.

Training through build_quip_pipeline, save_index, load_index and
search_batch must give what reference.preprocess, reference.pipeline and
reference.search give; on a partitioned index built from the pipeline's
codebook and codes, hybrid_search at every probe must give the reference
partitioner plus a scan of the probed partitions.

Identity and permutation preprocessing match bit for bit.  The Hadamard
rotation is a fast transform in the library and a Sylvester matrix product
in the reference, which round differently, so there the reference's rows
and queries need only lie within HADAMARD_ATOL of the library's, and so do
the scores; the ids must be equal.  Its training then starts from the
library's rows: training breaks some exact ties by rounding (the two
members of a two-row cell lie equally far from its mean, and an empty cell
takes the farther one), so a last-bit difference in the rows could pick
another row and another codebook.  The codebook and the codes match bit
for bit for every preprocessing.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from quips.evalbench import QUIP_METHODS, ExperimentConfig, build_quip_pipeline
from quips.hybrid import build_hybrid, hybrid_search
from quips.index import load_index, save_index, search_batch
from quips.vecstore import PreprocessSpec, apply_preprocess, apply_preprocess_rows

HADAMARD_ATOL = 1e-9


def assert_bits_or_close(got, want, exact):
    assert got.shape == want.shape
    if exact:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=HADAMARD_ATOL)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pipeline_saved_loaded_and_searched_equals_the_reference(tmp_path_factory, data):
    draw = data.draw
    method = draw(st.sampled_from(QUIP_METHODS), label="method")
    kind = draw(st.sampled_from(PreprocessSpec.KINDS), label="preprocess")
    # the Hadamard rotation needs K to divide a power of 2
    K = draw(st.sampled_from((1, 2, 4) if kind == "hadamard_rotation" else (1, 2, 3, 4)),
             label="K")
    d = draw(st.integers(K, 16), label="d")
    C = draw(st.integers(1, 16), label="C")
    P = draw(st.sampled_from((1, 3)), label="P")
    n = draw(st.integers(max(C, P), 400), label="n")
    cfg = ExperimentConfig(iters=draw(st.integers(1, 3), label="T"),
                           seed=draw(st.integers(0, 2 ** 16), label="seed"),
                           preprocess=kind, J=draw(st.integers(0, 30), label="J"),
                           lam=draw(st.sampled_from((0.0, 0.01, 1.0)), label="lam"))
    rng = np.random.default_rng(cfg.seed)
    db = reference.make_set(rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, d),
                            ids=rng.permutation(n) * 3 - n)
    ex = reference.make_set(rng.standard_normal((draw(st.integers(2, 40), label="nq"), d)))
    Q = rng.standard_normal((draw(st.integers(1, 6), label="queries"), d))
    N = draw(st.integers(1, n + 2), label="N")
    exact = kind != "hadamard_rotation"

    index = build_quip_pipeline(method, db, None if method == "quip-cov-x" else ex, K, C, cfg)
    path = str(tmp_path_factory.mktemp("reference") / "index.quip")
    save_index(index, path)
    loaded = load_index(path)

    table = reference.preprocess_table(kind, cfg.seed, reference.padded_width(d, K, kind))
    assert table.astype("<i4").tobytes() == loaded.preprocess.table.tobytes()
    dbp = apply_preprocess(db, index.preprocess)
    library = (dbp.data, *(apply_preprocess_rows(x, index.preprocess) for x in (ex.data, Q)))
    rows, queries, Qp = (reference.preprocess(x, kind, table) for x in (db.data, ex.data, Q))
    for ours, theirs in zip((rows, queries, Qp), library):
        assert_bits_or_close(ours, theirs, exact)
    if not exact:  # training breaks exact ties by rounding: start from the library's rows
        rows, queries = library[:2]
    ref = reference.pipeline(method, rows, queries, db.ids, K, C, cfg.iters, cfg.seed,
                             cfg.lam, cfg.J, cfg.ridge)
    assert_bits_or_close(loaded.codebook.centroids, ref.centroids, True)
    np.testing.assert_array_equal(loaded.codes.codes, ref.codes)
    want_ids, want_scores = reference.search(ref, Qp, N)
    for searched in (index, loaded):
        ids, scores = search_batch(searched, Q, N)
        np.testing.assert_array_equal(ids, want_ids)
        assert_bits_or_close(scores, want_scores, exact)

    if P == 1:
        return
    pindex = build_hybrid(dbp, P, index.cov, None, index.preprocess, cfg.seed,
                          shared_codebook=index.codebook, shared_codes=index.codes)
    centers, members, _ = reference.partition(rows, P, cfg.seed)
    for q, qp in zip(Q, Qp):
        for probe in range(1, P + 1):
            got, scanned = hybrid_search(pindex, q, N, probe)
            ids, scores, rows_scanned = reference.probe_search(
                qp, centers, members, ref.codes, ref.ids, ref.centroids, N, probe)
            np.testing.assert_array_equal(got.ids, ids)
            assert_bits_or_close(got.scores, scores, exact)
            assert scanned == rows_scanned

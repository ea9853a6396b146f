import tracemalloc

import numpy as np
import pytest

from ecgbench import biometric
from ecgbench.biometric import (
    PairScores,
    Template,
    build_template,
    fuse_probes,
    generate_pairs,
    score_matrix,
    similarity,
)
from ecgbench.errors import ConstantVector, EmptyEnrollment, NoGenuinePairs, ZeroVector

from .oracles import generate_pairs_copying, score_matrix_copying


def test_similarity_examples():
    assert similarity([1.0, 0.0], [1.0, 0.0], "cosine") == pytest.approx(1.0)
    assert similarity([1.0, 0.0], [1.0, 1.0], "cosine") == pytest.approx(0.7071067811865475)
    assert similarity([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], "pearson") == pytest.approx(1.0)
    assert similarity([0.0, 0.0], [3.0, 4.0], "euclidean") == pytest.approx(-5.0)


def test_similarity_errors():
    with pytest.raises(ZeroVector):
        similarity([0.0, 0.0], [1.0, 0.0], "cosine")
    with pytest.raises(ConstantVector):
        similarity([2.0, 2.0], [1.0, 0.0], "pearson")


def test_scale_invariance_cosine_pearson_not_euclidean(rng):
    a = rng.normal(size=16)
    b = rng.normal(size=16)
    for metric in ("cosine", "pearson"):
        assert similarity(3.0 * a, b, metric) == pytest.approx(similarity(a, b, metric))
    # Constructed example: scaling flips the euclidean ranking but not cosine.
    probe = np.array([1.0, 0.0])
    near = np.array([0.9, 0.1])
    far_but_aligned = np.array([2.0, 0.0])
    assert similarity(probe, near, "euclidean") > similarity(probe, far_but_aligned, "euclidean")
    assert similarity(probe, near, "cosine") < similarity(probe, far_but_aligned, "cosine")


def test_template_mean():
    t = build_template([np.array([1.0, 0.0]), np.array([0.0, 1.0])], "a")
    assert np.allclose(t.vector, [0.5, 0.5])
    assert t.fusion == "mean"
    assert t.source_count == 2


def test_template_representative_medoid():
    embs = [np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([10.0, 0.0])]
    t = build_template(embs, "a", fusion="representative", metric="euclidean")
    assert np.array_equal(t.vector, embs[1])


def test_template_medoid_is_member_bitwise(rng):
    embs = [rng.normal(size=8) for _ in range(7)]
    t = build_template(embs, "a", fusion="representative", metric="cosine")
    assert any(t.vector.tobytes() == e.tobytes() for e in embs)


def test_template_size_one_takes_first():
    embs = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    for fusion in ("mean", "representative"):
        t = build_template(embs, "a", fusion=fusion, size=1)
        assert np.array_equal(t.vector, embs[0])


def test_template_mean_permutation_invariant(rng):
    embs = [rng.normal(size=6) for _ in range(9)]
    t1 = build_template(embs, "a", size="all")
    t2 = build_template(embs[::-1], "a", size="all")
    assert np.allclose(t1.vector, t2.vector, atol=1e-12)


@pytest.mark.parametrize("fusion", ["mean", "representative"])
@pytest.mark.parametrize("size", ["all", 1, 5])
def test_template_from_an_array_equals_the_list_bitwise(rng, fusion, size):
    embs = rng.normal(size=(9, 6))
    for metric in ("cosine", "pearson", "euclidean"):
        want = build_template(list(embs), "a", fusion, size, metric)
        for array in (embs, np.asfortranarray(embs), embs[::-1][::-1]):
            got = build_template(array, "a", fusion, size, metric)
            assert got.vector.tobytes() == want.vector.tobytes()
            assert got.source_count == want.source_count
            assert not np.shares_memory(got.vector, embs)


def test_template_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="mixed embedding dimensions"):
        build_template([np.zeros(3), np.zeros(4)], "a")


def test_template_empty():
    with pytest.raises(EmptyEnrollment):
        build_template([], "a")
    with pytest.raises(EmptyEnrollment):
        build_template(np.zeros((0, 4)), "a")


def test_fuse_probes_grouping():
    embs = [np.full(4, float(i)) for i in range(7)]
    fused = fuse_probes(embs, 3)
    assert len(fused) == 2
    assert np.allclose(fused[0], 1.0)  # mean of 0, 1, 2
    assert np.allclose(fused[1], 4.0)  # mean of 3, 4, 5; beat 6 dropped


def test_fuse_probes_small_record():
    embs = [np.array([1.0, 1.0]), np.array([3.0, 3.0])]
    fused = fuse_probes(embs, 3)
    assert len(fused) == 1
    assert np.allclose(fused[0], 2.0)


def test_fuse_probes_k1_identity(rng):
    embs = [rng.normal(size=5) for _ in range(4)]
    fused = fuse_probes(embs, 1)
    assert len(fused) == 4
    for orig, out in zip(embs, fused):
        assert np.array_equal(orig, out)


def _fuse_per_group(embs, k):
    """fuse_probes as a loop: one np.mean per group of k rows."""
    if k == 1:
        return [e.copy() for e in embs]
    if len(embs) < k:
        return [np.mean(embs, axis=0)]
    return [np.mean(embs[i * k: (i + 1) * k], axis=0) for i in range(len(embs) // k)]


def test_fuse_probes_bitwise_equals_per_group_mean(rng):
    for n in range(1, 15):
        embs = list(rng.normal(size=(n, 128)))
        for k in range(1, 6):
            fused = fuse_probes(embs, k)
            expect = _fuse_per_group(embs, k)
            assert len(fused) == len(expect)
            for got, want in zip(fused, expect):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def _gallery(vectors, subjects):
    return [Template(vector=np.asarray(v, dtype=float), subject_id=s,
                     fusion="mean", source_count=1, source_sessions=())
            for v, s in zip(vectors, subjects)]


def test_score_matrix_shape_and_order(rng):
    gallery = _gallery(rng.normal(size=(3, 8)), ["c", "a", "b"])
    probes = rng.normal(size=(4, 8))
    m = score_matrix(gallery, probes, ["a", "b", "c", "a"])
    assert m.scores.shape == (4, 3)
    assert m.gallery_subjects == ("a", "b", "c")


def test_score_matrix_self_match_is_row_max(rng):
    vecs = rng.normal(size=(3, 8))
    gallery = _gallery(vecs, ["a", "b", "c"])
    m = score_matrix(gallery, [vecs[1]], ["b"])
    row = m.scores[0]
    assert row[1] == pytest.approx(1.0)
    assert np.argmax(row) == 1


def test_score_matrix_cosine_symmetric(rng):
    vecs = rng.normal(size=(3, 6))
    gallery = _gallery(vecs, ["a", "b", "c"])
    m = score_matrix(gallery, list(vecs), ["a", "b", "c"])
    assert np.allclose(m.scores, m.scores.T, atol=1e-12)


def test_score_matrix_row_permutation_equivariance(rng):
    vecs = rng.normal(size=(4, 8))
    gallery = _gallery(rng.normal(size=(3, 8)), ["a", "b", "c"])
    subjects = ["a", "b", "c", "a"]
    m = score_matrix(gallery, list(vecs), subjects)
    perm = [2, 0, 3, 1]
    mp = score_matrix(gallery, [vecs[i] for i in perm], [subjects[i] for i in perm])
    assert np.array_equal(mp.scores, m.scores[perm])


def test_score_matrix_matches_similarity_per_metric(rng):
    vecs = rng.normal(size=(3, 8))
    probes = rng.normal(size=(2, 8))
    gallery = _gallery(vecs, ["a", "b", "c"])
    for metric in ("cosine", "pearson", "euclidean"):
        m = score_matrix(gallery, list(probes), ["a", "b"], metric)
        for i, p in enumerate(probes):
            for j, g in enumerate(sorted(gallery, key=lambda t: t.subject_id)):
                assert m.scores[i, j] == pytest.approx(
                    similarity(p, g.vector, metric), abs=1e-12)


def _toy_matrix(rng, n_probes=10, n_gallery=10):
    gallery = _gallery(rng.normal(size=(n_gallery, 8)),
                       [f"s{i}" for i in range(n_gallery)])
    probes = rng.normal(size=(n_probes, 8))
    subjects = [f"s{i % n_gallery}" for i in range(n_probes)]
    return score_matrix(gallery, list(probes), subjects)


def test_generate_pairs_balanced_counts(rng):
    m = _toy_matrix(rng)
    pairs = generate_pairs(m, "balanced", seed=1)
    assert pairs.genuine.size == 10
    assert pairs.impostor.size == 10


def test_generate_pairs_all_counts(rng):
    m = _toy_matrix(rng)
    pairs = generate_pairs(m, "all")
    assert pairs.genuine.size == 10
    assert pairs.impostor.size == 90


def test_generate_pairs_deterministic(rng):
    m = _toy_matrix(rng)
    a = generate_pairs(m, "balanced", seed=7)
    b = generate_pairs(m, "balanced", seed=7)
    assert np.array_equal(a.impostor, b.impostor)
    c = generate_pairs(m, "balanced", seed=8)
    assert not np.array_equal(a.impostor, c.impostor)


def test_generate_pairs_no_genuine(rng):
    gallery = _gallery(rng.normal(size=(2, 8)), ["a", "b"])
    m = score_matrix(gallery, [rng.normal(size=8)], ["z"])
    with pytest.raises(NoGenuinePairs):
        generate_pairs(m, "balanced", seed=0)


def test_generate_pairs_probe_outside_gallery_is_all_impostor():
    scores = np.arange(12.0).reshape(4, 3)
    m = biometric.ScoreMatrix(scores=scores, probe_subjects=("a", "z", "c", "b"),
                              gallery_subjects=("a", "b", "c"))
    pairs = generate_pairs(m, "all")
    assert pairs.genuine.tolist() == [0.0, 8.0, 10.0]
    # Row-major: probe "z" (row 1) contributes all three of its cells.
    assert pairs.impostor.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 11.0]


def test_pairscores_direct_construction():
    p = PairScores(genuine=np.array([0.9]), impostor=np.array([0.1]))
    assert (p.genuine.tolist(), p.impostor.tolist()) == ([0.9], [0.1])


def _blocks(probes, rng):
    """probes cut into consecutive blocks of 1-7 rows, as fused probe blocks come."""
    cuts = np.cumsum(rng.integers(1, 8, size=len(probes)))
    return np.split(probes, cuts[cuts < len(probes)])


@pytest.mark.parametrize("metric", ["cosine", "pearson", "euclidean"])
@pytest.mark.parametrize("n", [1, 97, 2054])
@pytest.mark.parametrize("d", [64, 128])
@pytest.mark.parametrize("n_gallery", [1, 2, 30])
def test_scoring_matches_copying_oracle_bitwise(metric, n, d, n_gallery):
    rng = np.random.default_rng([n, d, n_gallery])
    subjects = [f"s{i:02d}" for i in range(n_gallery)]
    gallery = _gallery(rng.normal(0.3, 1.0, size=(n_gallery, d)), subjects[::-1])
    probes = rng.normal(0.3, 1.0, size=(n, d))
    probe_subjects = [subjects[i % n_gallery] for i in range(n)]
    if n > 1:
        probe_subjects[n // 2] = "outsider"  # its row holds impostor cells only
    want = score_matrix_copying(gallery, probes, probe_subjects, metric)
    for given in (_blocks(probes, rng), probes, list(probes)):
        got = score_matrix(gallery, given, probe_subjects, metric)
        assert got.scores.tobytes() == want.scores.tobytes()
        assert got.scores.shape == want.scores.shape
        assert (got.probe_subjects, got.gallery_subjects) == (
            want.probe_subjects, want.gallery_subjects)
    if n_gallery == 1 and n == 1:
        with pytest.raises(NoGenuinePairs):
            generate_pairs(got, "balanced", seed=0)
        return
    for mode in ("balanced", "all"):
        for seed in range(5):
            pairs = generate_pairs(got, mode, seed=seed)
            expect = generate_pairs_copying(want, mode, seed=seed)
            for name in ("genuine", "impostor"):
                a, b = getattr(pairs, name), getattr(expect, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("metric", ["cosine", "pearson", "euclidean"])
def test_score_matrix_leaves_its_inputs_untouched(rng, metric):
    vectors = rng.normal(0.5, 1.0, size=(5, 16))
    gallery = _gallery(vectors[:3], ["a", "b", "c"])
    for template in gallery:
        template.vector.flags.writeable = False
    array = rng.normal(0.5, 1.0, size=(12, 16))
    vector_list = list(rng.normal(0.5, 1.0, size=(12, 16)))
    read_only = [rng.normal(0.5, 1.0, size=(k, 16)) for k in (5, 4, 3)]
    for block in read_only:
        block.flags.writeable = False
    subjects = ["a", "b", "c"] * 4
    for probes in (array, vector_list, read_only):
        rows = [np.array(row, copy=True) for row in probes]
        flags = [row.flags.writeable for row in probes]
        score_matrix(gallery, probes, subjects, metric)
        assert [row.tobytes() for row in probes] == [row.tobytes() for row in rows]
        assert [row.flags.writeable for row in probes] == flags
    assert [t.vector.tobytes() for t in gallery] == [v.tobytes() for v in vectors[:3]]


# score_matrix plus generate_pairs on 3,000 probe rows of d = 128 against 100
# templates, the probes handed over in fused blocks as evaluate_cell hands them.
# Measured peak 5.80 MB under cosine and pearson alike, nearly all of it the
# stacked probes (3.07 MB) and the scores (2.40 MB) alive together; the bound
# leaves 7% for allocator and numpy version drift. Scoring that copied peaked
# at 8.78 MB (cosine) and 11.95 MB (pearson) on the same data: its caller
# concatenated the blocks, and the centered and normalized rows were copies.
SCORING_PEAK_BOUND_MB = 6.2


@pytest.mark.parametrize("metric", ["cosine", "pearson"])
def test_scoring_memory_peak_is_bounded(metric):
    rng = np.random.default_rng(33)
    gallery = _gallery(rng.normal(size=(100, 128)), [f"s{i:03d}" for i in range(100)])
    blocks = [rng.normal(size=(30, 128)) for _ in range(100)]
    probe_subjects = [f"s{i:03d}" for i in range(100) for _ in range(30)]
    tracemalloc.start()
    try:
        matrix = score_matrix(gallery, blocks, probe_subjects, metric)
        pairs = generate_pairs(matrix, "balanced", seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs.impostor.size == 3000
    assert peak / 1e6 < SCORING_PEAK_BOUND_MB

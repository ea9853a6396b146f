import warnings

import numpy as np
import pytest

from ecgbench import metrics
from ecgbench.biometric import PairScores, Template, score_matrix
from ecgbench.errors import (
    EmptySide,
    GranularityWarning,
    TooFewScores,
    TrueSubjectMissing,
    ZeroPooledVariance,
)

from . import oracles


def _pairs(genuine, impostor):
    return PairScores(genuine=np.asarray(genuine, dtype=float),
                      impostor=np.asarray(impostor, dtype=float))


def test_eer_separable():
    assert metrics.eer(_pairs([0.9, 0.8], [0.1, 0.2])) == 0.0


def test_eer_exact_crossing():
    assert metrics.eer(_pairs([0.9, 0.7, 0.5], [0.6, 0.3, 0.1])) == pytest.approx(1 / 3)


def test_eer_indistinguishable():
    assert metrics.eer(_pairs([0.5], [0.5])) == pytest.approx(0.5)


def test_auc_examples():
    assert metrics.auc(_pairs([0.9, 0.8], [0.1, 0.2])) == 1.0
    assert metrics.auc(_pairs([0.5, 0.5], [0.5, 0.5])) == 0.5
    assert metrics.auc(_pairs([0.9, 0.7, 0.5], [0.6, 0.3, 0.1])) == pytest.approx(8 / 9)


def test_dprime_examples():
    assert metrics.dprime(_pairs([2.0, 4.0], [0.0, 2.0])) == pytest.approx(1.4142135623730951)
    assert metrics.dprime(_pairs([1.0, 2.0], [1.0, 2.0])) == 0.0
    with pytest.raises(ZeroPooledVariance):
        metrics.dprime(_pairs([1.0, 1.0], [1.0, 1.0]))
    with pytest.raises(TooFewScores):
        metrics.dprime(_pairs([1.0], [0.0, 0.5]))


def test_tar_at_far_examples():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GranularityWarning)
        assert metrics.tar_at_far(_pairs([0.9, 0.8], [0.1, 0.2])) == 1.0
        assert metrics.tar_at_far(_pairs([0.9, 0.4], [0.5, 0.3])) == 0.5
        assert metrics.tar_at_far(_pairs([0.9, 0.4], [0.5, 0.3]), far_target=1.0) == 1.0


def test_tar_granularity_warning():
    with pytest.warns(GranularityWarning):
        metrics.tar_at_far(_pairs([0.9], [0.1, 0.2]), far_target=0.001)


def test_empty_side():
    with pytest.raises(EmptySide):
        metrics.eer(PairScores(genuine=np.array([]), impostor=np.array([0.1])))


def _matrix(scores, probe_subjects, gallery_subjects):
    templates = [Template(vector=np.zeros(2), subject_id=s, fusion="mean",
                          source_count=1, source_sessions=())
                 for s in gallery_subjects]
    from ecgbench.biometric import ScoreMatrix
    return ScoreMatrix(scores=np.asarray(scores, dtype=float),
                       probe_subjects=tuple(probe_subjects),
                       gallery_subjects=tuple(gallery_subjects))


def test_rank_accuracy_diagonal_dominant():
    m = _matrix(np.eye(3) + 0.1, ["a", "b", "c"], ["a", "b", "c"])
    assert metrics.rank_accuracy(m, 1) == 1.0


def test_rank_accuracy_pessimistic_ties():
    scores = np.array([[0.9, 0.9]])
    m = _matrix(scores, ["a"], ["a", "b"])
    assert metrics.rank_accuracy(m, 1) == 0.0
    assert metrics.rank_accuracy(m, 2) == 1.0


def test_rank_accuracy_missing_subject():
    m = _matrix(np.zeros((1, 2)), ["z"], ["a", "b"])
    with pytest.raises(TrueSubjectMissing):
        metrics.rank_accuracy(m, 1)


def test_rank_accuracy_full_gallery_is_one(rng):
    scores = rng.normal(size=(12, 5))
    m = _matrix(scores, [f"s{i % 5}" for i in range(12)], [f"s{i}" for i in range(5)])
    assert metrics.rank_accuracy(m, 5) == 1.0


def test_rank_accuracy_matches_sort_oracle(rng):
    for _ in range(25):
        n_p, n_g = rng.integers(2, 12), rng.integers(2, 9)
        scores = np.round(rng.normal(size=(n_p, n_g)), 1)  # ties likely
        gallery = [f"s{i}" for i in range(n_g)]
        probes = [gallery[int(i)] for i in rng.integers(0, n_g, size=n_p)]
        m = _matrix(scores, probes, gallery)
        for k in (1, 2, 5):
            assert metrics.rank_accuracy(m, k) == oracles.rank_accuracy_sorted(
                scores, probes, gallery, k)


def _random_pairs(rng, with_ties=True):
    ng = int(rng.integers(2, 101))
    ni = int(rng.integers(2, 101))
    if with_ties and rng.random() < 0.5:
        genuine = rng.integers(0, 10, size=ng) / 10.0
        impostor = rng.integers(0, 10, size=ni) / 10.0
    else:
        genuine = rng.normal(loc=1.0, size=ng)
        impostor = rng.normal(loc=0.0, size=ni)
    return _pairs(genuine, impostor)


def test_metrics_match_bruteforce_oracles(rng):
    for _ in range(60):
        pairs = _random_pairs(rng)
        g, i = list(pairs.genuine), list(pairs.impostor)
        assert metrics.eer(pairs) == pytest.approx(oracles.eer_bruteforce(g, i), abs=1e-12)
        assert metrics.auc(pairs) == pytest.approx(oracles.auc_bruteforce(g, i), abs=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GranularityWarning)
            assert metrics.tar_at_far(pairs) == pytest.approx(
                oracles.tar_at_far_bruteforce(g, i), abs=1e-12)
        assert metrics.dprime(pairs) == pytest.approx(
            oracles.dprime_bruteforce(g, i), abs=1e-12)


def test_auc_equals_the_average_rank_statistic_bitwise(rng):
    # Tie-heavy and all-equal sides, where the tie groups decide U, plus a
    # large case whose rank sums are far from small integers.
    cases = [_random_pairs(rng) for _ in range(200)]
    for _ in range(50):
        ng, ni = rng.integers(1, 60, size=2)
        levels = int(rng.integers(1, 4))
        cases.append(_pairs(rng.integers(0, levels, size=ng) / 3.0,
                            rng.integers(0, levels, size=ni) / 3.0))
    cases += [_pairs([0.5] * 7, [0.5] * 3), _pairs([1.0], [1.0, 0.0, 1.0])]
    cases.append(_pairs(np.round(rng.normal(1.0, size=3000), 2),
                        np.round(rng.normal(size=40000), 2)))
    for pairs in cases:
        got = metrics.auc(pairs)
        assert type(got) is float
        assert got == oracles.auc_average_rank(pairs.genuine, pairs.impostor)


def test_auc_complement_symmetry(rng):
    for _ in range(20):
        pairs = _random_pairs(rng)
        swapped = PairScores(genuine=pairs.impostor, impostor=pairs.genuine)
        assert metrics.auc(pairs) + metrics.auc(swapped) == 1.0


def test_monotone_transform_invariance(rng):
    transform = lambda x: x**3 + x
    for _ in range(20):
        pairs = _random_pairs(rng)
        mapped = PairScores(genuine=transform(pairs.genuine),
                            impostor=transform(pairs.impostor))
        assert metrics.eer(mapped) == pytest.approx(metrics.eer(pairs), abs=1e-12)
        assert metrics.auc(mapped) == pytest.approx(metrics.auc(pairs), abs=1e-12)


def test_eer_below_half_when_auc_above_half(rng):
    # The discrete midpoint fallback can overshoot 0.5 by up to half a grid
    # step when AUC is barely above 0.5, so the sanity relation carries the
    # score-grid resolution as tolerance.
    for _ in range(40):
        pairs = _random_pairs(rng)
        if metrics.auc(pairs) >= 0.5:
            slack = 0.5 * (1.0 / pairs.genuine.size + 1.0 / pairs.impostor.size)
            assert metrics.eer(pairs) <= 0.5 + slack
        if metrics.auc(pairs) >= 0.6:
            assert metrics.eer(pairs) <= 0.5 + 1e-12


def test_roc_curve_monotonicity(rng):
    curve = metrics.roc_curve(_random_pairs(rng))
    assert np.all(np.diff(curve.far) <= 0)
    assert np.all(np.diff(curve.frr) >= 0)
    assert np.all((curve.far >= 0) & (curve.far <= 1))
    assert np.all((curve.frr >= 0) & (curve.frr <= 1))


def test_roc_thresholds_are_the_distinct_scores_then_inf(rng):
    # Ties within and across sides, and a signed zero, as a score matrix gives.
    genuine = np.concatenate([rng.integers(-3, 4, 30) / 4.0, [0.0, 0.5]])
    impostor = np.concatenate([rng.integers(-3, 4, 50) / 4.0, [-0.0, 0.5, 0.1]])
    curve = metrics.roc_curve(_pairs(genuine, impostor))
    expect = np.append(np.unique(np.concatenate([genuine, impostor])), np.inf)
    assert curve.thresholds.tobytes() == expect.tobytes()

"""Verification and identification metrics over score sets and score matrices.

Tie semantics are fixed so every value is exactly reproducible: acceptance at
equality (FAR counts impostor >= t, FRR counts genuine < t), pessimistic tie
handling in ranking, and a discrete threshold scan for the EER with a midpoint
fallback rather than ROC interpolation.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySide,
    GranularityWarning,
    TooFewScores,
    TrueSubjectMissing,
    ZeroPooledVariance,
)


@dataclass(frozen=True)
class RocCurve:
    """FAR/FRR over all candidate thresholds (distinct scores plus +inf)."""
    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.far) > 0) or np.any(np.diff(self.frr) < 0):
            raise ValueError("FAR must be non-increasing and FRR non-decreasing")


def _sides(pairs):
    genuine = np.asarray(pairs.genuine, dtype=float)
    impostor = np.asarray(pairs.impostor, dtype=float)
    if genuine.size == 0 or impostor.size == 0:
        raise EmptySide("need non-empty genuine and impostor score lists")
    return genuine, impostor


def roc_curve(pairs) -> RocCurve:
    genuine, impostor = _sides(pairs)
    # The distinct scores, found as np.unique finds them in finite input (the
    # scores are finite), but without loading numpy.ma as np.unique does.
    scores = np.sort(np.concatenate([genuine, impostor]))
    changes = np.concatenate([[True], scores[1:] != scores[:-1]])
    thresholds = np.concatenate([scores[changes], [np.inf]])
    gs = np.sort(genuine)
    ims = np.sort(impostor)
    # FAR(t) = frac(impostor >= t); FRR(t) = frac(genuine < t)
    far = (ims.size - np.searchsorted(ims, thresholds, side="left")) / ims.size
    frr = np.searchsorted(gs, thresholds, side="left") / gs.size
    return RocCurve(thresholds=thresholds, far=far, frr=frr)


def eer(pairs) -> float:
    """Threshold scan: exact FAR=FRR crossing if one exists, else the midpoint
    (FAR+FRR)/2 at the threshold minimizing |FAR-FRR| (smallest on ties)."""
    curve = roc_curve(pairs)
    diff = curve.far - curve.frr
    exact = np.nonzero(diff == 0.0)[0]
    if exact.size:
        return float(curve.far[exact[0]])
    best = int(np.argmin(np.abs(diff)))  # argmin takes the first = smallest threshold
    return float((curve.far[best] + curve.frr[best]) / 2.0)


def auc(pairs) -> float:
    """Mann-Whitney statistic with half credit for ties: U counts, for each
    genuine score, the impostor scores below it plus half of those equal to it.
    U is a sum of half-integers far below 2**53, so it is exact."""
    genuine, impostor = _sides(pairs)
    ims = np.sort(impostor)
    u = (np.searchsorted(ims, genuine, "left").sum()
         + np.searchsorted(ims, genuine, "right").sum()) / 2.0
    return float(u / (genuine.size * impostor.size))


def dprime(pairs) -> float:
    """|mu_G - mu_I| / sqrt((var_G + var_I) / 2), sample variances (n-1)."""
    genuine, impostor = _sides(pairs)
    if genuine.size < 2 or impostor.size < 2:
        raise TooFewScores("d-prime needs at least two scores per side")
    vg = genuine.var(ddof=1)
    vi = impostor.var(ddof=1)
    pooled = (vg + vi) / 2.0
    if pooled == 0.0:
        raise ZeroPooledVariance("both score lists are constant")
    return float(abs(genuine.mean() - impostor.mean()) / np.sqrt(pooled))


def tar_at_far(pairs, far_target: float = 0.001) -> float:
    """1 - FRR at the smallest candidate threshold whose FAR <= far_target.

    Warns when the impostor list is too small to resolve the target.
    """
    if far_target <= 0 or far_target > 1:
        raise ValueError(f"far_target must be in (0, 1], got {far_target}")
    curve = roc_curve(pairs)
    impostor_count = np.asarray(pairs.impostor).size
    if impostor_count < 1.0 / far_target:
        warnings.warn(
            f"{impostor_count} impostor scores cannot resolve FAR <= {far_target}",
            GranularityWarning, stacklevel=2)
    idx = int(np.argmax(curve.far <= far_target))  # thresholds ascend; first hit
    return float(1.0 - curve.frr[idx])


def rank_accuracy(matrix, k: int) -> float:
    """Fraction of probes whose true subject ranks within the top k.

    Pessimistic ranking: rank(p) = 1 + |{g != true : M[p, g] >= M[p, true]}|,
    so score ties count against the probe.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    subjects = list(matrix.gallery_subjects)
    col = {}
    for p in set(matrix.probe_subjects):
        if p not in subjects:
            raise TrueSubjectMissing(f"probe subject {p!r} not enrolled")
        col[p] = subjects.index(p)
    true_cols = np.array([col[p] for p in matrix.probe_subjects])
    scores = matrix.scores
    true_scores = scores[np.arange(len(true_cols)), true_cols]
    ranks = (scores >= true_scores[:, None]).sum(axis=1)  # includes the true cell
    return float(np.mean(ranks <= k))

"""Templates, probe fusion, similarity scoring, and genuine/impostor pairs.

All similarity metrics are oriented so that higher means more similar:
cosine and pearson in [-1, 1], euclidean as the negated distance.
"""

from dataclasses import dataclass

import numpy as np

from .core import METRIC_NAMES
from .errors import (
    ConstantVector,
    EmptyEnrollment,
    NoGenuinePairs,
    ZeroVector,
)
from .util import sub_rng


@dataclass(frozen=True)
class Template:
    vector: np.ndarray
    subject_id: str
    fusion: str
    source_count: int
    source_sessions: tuple[str, ...]


@dataclass(frozen=True)
class ScoreMatrix:
    """probes x gallery scores; columns are unique subjects in ascending order."""
    scores: np.ndarray
    probe_subjects: tuple[str, ...]
    gallery_subjects: tuple[str, ...]

    def __post_init__(self):
        if self.scores.shape != (len(self.probe_subjects), len(self.gallery_subjects)):
            raise ValueError("score matrix shape mismatch")
        if len(set(self.gallery_subjects)) != len(self.gallery_subjects):
            raise ValueError("gallery subjects must be unique")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")


@dataclass(frozen=True)
class PairScores:
    genuine: np.ndarray
    impostor: np.ndarray
    sampling: str = "all"
    seed: int | None = None


def pairwise(p, g, metric: str) -> np.ndarray:
    """(n, m) similarities between the rows of p (n, d) and the rows of g (m, d)."""
    if metric == "cosine":
        gn = np.linalg.norm(g, axis=1)
        pn = np.linalg.norm(p, axis=1)
        if np.any(gn == 0.0) or np.any(pn == 0.0):
            raise ZeroVector("cosine undefined for all-zero vectors")
        return (p / pn[:, None]) @ (g / gn[:, None]).T
    if metric == "pearson":
        gc = g - g.mean(axis=1, keepdims=True)
        pc = p - p.mean(axis=1, keepdims=True)
        gn = np.linalg.norm(gc, axis=1)
        pn = np.linalg.norm(pc, axis=1)
        if np.any(gn == 0.0) or np.any(pn == 0.0):
            raise ConstantVector("pearson undefined for constant vectors")
        return (pc / pn[:, None]) @ (gc / gn[:, None]).T
    if metric == "euclidean":
        sq = (np.sum(p**2, axis=1)[:, None] + np.sum(g**2, axis=1)[None, :]
              - 2.0 * (p @ g.T))
        return -np.sqrt(np.maximum(sq, 0.0))
    raise ValueError(f"metric must be one of {METRIC_NAMES}, got {metric!r}")


def similarity(a, b, metric: str = "cosine") -> float:
    """Similarity between two vectors under the configured metric."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("similarity needs two equal-length vectors of dim >= 2")
    return float(pairwise(a[None, :], b[None, :], metric)[0, 0])


def build_template(embeddings, subject_id: str, fusion: str = "mean",
                   size="all", metric: str = "cosine",
                   source_sessions=()) -> Template:
    """Fuse the first min(size, count) enrollment embeddings (chronological).

    mean: element-wise average. representative: the medoid, i.e. the member
    minimizing the summed distance (1 - similarity) to the other selected
    members; ties break toward the earliest position. The medoid is returned
    bit-for-bit, not recomputed. embeddings is an (n, d) array, or n vectors.
    """
    if not isinstance(embeddings, np.ndarray):
        embeddings = [np.asarray(e, dtype=float) for e in embeddings]
        dims = {e.shape for e in embeddings}
        if len(dims) > 1:
            raise ValueError(f"mixed embedding dimensions {dims}")
    # Row order in memory fixes the rounding of the mean and the medoid.
    embeddings = np.ascontiguousarray(embeddings, dtype=float)
    if not len(embeddings):
        raise EmptyEnrollment(f"no enrollment embeddings for {subject_id}")
    count = len(embeddings) if size == "all" else min(int(size), len(embeddings))
    chosen = embeddings[:count]
    if fusion == "mean":
        vector = np.mean(chosen, axis=0)
    elif fusion == "representative":
        if len(chosen) == 1:
            vector = chosen[0].copy()
        else:
            dist = 1.0 - pairwise(chosen, chosen, metric)
            np.fill_diagonal(dist, 0.0)
            vector = chosen[int(np.argmin(dist.sum(axis=1)))].copy()
    else:
        raise ValueError(f"fusion must be mean or representative, got {fusion!r}")
    return Template(vector=vector, subject_id=subject_id, fusion=fusion,
                    source_count=count, source_sessions=tuple(source_sessions))


def fuse_probes(embeddings, k: int) -> np.ndarray:
    """Mean-fuse consecutive non-overlapping groups of k probe embeddings, one row each.

    A trailing group smaller than k is dropped, except when the record has
    fewer than k embeddings in total: then all of them fuse into one probe.
    """
    if k < 1:
        raise ValueError("probe fusion size must be >= 1")
    embeddings = np.asarray(embeddings, dtype=float)
    if not len(embeddings):
        raise ValueError("fuse_probes needs a non-empty embedding list")
    if k == 1:  # a mean of one row would turn -0.0 into 0.0
        return embeddings.copy()
    # Reducing the middle axis adds each group's rows in order, as a mean over
    # the group's own (k, d) block does.
    n_groups = max(1, len(embeddings) // k)
    groups = embeddings[: n_groups * k].reshape(n_groups, -1, *embeddings.shape[1:])
    return groups.mean(axis=1)


def score_matrix(gallery, probes, probe_subjects, metric: str = "cosine") -> ScoreMatrix:
    """All probe-template similarities; rows in probe order, columns by subject.

    gallery: iterable of Template; probes: (n, d) array, or n vectors, with
    their true subject ids alongside.
    """
    gallery = sorted(gallery, key=lambda t: t.subject_id)
    probes = np.asarray(probes, dtype=float)
    if not gallery or not len(probes):
        raise ValueError("score_matrix needs a non-empty gallery and probes")
    scores = pairwise(probes, np.stack([t.vector for t in gallery]), metric)
    return ScoreMatrix(
        scores=scores,
        probe_subjects=tuple(probe_subjects),
        gallery_subjects=tuple(t.subject_id for t in gallery),
    )


def generate_pairs(matrix: ScoreMatrix, mode: str = "balanced",
                   seed: int = 0) -> PairScores:
    """Genuine scores are the own-subject cells; impostors the rest.

    balanced samples min(|genuine|, |impostors|) impostor cells uniformly
    without replacement with the given seed; all keeps every impostor cell.
    """
    column = {g: j for j, g in enumerate(matrix.gallery_subjects)}
    probe_column = np.array([column.get(p, -1) for p in matrix.probe_subjects])
    genuine_mask = probe_column[:, None] == np.arange(len(matrix.gallery_subjects))
    genuine = matrix.scores[genuine_mask]
    impostor = matrix.scores[~genuine_mask]
    if genuine.size == 0:
        raise NoGenuinePairs("no probe has its subject in the gallery")
    if impostor.size == 0:
        raise NoGenuinePairs("gallery of one subject yields no impostor cells")
    if mode == "all":
        return PairScores(genuine=genuine.copy(), impostor=impostor.copy(),
                          sampling="all")
    if mode == "balanced":
        take = min(genuine.size, impostor.size)
        idx = sub_rng(seed, "impostor-sample").choice(impostor.size, size=take,
                                                      replace=False)
        return PairScores(genuine=genuine.copy(), impostor=impostor[np.sort(idx)],
                          sampling="balanced", seed=seed)
    raise ValueError(f"mode must be balanced or all, got {mode!r}")

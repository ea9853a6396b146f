"""Templates, probe fusion, similarity scoring, and genuine/impostor pairs.

Both similarity metrics, cosine and pearson, lie in [-1, 1], higher meaning
more similar.
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


# Rows squared and summed per block in _row_sumsq: a (256, d) temporary, not (n, d).
_SUMSQ_ROWS = 256


def _row_sumsq(x) -> np.ndarray:
    """add.reduce(x * x, axis=1), a block of rows at a time.

    np.linalg.norm(x, axis=1) of a real x is the square root of this; each
    row's sum is the same alone or in a block.
    """
    out = np.empty(len(x))
    for start in range(0, len(x), _SUMSQ_ROWS):
        block = x[start: start + _SUMSQ_ROWS]
        np.add.reduce(block * block, axis=1, out=out[start: start + _SUMSQ_ROWS])
    return out


def pairwise(p, g, metric: str, *, _own_p: bool = False) -> np.ndarray:
    """(n, m) similarities between the rows of p (n, d) and the rows of g (m, d).

    _own_p: score_matrix owns p, so cosine and pearson scale its rows in place.
    """
    if metric == "cosine":
        gn = np.sqrt(_row_sumsq(g))
        pn = np.sqrt(_row_sumsq(p))
        if np.any(gn == 0.0) or np.any(pn == 0.0):
            raise ZeroVector("cosine undefined for all-zero vectors")
        return np.divide(p, pn[:, None], out=p if _own_p else None) @ (g / gn[:, None]).T
    if metric == "pearson":
        gc = g - g.mean(axis=1, keepdims=True)
        pc = np.subtract(p, p.mean(axis=1, keepdims=True), out=p if _own_p else None)
        gn = np.sqrt(_row_sumsq(gc))
        pn = np.sqrt(_row_sumsq(pc))
        if np.any(gn == 0.0) or np.any(pn == 0.0):
            raise ConstantVector("pearson undefined for constant vectors")
        # gc and pc are this function's own (or score_matrix's) arrays.
        return np.divide(pc, pn[:, None], out=pc) @ np.divide(gc, gn[:, None], out=gc).T
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

    gallery: iterable of Template; probes: an (n, d) array, n vectors, or a list
    of (k, d) blocks stacked in order, with their true subject ids alongside.
    The probes are read, never written: the stacked matrix is a new array.
    """
    gallery = sorted(gallery, key=lambda t: t.subject_id)
    if not gallery or not len(probes):
        raise ValueError("score_matrix needs a non-empty gallery and probes")
    p = np.vstack(probes, dtype=float)
    scores = pairwise(p, np.stack([t.vector for t in gallery]), metric, _own_p=True)
    return ScoreMatrix(
        scores=scores,
        probe_subjects=tuple(probe_subjects),
        gallery_subjects=tuple(t.subject_id for t in gallery),
    )


def generate_pairs(matrix: ScoreMatrix, mode: str = "balanced",
                   seed: int = 0) -> PairScores:
    """Genuine scores are the own-subject cells; impostors the rest, row-major.

    balanced samples min(|genuine|, |impostors|) impostor cells uniformly
    without replacement with the given seed; all keeps every impostor cell.
    balanced reads each drawn cell by its (row, column), without a copy of
    the impostor cells.
    """
    column = {g: j for j, g in enumerate(matrix.gallery_subjects)}
    probe_column = np.array([column.get(p, -1) for p in matrix.probe_subjects])
    has_genuine = probe_column >= 0
    rows = np.flatnonzero(has_genuine)
    genuine = matrix.scores[rows, probe_column[rows]]
    n_impostor = matrix.scores.size - genuine.size
    if genuine.size == 0:
        raise NoGenuinePairs("no probe has its subject in the gallery")
    if n_impostor == 0:
        raise NoGenuinePairs("gallery of one subject yields no impostor cells")
    if mode == "all":
        impostor_mask = np.ones(matrix.scores.shape, dtype=bool)
        impostor_mask[rows, probe_column[rows]] = False
        return PairScores(genuine=genuine, impostor=matrix.scores[impostor_mask])
    if mode == "balanced":
        take = min(genuine.size, n_impostor)
        idx = sub_rng(seed, "impostor-sample").choice(n_impostor, size=take,
                                                      replace=False)
        # Row r holds n_gallery - 1 impostor cells if it has a genuine column,
        # which is skipped, else n_gallery.
        n_gallery = len(matrix.gallery_subjects)
        counts = n_gallery - has_genuine
        ends = np.cumsum(counts)
        skip = np.where(has_genuine, probe_column, n_gallery)
        position = np.sort(idx)
        row = np.searchsorted(ends, position, side="right")
        offset = position - (ends - counts)[row]
        col = offset + (offset >= skip[row])
        return PairScores(genuine=genuine, impostor=matrix.scores[row, col])
    raise ValueError(f"mode must be balanced or all, got {mode!r}")

"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately naive (threshold enumeration, pairwise loops,
direct transfer-function evaluation) and shares no code path with the package
implementations it checks, except morphology_embed: the one-segment form of
embed.morphology_features, which tests use to embed single beats,
mlp_train_per_step, which starts from embed's mlp_init and returns an
embed.MlpModel, and score_matrix_copying and generate_pairs_copying, which
return biometric's ScoreMatrix and PairScores and draw with util.sub_rng.
"""

import cmath
import statistics

import numpy as np

from ecgbench.biometric import PairScores, ScoreMatrix
from ecgbench.core import METRIC_NAMES
from ecgbench.dsp import FilterSpec, apply_filter
from ecgbench.embed import MlpModel, mlp_init, morphology_features
from ecgbench.errors import (
    ConstantVector,
    DimensionMismatch,
    NoGenuinePairs,
    SingleClass,
    ZeroVariance,
    ZeroVector,
)
from ecgbench.synth import R_FRACTION, RR_JITTER
from ecgbench.util import sub_rng


def far_frr_at(threshold, genuine, impostor):
    far = sum(1 for s in impostor if s >= threshold) / len(impostor)
    frr = sum(1 for s in genuine if s < threshold) / len(genuine)
    return far, frr


def candidate_thresholds(genuine, impostor):
    return sorted(set(genuine) | set(impostor)) + [float("inf")]


def eer_bruteforce(genuine, impostor):
    best = None
    for t in candidate_thresholds(genuine, impostor):
        far, frr = far_frr_at(t, genuine, impostor)
        if far == frr:
            return far
        if best is None or abs(far - frr) < best[0]:
            best = (abs(far - frr), (far + frr) / 2.0)
    return best[1]


def auc_bruteforce(genuine, impostor):
    total = 0.0
    for g in genuine:
        for i in impostor:
            if g > i:
                total += 1.0
            elif g == i:
                total += 0.5
    return total / (len(genuine) * len(impostor))


def auc_average_rank(genuine, impostor):
    """Mann-Whitney AUC from the average ranks of the pooled scores, tie
    groups sharing the mean of their ranks."""
    genuine = np.asarray(genuine, dtype=float)
    impostor = np.asarray(impostor, dtype=float)
    combined = np.concatenate([genuine, impostor])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(combined.size, dtype=float)
    ranks[order] = np.arange(1, combined.size + 1)
    sorted_vals = combined[order]
    boundaries = np.nonzero(np.diff(sorted_vals) != 0)[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [combined.size]])
    for s, e in zip(starts, ends):
        if e - s > 1:
            ranks[order[s:e]] = (s + 1 + e) / 2.0
    u = ranks[: genuine.size].sum() - genuine.size * (genuine.size + 1) / 2.0
    return float(u / (genuine.size * impostor.size))


def tar_at_far_bruteforce(genuine, impostor, far_target=0.001):
    for t in candidate_thresholds(genuine, impostor):
        far, frr = far_frr_at(t, genuine, impostor)
        if far <= far_target:
            return 1.0 - frr
    raise AssertionError("unreachable: FAR at +inf is 0")


def dprime_bruteforce(genuine, impostor):
    mg, mi = statistics.mean(genuine), statistics.mean(impostor)
    vg, vi = statistics.variance(genuine), statistics.variance(impostor)
    return abs(mg - mi) / ((vg + vi) / 2.0) ** 0.5


def rank_accuracy_sorted(matrix, probe_true, gallery_subjects, k):
    """Sort-based rank oracle with pessimistic tie placement."""
    hits = 0
    for row, true_subject in zip(matrix, probe_true):
        true_col = list(gallery_subjects).index(true_subject)
        true_score = row[true_col]
        ordered = sorted(
            ((float(s), col == true_col) for col, s in enumerate(row)),
            key=lambda item: (-item[0], item[1]),  # ties: true entry placed last
        )
        rank = next(pos + 1 for pos, item in enumerate(ordered) if item[1])
        if rank <= k:
            hits += 1
    return hits / len(probe_true)


def section_response(section, freq_hz, fs):
    """|H| of one biquad at a single frequency, from the raw difference equation."""
    z1 = cmath.exp(-2j * cmath.pi * freq_hz / fs)
    num = section.b0 + section.b1 * z1 + section.b2 * z1 * z1
    den = 1.0 + section.a1 * z1 + section.a2 * z1 * z1
    return num / den


def cascade_magnitude(cascade, freq_hz, fs):
    h = cascade.gain
    for s in cascade.sections:
        h *= section_response(s, freq_hz, fs)
    return abs(h)


def synthesize_beat(theta, fs: float, rr: float) -> np.ndarray:
    """One synthetic beat of round(rr * fs) samples, its R bump on-grid at
    R_FRACTION of the beat: the Gaussian waves of theta evaluated directly."""
    if fs <= 0 or rr <= 0:
        raise ValueError("fs and rr must be positive")
    n = int(round(rr * fs))
    r_idx = int(round(R_FRACTION * n))
    t = np.arange(n) / fs - r_idx / fs
    beat = np.zeros(n)
    for w in theta.waves:
        beat += w.amplitude * np.exp(-((t - w.center_offset) ** 2) / (2.0 * w.width**2))
    return beat


def morphology_embed(samples, target_len: int = 128, method: str = "zscore") -> np.ndarray:
    """morphology_features of one segment. Raises ZeroVariance for a constant
    segment."""
    matrix, present = morphology_features(
        np.asarray(samples, dtype=float)[None], target_len, method)
    if not present[0]:
        raise ZeroVariance("constant segment cannot be normalized")
    return matrix[0]


def render_beats_loop(theta, fs, n_total, rr_rng):
    """Reference for synth._render_beats: a per-beat, per-wave overlap-add of
    the Gaussian waves; returns (signal, true R indices, number of windows
    that lie wholly outside the record)."""
    rr_base = 60.0 / theta.heart_rate_bpm
    signal = np.zeros(n_total)
    peaks = []
    outside = 0
    start = 0
    while start < n_total:
        rr = rr_base * (1.0 + RR_JITTER * rr_rng.uniform(-1.0, 1.0))
        n_beat = int(round(rr * fs))
        r_idx = start + int(round(R_FRACTION * n_beat))
        if r_idx < n_total:
            peaks.append(r_idx)
        for w in theta.waves:
            center = r_idx / fs + w.center_offset
            span = 5.0 * w.width
            lo = max(0, int(np.floor((center - span) * fs)))
            hi = min(n_total, int(np.ceil((center + span) * fs)) + 1)
            if lo >= hi:
                outside += 1
                continue
            t = np.arange(lo, hi) / fs
            signal[lo:hi] += w.amplitude * np.exp(
                -((t - center) ** 2) / (2.0 * w.width**2))
        start += n_beat
    return signal, np.asarray(peaks, dtype=int), outside


def align_peak_loop(x, peak: int, fs: float, half_window_s: float = 0.05) -> int:
    """Reference for segment.align_peak: one peak, as a slice of the signal."""
    x = np.asarray(x)
    if not 0 <= peak < len(x):
        raise ValueError(f"peak {peak} outside signal of {len(x)} samples")
    half = int(round(half_window_s * fs))
    lo = max(0, peak - half)
    hi = min(len(x), peak + half + 1)
    return lo + int(np.argmax(np.abs(x[lo:hi])))


def snap_loop(x, accepted, snap):
    """Reference for the snap of rpeak.pan_tompkins: each event moved to the
    maximum of x within +/- snap samples, one event at a time."""
    snapped = []
    for idx in accepted:
        lo = max(0, idx - snap)
        hi = min(len(x), idx + snap + 1)
        snapped.append(lo + int(np.argmax(x[lo:hi])))
    return snapped


def pan_tompkins_per_candidate(x, fs):
    """Pan-Tompkins with the RR average recomputed from the accepted peaks
    for every candidate, as the mean of their last eight intervals. Returns
    the peaks and how often search-back and refractory replacement fired.
    Only the band-pass filter is the package's."""
    x = np.asarray(x, dtype=float)
    band = apply_filter(
        FilterSpec(kind="butterworth_bandpass", order=2, low_hz=5.0, high_hz=15.0), x, fs)
    derivative = np.convolve(band, np.array([2.0, 1.0, 0.0, -1.0, -2.0]) / 8.0)[2: 2 + len(x)]
    win = max(1, int(round(0.15 * fs)))
    integrated = np.convolve(derivative**2, np.ones(win) / win)[(win - 1) // 2:][:len(x)]
    values = integrated.tolist()
    candidates = [i for i in range(1, len(x) - 1)
                  if values[i - 1] < values[i] >= values[i + 1] and values[i] > 0]
    spki = 0.25 * float(integrated[: int(2 * fs)].max())
    npki = 0.5 * float(integrated[: int(2 * fs)].mean())
    refr = int(round(0.2 * fs))
    accepted, rejected = [], []
    fired = {"searchback": 0, "replace": 0}
    for idx in candidates:
        threshold = npki + 0.25 * (spki - npki)
        if len(accepted) >= 2:
            rr = float(np.mean(np.diff(accepted[-9:])))
            if idx - accepted[-1] > 1.66 * rr and rejected:
                window = [j for j in rejected if accepted[-1] + refr <= j < idx]
                if window:
                    best = max(window, key=values.__getitem__)
                    if values[best] > 0.5 * threshold:
                        spki = 0.125 * values[best] + 0.875 * spki
                        threshold = npki + 0.25 * (spki - npki)
                        accepted.append(best)
                        fired["searchback"] += 1
        value = values[idx]
        if accepted and idx - accepted[-1] < refr:
            if value > values[accepted[-1]]:
                accepted[-1] = idx
                spki = 0.125 * value + 0.875 * spki
                fired["replace"] += 1
            continue
        if value > threshold:
            spki = 0.125 * value + 0.875 * spki
            accepted.append(idx)
            rejected = [j for j in rejected if j > idx]
        else:
            npki = 0.125 * value + 0.875 * npki
            rejected.append(idx)
    snap = int(round(0.05 * fs))
    snapped = sorted({max(0, i - snap) + int(np.argmax(x[max(0, i - snap): i + snap + 1]))
                      for i in accepted})
    final = snapped[:1]
    for idx in snapped[1:]:
        if idx - final[-1] >= refr:
            final.append(idx)
    return final, fired


# The MLP's reference step: a fresh array for every intermediate and eight
# separate parameter updates. embed trains in place and must match it bit for
# bit.

def softmax_per_step(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for numerical stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_per_step(params, x: np.ndarray):
    """Pre-activation, hidden activation and logits for params (w1, b1, w2, b2)."""
    w1, b1, w2, b2 = params
    z1 = x @ w1.T + b1
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ w2.T + b2
    return z1, hidden, logits


def _loss_and_grads_per_step(params, x: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy over the batch plus hand-written gradients."""
    n = len(x)
    z1, hidden, logits = _forward_per_step(params, x)
    probs = softmax_per_step(logits)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    delta2 = probs
    delta2[np.arange(n), labels] -= 1.0
    delta2 /= n
    gw2 = delta2.T @ hidden
    gb2 = delta2.sum(axis=0)
    delta1 = (delta2 @ params[2]) * (z1 > 0.0)
    gw1 = delta1.T @ x
    gb1 = delta1.sum(axis=0)
    return loss, (gw1, gb1, gw2, gb2)


def mlp_train_per_step(x, labels, hidden_dim: int = 64, lr: float = 0.05,
                       epochs: int = 150, batch: int = 64, seed: int = 0):
    """Train the classifier; returns (model, per-epoch mean batch loss).

    Deterministic: fixed (data, hyperparameters, seed) gives a bit-identical
    model. epochs=0 returns the He-initialized model untouched. The model is
    built, and its parameters checked finite, once, after the last step.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if x.ndim != 2 or len(x) != len(labels):
        raise DimensionMismatch("x must be (n, d) with one label per row")
    # Checked by range and count, not np.unique, which imports numpy.ma.
    low, high = (labels.min(), labels.max()) if len(labels) else (0, 0)
    if low == high:
        raise SingleClass("training needs at least two classes")
    if low != 0 or high >= len(labels) or not np.bincount(labels).all():
        raise ValueError("labels must be 0..C-1")
    rng = np.random.default_rng(seed)
    w1, b1, w2, b2 = mlp_init(x.shape[1], hidden_dim, int(high) + 1, rng).params
    losses = []
    # A diverging run overflows to inf and nan; MlpModel rejects those below.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(len(x))
            batch_losses = []
            for start in range(0, len(x), batch):
                sel = order[start: start + batch]
                loss, (gw1, gb1, gw2, gb2) = _loss_and_grads_per_step(
                    (w1, b1, w2, b2), x[sel], labels[sel])
                batch_losses.append(loss)
                w1 = w1 - lr * gw1
                b1 = b1 - lr * gb1
                w2 = w2 - lr * gw2
                b2 = b2 - lr * gb2
            losses.append(float(np.mean(batch_losses)))
    return MlpModel(w1=w1, b1=b1, w2=w2, b2=b2), losses


# The scoring path that copies: fresh normalized probe rows, full-size squares
# in the row norms, and a copy of every impostor cell. biometric scores without
# those copies and must match it bit for bit.

def pairwise_copying(p, g, metric: str) -> np.ndarray:
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
    raise ValueError(f"metric must be one of {METRIC_NAMES}, got {metric!r}")


def score_matrix_copying(gallery, probes, probe_subjects,
                         metric: str = "cosine") -> ScoreMatrix:
    """All probe-template similarities; rows in probe order, columns by subject.

    gallery: iterable of Template; probes: (n, d) array, or n vectors, with
    their true subject ids alongside.
    """
    gallery = sorted(gallery, key=lambda t: t.subject_id)
    probes = np.asarray(probes, dtype=float)
    if not gallery or not len(probes):
        raise ValueError("score_matrix needs a non-empty gallery and probes")
    scores = pairwise_copying(probes, np.stack([t.vector for t in gallery]), metric)
    return ScoreMatrix(
        scores=scores,
        probe_subjects=tuple(probe_subjects),
        gallery_subjects=tuple(t.subject_id for t in gallery),
    )


def generate_pairs_copying(matrix: ScoreMatrix, mode: str = "balanced",
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
        return PairScores(genuine=genuine.copy(), impostor=impostor.copy())
    if mode == "balanced":
        take = min(genuine.size, impostor.size)
        idx = sub_rng(seed, "impostor-sample").choice(impostor.size, size=take,
                                                      replace=False)
        return PairScores(genuine=genuine.copy(), impostor=impostor[np.sort(idx)])
    raise ValueError(f"mode must be balanced or all, got {mode!r}")

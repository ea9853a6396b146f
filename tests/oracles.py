"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately naive (threshold enumeration, pairwise loops,
direct transfer-function evaluation) and shares no code path with the package
implementations it checks.
"""

import cmath
import statistics

import numpy as np

from ecgbench.synth import R_FRACTION, RR_JITTER


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


def render_beats_loop(theta, fs, n_total, rr_rng):
    """Reference for synth._render_beats: a per-beat, per-wave overlap-add of
    the Gaussian waves; returns (signal, true R indices)."""
    rr_base = 60.0 / theta.heart_rate_bpm
    signal = np.zeros(n_total)
    peaks = []
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
                continue
            t = np.arange(lo, hi) / fs
            signal[lo:hi] += w.amplitude * np.exp(
                -((t - center) ** 2) / (2.0 * w.width**2))
        start += n_beat
    return signal, np.asarray(peaks, dtype=int)

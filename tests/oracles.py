"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately naive (threshold enumeration, pairwise loops,
direct transfer-function evaluation) and shares no code path with the package
implementations it checks.
"""

import cmath
import statistics

import numpy as np

from ecgbench.dsp import FilterSpec, apply_filter
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

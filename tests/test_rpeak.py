import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from ecgbench import dsp, rpeak, synth
from ecgbench.core import validate_config
from ecgbench.errors import NoPeaksDetected
from ecgbench.rpeak import RR_HISTORY, pan_tompkins, running_rr

from .oracles import pan_tompkins_per_candidate


def match_counts(detected, truth, fs, tol_s=0.05):
    """Greedy one-to-one matching within the tolerance window."""
    tol = round(tol_s * fs)
    truth = list(truth)
    hits = 0
    for d in detected:
        best = None
        for i, t in enumerate(truth):
            if abs(d - t) <= tol and (best is None or abs(d - t) < abs(d - truth[best])):
                best = i
        if best is not None:
            truth.pop(best)
            hits += 1
    return hits


def _clean_record(hr, seed, fs=360.0, duration=60.0, noise=0.0):
    theta = replace(synth.make_subject_params(seed), heart_rate_bpm=hr)
    eff = synth.SessionEffects("s0", noise_sigma=noise)
    return synth.synthesize_record(theta, eff, duration, fs, seed=seed)


@pytest.mark.parametrize("hr", [55.0, 70.0, 90.0])
def test_clean_sensitivity_and_precision(hr):
    rec, truth = _clean_record(hr, seed=21)
    peaks = pan_tompkins(rec.channels[0], rec.fs)
    hits = match_counts(peaks.indices, truth, rec.fs)
    assert hits / len(truth) >= 0.99
    assert hits / len(peaks) >= 0.99


def test_running_rr_equals_mean_of_diffs_bitwise(rng):
    for length in range(2, 21):
        for _ in range(20):
            history = [int(v) for v in np.cumsum(rng.integers(1, 5000, size=length))]
            expect = float(np.mean(np.diff(history[-(RR_HISTORY + 1):])))
            got = running_rr(history)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expect).tobytes()
    assert running_rr([]) is None
    assert running_rr([17]) is None


def _irregular_record(fs, seed, n_beats=80):
    """Narrow pulses at irregular intervals (0.25-1.8 s) with uneven heights,
    plus noise: weak pulses are missed and found again by search-back."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.25, 1.8, n_beats)) + 0.5
    heights = rng.uniform(0.15, 1.0, n_beats)
    t = np.arange(int((times[-1] + 1.0) * fs)) / fs
    x = np.zeros(len(t))
    for when, height in zip(times, heights):
        lo, hi = int((when - 0.05) * fs), int((when + 0.05) * fs)
        x[lo:hi] += height * np.exp(-0.5 * ((t[lo:hi] - when) / 0.012) ** 2)
    return x + rng.normal(0.0, 0.03, len(x))


def test_detector_matches_per_candidate_rr_oracle():
    # The detector updates its RR average and threshold only when they
    # change. The extra seeds hold rare cases: a candidate between the
    # thresholds before and after a search-back (128, 134 at 250 Hz; 136 at
    # 360 Hz) or at a gap that only the RR after a search-back exceeds (19 at
    # 250 Hz; 18 at 360 Hz).
    fired = {"searchback": 0, "replace": 0}
    for fs, extra in ((250.0, (19, 128, 134)), (360.0, (18, 136))):
        for seed in (*range(8), *extra):
            x = _irregular_record(fs, seed)
            expect, counts = pan_tompkins_per_candidate(x, fs)
            assert pan_tompkins(x, fs).indices.tolist() == expect
            for branch in fired:
                fired[branch] += counts[branch]
    assert all(fired.values())


def test_all_zero_signal():
    with pytest.raises(NoPeaksDetected):
        pan_tompkins(np.zeros(int(10 * 360)), 360.0)


def test_noisy_sensitivity():
    for seed in range(5):
        rec, truth = _clean_record(70.0, seed=30 + seed, noise=0.05)
        peaks = pan_tompkins(rec.channels[0], rec.fs)
        hits = match_counts(peaks.indices, truth, rec.fs)
        assert hits / len(truth) >= 0.97


def test_refractory_spacing():
    rec, _ = _clean_record(90.0, seed=3)
    peaks = pan_tompkins(rec.channels[0], rec.fs)
    assert np.all(np.diff(peaks.indices) >= round(0.2 * rec.fs))


def test_amplitude_scale_invariance():
    rec, _ = _clean_record(70.0, seed=8, noise=0.03)
    x = rec.channels[0]
    a = pan_tompkins(x, rec.fs)
    b = pan_tompkins(3.0 * x, rec.fs)
    assert np.array_equal(a.indices, b.indices)


def test_translation_covariance():
    fs = 360.0
    rec, _ = _clean_record(70.0, seed=5, duration=30.0)
    x = rec.channels[0]
    k_s = 3.0
    shift = round(k_s * fs)
    padded = np.concatenate([np.zeros(shift), x])
    base = pan_tompkins(x, fs).indices
    moved = pan_tompkins(padded, fs).indices
    warm = round(2.0 * fs)
    expect = {p + shift for p in base if p >= warm}
    got = {p for p in moved if p >= shift + warm}
    assert expect == got


def _record_with_weak_beat(scale, beat=20, fs=360.0):
    """A clean 30 s record whose one beat has its Q, R and S amplitudes scaled;
    returns (signal, ground truth peaks, index of that beat's R)."""
    theta = replace(synth.make_subject_params(21), heart_rate_bpm=70.0)
    weak = replace(theta, waves=tuple(
        replace(w, amplitude=w.amplitude * scale) if name in "qrs" else w
        for name, w in zip(synth.WAVE_NAMES, theta.waves)))
    eff = synth.SessionEffects("s0")
    rec, truth = synth.synthesize_record(theta, eff, 30.0, fs, seed=21)
    other, _ = synth.synthesize_record(weak, eff, 30.0, fs, seed=21)
    # Both records share their RR draws, and a wave's window ends exactly, so
    # between the midpoints to its neighbours only this beat's QRS differs.
    lo = (truth[beat - 1] + truth[beat]) // 2
    hi = (truth[beat] + truth[beat + 1]) // 2
    x = rec.channels[0].copy()
    x[lo:hi] = other.channels[0][lo:hi]
    return x, truth, truth[beat]


@pytest.mark.parametrize("searchback", [True, False])
def test_search_back_recovers_a_beat_between_half_and_full_threshold(
        monkeypatch, searchback):
    # The integrated QRS energy scales with the square of the amplitude and the
    # threshold sits near a quarter of the signal level: 0.42^2 = 0.18 lies
    # between half the threshold and the threshold.
    fs = 360.0
    x, truth, weak = _record_with_weak_beat(0.42, fs=fs)
    if not searchback:
        monkeypatch.setattr(rpeak, "SEARCHBACK_FACTOR", float("inf"))
    found = pan_tompkins(x, fs).indices
    others = truth[truth != weak]
    assert match_counts(found, others, fs) == len(others)
    assert match_counts(found, [weak], fs) == int(searchback)
    assert len(found) == len(others) + int(searchback)


def test_search_back_skips_a_beat_below_half_threshold():
    fs = 360.0
    x, truth, weak = _record_with_weak_beat(0.3, fs=fs)  # 0.3^2 = 0.09
    found = pan_tompkins(x, fs).indices
    assert match_counts(found, [weak], fs) == 0
    assert len(found) == len(truth) - 1


# --- the three presets through the run path -----------------------------------------

PRESETS = ("ablation", "aging4", "fallacy30")
PEAK_TOLERANCE_S = 0.05
# Digests of every record's detected peak indices at dataset seed 0, computed
# before running_rr became O(1); detection must not move by one sample.
PINNED_PEAKS = {
    "ablation": "529ee61a4ea70e258f4b3ee81d71de1c40592cfcb4d93dc43f2b69e61fba8dff",
    "aging4": "c4fc40ccacf6a251b778aa767c53ec26cfc413349e88de5e6a8c33445ac7c834",
    "fallacy30": "49423b9576190d953219f2fa34a443e44fa8f05661c1448d1320797a38200954",
}
# Digests of every record's synthesized signal bytes at dataset seed 0, computed
# before synthesis was vectorized; the generator must not move by one bit.
PINNED_SIGNALS = {
    "ablation": "09555ff664d539eff29a6cbcc7dbdb1cebd69ad801fbdcd8fbccfbb1980db2d3",
    "aging4": "2c7364c927b43829da0c61e19fa32e933439995158aeb6e5490f3f029af8c283",
    "fallacy30": "dbde1dd84faee623dd2d0a0ee479c00b1b5c8655ff49a8491564d770ed1917ac",
}


@pytest.fixture(scope="module")
def preset_detections():
    """{preset: [(record key, detected peaks, ground truth peaks, fs, signal
    sha256), ...]} at seed 0, detected on the default preprocessing as the
    SegmentStore does."""
    preprocess = validate_config({"dataset": {"kind": "synthetic", "preset": "aging4"},
                                  "regime": "single_session"}).preprocess
    out = {}
    for preset in PRESETS:
        rows = []
        for rec, truth in synth.generate_recordings(synth.preset_spec(preset), 0):
            clean = dsp.preprocess(rec, preprocess)
            found = pan_tompkins(clean.samples, clean.fs).indices
            signal = hashlib.sha256(rec.channels[0].tobytes()).hexdigest()
            rows.append((rec.key, found, np.asarray(truth), rec.fs, signal))
        out[preset] = rows
    return out


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_peaks_pinned(preset_detections, preset):
    text = json.dumps([[list(key), [int(i) for i in found]]
                       for key, found, *_ in preset_detections[preset]])
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_PEAKS[preset]


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_signals_pinned(preset_detections, preset):
    text = json.dumps([[list(key), signal]
                       for key, *_, signal in preset_detections[preset]])
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SIGNALS[preset]


def _within(reference, found, tol) -> int:
    """How many of ``reference`` have an entry of ``found`` within tol samples."""
    found = np.sort(found)
    i = np.clip(np.searchsorted(found, reference - tol), 0, len(found) - 1)
    return int(np.sum(np.abs(found[i] - reference) <= tol))


@pytest.mark.acceptance
@pytest.mark.parametrize("preset", PRESETS)
def test_preset_detector_quality(preset_detections, preset):
    se_hit = se_all = ppv_hit = ppv_all = 0
    for _, found, truth, fs, _ in preset_detections[preset]:
        tol = PEAK_TOLERANCE_S * fs
        se_hit += _within(truth, found, tol)
        se_all += len(truth)
        ppv_hit += _within(found, truth, tol)
        ppv_all += len(found)
    assert se_hit / se_all >= 0.999
    assert ppv_hit / ppv_all >= 0.999

"""Microbenchmarks of the kernels behind the pipeline's stages.

    python3 bench/kernels.py SEED

Prints one JSON object: for each kernel, the median seconds per call and a
byte count computed from the array sizes the kernel reads and writes (not
measured). Inputs come from SEED.
"""

import json
import statistics
import sys
import time

import numpy as np

from ecgbench import biometric, dsp, metrics, rpeak, synth

FS = 250.0
RECORD_S = 60.0
BEATS = 8000
BEAT_LEN = 150  # 0.6 s at 250 Hz, the default beat window
FEATURE_LEN = 128
PROBES, TEMPLATES = 300, 30
SCORES = 100_000
F8 = 8  # bytes per float64
MIN_REPEATS, MIN_SECONDS = 3, 0.2


def _median_seconds(call) -> float:
    times = []
    started = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - started < MIN_SECONDS:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _features(beats):
    return [dsp.normalize(dsp.resample_fourier(b, FEATURE_LEN)) for b in beats]


def measure(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    effects = synth.SessionEffects("s0", noise_sigma=0.05, baseline_amp=0.05)
    record, _ = synth.synthesize_record(
        synth.make_subject_params(seed), effects, RECORD_S, FS, seed)
    x = record.channels[0]
    n = len(x)
    spec = dsp.FilterSpec()  # 0.5-40 Hz order-3 Butterworth, zero phase
    clean = dsp.apply_filter(spec, x, FS)
    starts = rng.integers(0, n - BEAT_LEN, size=BEATS)
    beats = [clean[s:s + BEAT_LEN] for s in starts]
    dim = FEATURE_LEN
    gallery = [biometric.Template(rng.normal(size=dim), f"sub{i:03d}", "mean", 1, ())
               for i in range(TEMPLATES)]
    probes = list(rng.normal(size=(PROBES, dim)))
    probe_subjects = [f"sub{i % TEMPLATES:03d}" for i in range(PROBES)]
    genuine = rng.normal(0.8, 0.1, size=SCORES // 10)
    pairs = biometric.PairScores(genuine=genuine,
                                 impostor=rng.normal(0.3, 0.2, size=SCORES - genuine.size))

    kernels = {
        "apply_filter": (lambda: dsp.apply_filter(spec, x, FS), 2 * n * F8),
        "pan_tompkins": (lambda: rpeak.pan_tompkins(clean, FS), n * F8),
        "features": (lambda: _features(beats), BEATS * (BEAT_LEN + FEATURE_LEN) * F8),
        "score_matrix": (
            lambda: biometric.score_matrix(gallery, probes, probe_subjects),
            (PROBES + TEMPLATES) * dim * F8 + PROBES * TEMPLATES * F8),
        "eer": (lambda: metrics.eer(pairs), SCORES * F8),
        "auc": (lambda: metrics.auc(pairs), SCORES * F8),
    }
    out = {}
    for name, (call, computed_bytes) in kernels.items():
        out[f"kernel.{name}.s"] = _median_seconds(call)
        out[f"kernel.{name}.bytes"] = computed_bytes
    return out


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]))))

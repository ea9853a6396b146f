"""Parametric synthetic ECG generator with ground-truth R-peak locations.

Beats are sums of five Gaussian bumps (P, Q, R, S, T) whose per-subject
parameters are drawn from physiological ranges. Session-to-session variation
is a multiplicative perturbation of the wave parameters: per session s the
effective morphology is theta * (1 + delta_s * u_s), where u_s in [-1, 1] per
parameter blends a persistent per-subject aging direction with per-session
jitter (spec.drift_trend_weight controls the blend; 0 = independent sessions).
Everything is a pure function of (spec, seed).
"""

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .core import PRESET_NAMES, RecordKey, Recording, read_object
from .util import stable_seed, sub_rng

WAVE_NAMES = ("p", "q", "r", "s", "t")
R_FRACTION = 0.4  # R peak sits at 40% of each beat window
RR_JITTER = 0.03
DRIFT_CLIP = 1.0

# Per-wave (amplitude mV, center offset s, width s) sampling ranges. Offsets
# keep P < Q < R(=0) < S < T for any drift magnitude below MAX_DRIFT.
PARAM_RANGES = {
    "p": ((0.08, 0.25), (-0.22, -0.14), (0.020, 0.040)),
    "q": ((-0.25, -0.05), (-0.035, -0.020), (0.006, 0.012)),
    "r": ((0.80, 1.40), (0.0, 0.0), (0.008, 0.015)),
    "s": ((-0.40, -0.10), (0.020, 0.040), (0.006, 0.015)),
    "t": ((0.12, 0.50), (0.22, 0.36), (0.040, 0.080)),
}
# Drift moves a center c to c (1 + delta u), |u| <= 1, so the latest center of
# one wave, hi + delta |hi|, meets the earliest of the next, lo - delta |lo|, at
# delta = (lo - hi) / (|hi| + |lo|). P against Q is the closest pair:
# 0.14 (1 - delta) = 0.035 (1 + delta) at delta = 0.6.
MAX_DRIFT = min(
    (PARAM_RANGES[b][1][0] - PARAM_RANGES[a][1][1])
    / (abs(PARAM_RANGES[a][1][1]) + abs(PARAM_RANGES[b][1][0]))
    for a, b in zip(WAVE_NAMES, WAVE_NAMES[1:]))
HR_RANGE = (55.0, 85.0)


@dataclass(frozen=True)
class Wave:
    amplitude: float
    center_offset: float
    width: float


@dataclass(frozen=True)
class SubjectMorphology:
    waves: tuple[Wave, ...]  # ordered P, Q, R, S, T
    heart_rate_bpm: float

    def __post_init__(self):
        offsets = [w.center_offset for w in self.waves]
        if not all(a < b for a, b in zip(offsets, offsets[1:])):
            raise ValueError(f"wave centers must be strictly ordered, got {offsets}")
        if any(w.width <= 0 for w in self.waves):
            raise ValueError("wave widths must be positive")
        # Degenerate all-zero morphologies are allowed (useful in tests); a
        # negative R would flip the lead, which the generator never produces.
        if self.waves[2].amplitude < 0:
            raise ValueError("R amplitude must be non-negative")


@dataclass(frozen=True)
class SessionEffects:
    """Per-session acquisition conditions.

    trend_fraction (when set) overrides the dataset-level drift_trend_weight
    for this session: the fraction of the drift magnitude that follows the
    subject's persistent aging direction rather than session-specific jitter.
    """
    session_id: str
    day_index: int = 0
    morphology_drift: float = 0.0
    noise_sigma: float = 0.0
    baseline_amp: float = 0.0
    baseline_freq: float = 0.3
    amplitude_scale: float = 1.0
    trend_fraction: float | None = None

    def __post_init__(self):
        if self.noise_sigma < 0 or self.morphology_drift < 0 or self.amplitude_scale <= 0:
            raise ValueError("bad session effects")
        if not self.morphology_drift < MAX_DRIFT:
            raise ValueError(f"morphology_drift must be below {MAX_DRIFT}, where drift "
                             f"can reorder the waves, got {self.morphology_drift}")
        if self.trend_fraction is not None and not 0.0 <= self.trend_fraction <= 1.0:
            raise ValueError("trend_fraction must be in [0, 1]")


@dataclass(frozen=True)
class SynthSpec:
    n_subjects: int
    sessions: tuple[SessionEffects, ...]
    duration_s: float = 60.0
    fs: float = 250.0
    records_per_session: int = 1
    drift_trend_weight: float = 0.0

    def __post_init__(self):
        if self.n_subjects < 2:
            raise ValueError("need at least 2 subjects")
        if not self.sessions:
            raise ValueError("need at least one session")
        if not 0.0 <= self.drift_trend_weight <= 1.0:
            raise ValueError("drift_trend_weight must be in [0, 1]")
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s}")
        if not 0.0 < self.fs < math.inf:
            raise ValueError(f"fs must be positive and finite, got {self.fs}")
        if _shortest_beat(HR_RANGE[1], self.fs) < 1:
            raise ValueError(f"fs {self.fs} Hz leaves the shortest beat without a sample")


def _shortest_beat(heart_rate_bpm: float, fs: float) -> int:
    """Samples in the shortest beat the RR jitter can draw at this heart rate.
    _render_beats bounds its beat count by it, so it must be at least 1."""
    return round(60.0 / heart_rate_bpm * (1.0 - RR_JITTER) * fs)


def make_subject_params(seed: int) -> SubjectMorphology:
    """Draw one subject's morphology from the fixed physiological ranges."""
    rng = np.random.default_rng(seed)
    waves = []
    for name in WAVE_NAMES:
        (a0, a1), (c0, c1), (w0, w1) = PARAM_RANGES[name]
        waves.append(Wave(
            amplitude=float(rng.uniform(a0, a1)),
            center_offset=float(rng.uniform(c0, c1)),
            width=float(rng.uniform(w0, w1)),
        ))
    hr = float(rng.uniform(*HR_RANGE))
    return SubjectMorphology(waves=tuple(waves), heart_rate_bpm=hr)


def _drifted(theta: SubjectMorphology, delta: float, u: np.ndarray) -> SubjectMorphology:
    """theta * (1 + delta * u) elementwise over the 15 wave parameters.

    The resting heart rate is left alone so beat windows of different sessions
    stay comparable (and non-overlapping) at any drift level.
    """
    if delta == 0.0:
        return theta
    waves = []
    for i, w in enumerate(theta.waves):
        ua, uc, uw = u[3 * i: 3 * i + 3]
        waves.append(Wave(
            amplitude=w.amplitude * (1.0 + delta * ua),
            center_offset=w.center_offset * (1.0 + delta * uc),
            width=w.width * (1.0 + delta * uw),
        ))
    return replace(theta, waves=tuple(waves))


def session_drift_vector(drift_seed: int, subject_id: str, session_id: str,
                         trend_weight: float = 0.0) -> np.ndarray:
    """Per-parameter drift direction u in [-1, 1]^15 for one (subject, session).

    trend_weight blends a persistent per-subject direction (template aging has
    a consistent course for an individual) with session-specific jitter.
    """
    trend = sub_rng(drift_seed, subject_id, "drift-trend").uniform(-1.0, 1.0, size=15)
    jitter = sub_rng(drift_seed, subject_id, session_id, "drift-jitter").uniform(-1.0, 1.0, size=15)
    u = trend_weight * trend + (1.0 - trend_weight) * jitter
    return np.clip(u, -DRIFT_CLIP, DRIFT_CLIP)


def _render_beats(theta: SubjectMorphology, fs: float, n_total: int,
                  rr_rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Overlap-add all beats onto one timeline; returns (signal, true R indices).

    Each sample receives its Gaussian terms in (beat, wave) order, the order of
    a per-beat loop: P-T windows overlap within a beat, and a T window overlaps
    the next beat's P window, so the order fixes the rounding.
    """
    if _shortest_beat(theta.heart_rate_bpm, fs) < 1:
        raise ValueError(f"fs {fs} Hz leaves the shortest beat at "
                         f"{theta.heart_rate_bpm} bpm without a sample")
    # No beat is shorter than the shortest beat, so this many beats reach
    # n_total. The generator serves this record only, and an array draw gives
    # the values of as many scalar draws, so the beats drawn past the end
    # change nothing.
    m = -(-n_total // _shortest_beat(theta.heart_rate_bpm, fs))
    rr = 60.0 / theta.heart_rate_bpm * (1.0 + RR_JITTER * rr_rng.uniform(-1.0, 1.0, size=m))
    n_beat = np.rint(rr * fs).astype(int)
    ends = np.cumsum(n_beat)
    n_beat = n_beat[: np.searchsorted(ends, n_total) + 1]
    r_idx = ends[: len(n_beat)] - n_beat + np.rint(R_FRACTION * n_beat).astype(int)
    waves = theta.waves
    amplitude = np.array([w.amplitude for w in waves])
    span = np.array([5.0 * w.width for w in waves])
    denom = np.array([2.0 * w.width**2 for w in waves])
    # (beats, waves) window centers and sample bounds, flattened in (beat,
    # wave) order; each window expands to its samples, with its scalars.
    center = r_idx[:, None] / fs + np.array([w.center_offset for w in waves])
    lo = np.maximum(0, np.floor((center - span) * fs).astype(int)).ravel()
    hi = np.minimum(n_total, np.ceil((center + span) * fs).astype(int) + 1).ravel()
    counts = np.maximum(hi - lo, 0)
    first = np.cumsum(counts) - counts  # each window's first position in samples
    samples = np.arange(counts.sum()) + np.repeat(lo - first, counts)
    values = np.repeat(np.tile(amplitude, len(r_idx)), counts) * np.exp(
        -((samples / fs - np.repeat(center.ravel(), counts)) ** 2)
        / np.repeat(np.tile(denom, len(r_idx)), counts))
    signal = np.zeros(n_total)
    np.add.at(signal, samples, values)  # unbuffered, in (beat, wave, sample) order
    return signal, r_idx[r_idx < n_total]


def synthesize_record(
    theta: SubjectMorphology,
    effects: SessionEffects,
    duration_s: float,
    fs: float,
    seed: int,
    subject_id: str = "sub00",
    record_index: int = 0,
    drift_seed: int | None = None,
    trend_weight: float = 0.0,
) -> tuple[Recording, np.ndarray]:
    """Synthesize one record plus its ground-truth R-peak sample indices.

    The session drift direction is keyed by (drift_seed, subject, session) so
    all records of one session share the same drifted morphology, while RR
    jitter, wander phase, and noise are keyed by this record's seed.
    """
    weight = effects.trend_fraction if effects.trend_fraction is not None else trend_weight
    u = session_drift_vector(drift_seed if drift_seed is not None else seed,
                             subject_id, effects.session_id, weight)
    theta_s = _drifted(theta, effects.morphology_drift, u)
    n_total = int(round(duration_s * fs))
    clean, peaks = _render_beats(theta_s, fs, n_total, sub_rng(seed, "rr"))
    x = clean
    if effects.baseline_amp != 0.0:
        phase = sub_rng(seed, "wander").uniform(0.0, 2.0 * np.pi)
        t = np.arange(n_total) / fs
        x = x + effects.baseline_amp * np.sin(2.0 * np.pi * effects.baseline_freq * t + phase)
    x = effects.amplitude_scale * x
    if effects.noise_sigma > 0.0:
        x = x + sub_rng(seed, "noise").normal(0.0, effects.noise_sigma, size=n_total)
    key = RecordKey(subject_id, effects.session_id, effects.day_index, record_index)
    return Recording(key=key, fs=fs, channels=(x,)), peaks


def _subject_records(spec: SynthSpec) -> dict:
    """Each subject's records, in render order: (session id, day,
    record_index) -> (session effects, r), where r counts the session's
    records and record_index the subject's acquisitions within a day."""
    out = {}
    for sess in sorted(spec.sessions, key=lambda s: (s.day_index, s.session_id)):
        for r in range(spec.records_per_session):
            rec_idx = sum(day == sess.day_index for _, day, _ in out)
            out[(sess.session_id, sess.day_index, rec_idx)] = (sess, r)
    return out


def record_keys(spec: SynthSpec) -> list[RecordKey]:
    """The key of every record of a dataset, in (subject, day, record) order."""
    tails = _subject_records(spec)
    return [RecordKey(f"sub{i:03d}", *tail) for i in range(spec.n_subjects) for tail in tails]


def generate_recordings(spec: SynthSpec, seed: int, keys=None):
    """(Recording, true_peaks) of every record of a dataset in record_keys
    order, or of each of keys. A record is rendered from its own seeds, so
    rendered alone it is bitwise the one the full render gives, and finding
    it enumerates one subject's records only. A key that names no record of
    the dataset raises KeyError. Each subject's morphology is drawn once per
    call.
    """
    tails = _subject_records(spec)
    thetas = {}
    out = []
    for key in record_keys(spec) if keys is None else keys:
        digits = key.subject_id[3:]
        i = int(digits) if digits.isdecimal() else -1
        if not (0 <= i < spec.n_subjects and key.subject_id == f"sub{i:03d}"):
            raise KeyError(key)
        sess, r = tails[key[1:]]
        if i not in thetas:
            thetas[i] = make_subject_params(stable_seed(seed, "subject", i))
        out.append(synthesize_record(
            thetas[i], sess, spec.duration_s, spec.fs,
            seed=stable_seed(seed, key.subject_id, sess.session_id, r),
            subject_id=key.subject_id,
            record_index=key.record_index,
            drift_seed=seed,
            trend_weight=spec.drift_trend_weight,
        ))
    return out


def generate_dataset(spec: SynthSpec, seed: int, out_dir: str):
    """Write f32le records, ground-truth peak files, and a manifest to disk.

    Fully deterministic for fixed (spec, seed): same call twice produces
    byte-identical trees.
    """
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for rec, peaks in generate_recordings(spec, seed):
        key = rec.key
        stem = f"{key.subject_id}_{key.session_id}_d{key.day_index:03d}_r{key.record_index}"
        sig_path = os.path.join(out_dir, stem + ".f32")
        rec.channels[0].astype("<f4").tofile(sig_path)
        with open(os.path.join(out_dir, stem + ".peaks.json"), "w", encoding="utf-8") as fh:
            json.dump({"peaks": [int(p) for p in peaks]}, fh)
            fh.write("\n")
        entries.append({
            "subject": key.subject_id,
            "session": key.session_id,
            "day": key.day_index,
            "record_index": key.record_index,
            "path": stem + ".f32",
            "format": "f32le",
            "fs": spec.fs,
        })
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump({"records": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    from .ingest import parse_manifest  # local import to keep synth importable alone

    with open(manifest_path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read()), manifest_path


# --- presets -------------------------------------------------------------------

AGING_DRIFT_RATE = 0.25  # aging-trend delta per 30 days of gap (aging4 preset)
AGING_SESSION_JITTER = 0.15  # constant per-session placement/state drift (aging4)


def preset_spec(name: str) -> SynthSpec:
    """Built-in dataset presets used by the acceptance runs."""
    if name == "fallacy30":
        return SynthSpec(
            n_subjects=30,
            sessions=(
                SessionEffects("s0", day_index=0, morphology_drift=0.15,
                               noise_sigma=0.05, baseline_amp=0.08),
                SessionEffects("s1", day_index=1, morphology_drift=0.15,
                               noise_sigma=0.05, baseline_amp=0.08),
            ),
            duration_s=60.0,
            fs=250.0,
        )
    if name == "aging4":
        # Every session carries a constant placement/state jitter; on top of
        # it an aging trend grows with the day gap (delta = rate * gap / 30).
        days = (0, 10, 20, 40)
        sessions = []
        for i, d in enumerate(days):
            trend = AGING_DRIFT_RATE * d / 30.0
            total = AGING_SESSION_JITTER + trend
            sessions.append(SessionEffects(
                f"s{i}", day_index=d, morphology_drift=total,
                noise_sigma=0.04, baseline_amp=0.05,
                trend_fraction=trend / total if total > 0 else 0.0))
        return SynthSpec(n_subjects=30, sessions=tuple(sessions), duration_s=60.0,
                         fs=250.0)
    if name == "ablation":
        return SynthSpec(
            n_subjects=30,
            sessions=(
                SessionEffects("s0", day_index=0, morphology_drift=0.1,
                               noise_sigma=0.08, baseline_amp=0.05,
                               amplitude_scale=0.8),
                SessionEffects("s1", day_index=1, morphology_drift=0.1,
                               noise_sigma=0.08, baseline_amp=0.05,
                               amplitude_scale=1.25),
            ),
            duration_s=120.0,
            fs=250.0,
        )
    raise ValueError(f"unknown preset {name!r} (have {', '.join(PRESET_NAMES)})")


def spec_from_dict(raw) -> SynthSpec:
    """Build a SynthSpec from a parsed JSON description (cmd_synth --spec).

    core.read_object reads it, so the keys, defaults and JSON types are the
    fields of SynthSpec and SessionEffects: ConfigError names a spec or session
    that is not an object, a key that names no field, a missing key without a
    default, and a value of the wrong JSON type (an integer field takes no
    fraction, a string field no number). The dataclasses raise ValueError for
    values they reject.
    """
    return read_object(SynthSpec, raw, "spec")

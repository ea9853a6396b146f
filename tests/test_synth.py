import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ecgbench import ingest, synth
from ecgbench.core import RecordKey
from ecgbench.embed import morphology_embed
from ecgbench.segment import segment_beats
from ecgbench.util import stable_seed, sub_rng

from .oracles import render_beats_loop


def test_subject_params_deterministic():
    assert synth.make_subject_params(0) == synth.make_subject_params(0)


def test_subject_params_vary_across_seeds():
    for seed in range(100):
        a = synth.make_subject_params(seed)
        b = synth.make_subject_params(seed + 1)
        assert a != b


def test_subject_params_ordering_invariant():
    for seed in range(50):
        theta = synth.make_subject_params(seed)
        offsets = [w.center_offset for w in theta.waves]
        assert offsets == sorted(offsets)
        assert theta.waves[2].amplitude >= 0.8


def test_beat_length():
    theta = synth.make_subject_params(3)
    assert len(synth.synthesize_beat(theta, 360.0, 1.0)) == 360


def test_zero_amplitude_beat_is_zero():
    theta = synth.make_subject_params(3)
    silent = replace(theta, waves=tuple(replace(w, amplitude=0.0) for w in theta.waves))
    assert np.allclose(synth.synthesize_beat(silent, 250.0, 0.8), 0.0)


def test_beat_argmax_near_r_center():
    theta = synth.make_subject_params(7)
    fs, rr = 500.0, 1.0
    beat = synth.synthesize_beat(theta, fs, rr)
    r_idx = round(0.4 * round(rr * fs))
    assert abs(int(np.argmax(beat)) - r_idx) <= round(0.010 * fs)


def _effects(session="s0", **kw):
    return synth.SessionEffects(session_id=session, **kw)


def test_record_identical_without_drift_or_noise():
    theta = synth.make_subject_params(1)
    a, peaks_a = synth.synthesize_record(theta, _effects("s0"), 10.0, 250.0, seed=5)
    b, peaks_b = synth.synthesize_record(theta, _effects("s1"), 10.0, 250.0, seed=5)
    assert np.array_equal(a.channels[0], b.channels[0])
    assert np.array_equal(peaks_a, peaks_b)


def test_record_peak_count_matches_heart_rate():
    theta = replace(synth.make_subject_params(1), heart_rate_bpm=60.0)
    _, peaks = synth.synthesize_record(theta, _effects(), 10.0, 250.0, seed=2)
    assert 9 <= len(peaks) <= 11


def test_noise_residual_std():
    theta = synth.make_subject_params(4)
    clean, _ = synth.synthesize_record(theta, _effects(), 30.0, 250.0, seed=9)
    noisy, _ = synth.synthesize_record(
        theta, _effects(noise_sigma=0.05), 30.0, 250.0, seed=9)
    residual = noisy.channels[0] - clean.channels[0]
    assert 0.045 <= residual.std() <= 0.055


def test_ground_truth_peaks_are_local_maxima():
    theta = synth.make_subject_params(11)
    rec, peaks = synth.synthesize_record(theta, _effects(), 20.0, 250.0, seed=3)
    x = rec.channels[0]
    half = round(0.1 * 250.0)
    for p in peaks:
        lo, hi = max(0, p - half), min(len(x), p + half + 1)
        assert lo + int(np.argmax(x[lo:hi])) == p


def test_session_drift_changes_signal():
    theta = synth.make_subject_params(1)
    a, _ = synth.synthesize_record(theta, _effects("s0", morphology_drift=0.2),
                                   10.0, 250.0, seed=5)
    b, _ = synth.synthesize_record(theta, _effects("s1", morphology_drift=0.2),
                                   10.0, 250.0, seed=5)
    assert not np.allclose(a.channels[0], b.channels[0])


@pytest.mark.parametrize("drift", [0.0, 0.45])
@pytest.mark.parametrize("fs", [250.0, 360.0, 0.75])
def test_record_matches_per_beat_loop_bitwise(fs, drift):
    """2.3 s records: windows are cut at both ends of the record, the last
    beat's later windows lie wholly past its end, and P-T windows overlap
    within a beat and across neighbouring beats. At 0.75 Hz, the lowest fs a
    spec accepts, every beat is one sample long (60 s records): the one-call
    RR draw then uses every beat it draws, and no window lies wholly outside
    the record. Heart rates span HR_RANGE."""
    duration = 60.0 if fs < 1.0 else 2.3
    starts = ends = outside = 0
    for seed in range(8):
        for hr in (None, *synth.HR_RANGE):
            theta = synth.make_subject_params(seed)
            if hr is not None:
                theta = replace(theta, heart_rate_bpm=hr)
            rec, peaks = synth.synthesize_record(
                theta, _effects(morphology_drift=drift), duration, fs, seed=seed)
            drifted = synth._drifted(
                theta, drift, synth.session_drift_vector(seed, "sub00", "s0"))
            signal, truth, cut = render_beats_loop(
                drifted, fs, round(duration * fs), sub_rng(seed, "rr"))
            assert rec.channels[0].tobytes() == signal.tobytes()
            assert peaks.dtype == truth.dtype and np.array_equal(peaks, truth)
            # A window reaching the first or last sample was cut there.
            starts += signal[0] != 0.0
            ends += signal[-1] != 0.0
            outside += cut
    assert starts and ends and (outside > 0) == (fs > 1.0)


def _session_mean_embedding(rec, peaks):
    segs = segment_beats(rec.channels[0], rec.fs, peaks, 0.2, 0.4, align=False)
    embs = np.stack([morphology_embed(s.samples, target_len=64) for s in segs])
    return embs.mean(axis=0)


def test_drift_monotonicity_hook():
    sims = []
    for delta in (0.0, 0.1, 0.2):
        per_subject = []
        for i in range(20):
            theta = synth.make_subject_params(100 + i)
            recs = []
            for sess in ("s0", "s1"):
                rec, peaks = synth.synthesize_record(
                    theta, _effects(sess, morphology_drift=delta),
                    20.0, 250.0, seed=50 + i, drift_seed=77)
                recs.append(_session_mean_embedding(rec, peaks))
            a, b = recs
            per_subject.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
        sims.append(np.mean(per_subject))
    assert sims[0] >= sims[1] >= sims[2]


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_generate_dataset_counts_and_determinism(tmp_path):
    spec = synth.SynthSpec(
        n_subjects=4,
        sessions=(_effects("s0", noise_sigma=0.02),
                  _effects("s1", day_index=1, noise_sigma=0.02)),
        duration_s=10.0,
    )
    index, manifest_path = synth.generate_dataset(spec, seed=1, out_dir=str(tmp_path / "a"))
    assert len(index.records) == 8
    parsed = ingest.parse_manifest(Path(manifest_path).read_text())
    assert len(parsed.records) == 8
    rec = ingest.load_record(
        ingest.RecordMeta(index.records[0].key,
                          path=str(tmp_path / "a" / index.records[0].path),
                          format="f32le", fs=250.0))
    assert len(rec.channels[0]) == 2500

    synth.generate_dataset(spec, seed=1, out_dir=str(tmp_path / "b"))
    assert _tree_hash(tmp_path / "a") == _tree_hash(tmp_path / "b")
    synth.generate_dataset(spec, seed=2, out_dir=str(tmp_path / "c"))
    assert _tree_hash(tmp_path / "a") != _tree_hash(tmp_path / "c")


def test_truth_files_match_generated_peaks(tmp_path):
    spec = synth.SynthSpec(n_subjects=2, sessions=(_effects("s0"),), duration_s=10.0)
    synth.generate_dataset(spec, seed=6, out_dir=str(tmp_path))
    in_memory = synth.generate_recordings(spec, seed=6)
    for rec, peaks in in_memory:
        k = rec.key
        stem = f"{k.subject_id}_{k.session_id}_d{k.day_index:03d}_r{k.record_index}"
        on_disk = json.loads((tmp_path / f"{stem}.peaks.json").read_text())
        assert on_disk["peaks"] == [int(p) for p in peaks]


def _generate_recordings_loop(spec, seed):
    """generate_recordings as one loop over subjects, sessions and records."""
    out = []
    for i in range(spec.n_subjects):
        subject_id = f"sub{i:03d}"
        theta = synth.make_subject_params(stable_seed(seed, "subject", i))
        day_counts = {}
        for sess in sorted(spec.sessions, key=lambda s: (s.day_index, s.session_id)):
            for r in range(spec.records_per_session):
                rec_idx = day_counts.get(sess.day_index, 0)
                day_counts[sess.day_index] = rec_idx + 1
                out.append(synth.synthesize_record(
                    theta, sess, spec.duration_s, spec.fs,
                    seed=stable_seed(seed, subject_id, sess.session_id, r),
                    subject_id=subject_id, record_index=rec_idx, drift_seed=seed,
                    trend_weight=spec.drift_trend_weight))
    return out


def _same_records(got, want):
    assert [rec.key for rec, _ in got] == [rec.key for rec, _ in want]
    for (a, a_peaks), (b, b_peaks) in zip(got, want):
        assert a.fs == b.fs and len(a.channels) == len(b.channels) == 1
        assert a.channels[0].tobytes() == b.channels[0].tobytes()
        assert a_peaks.tobytes() == b_peaks.tobytes()


def test_records_render_alone_with_day_counts_across_sessions():
    # Two sessions on day 0, two records each: record_index counts the day's
    # acquisitions, while a record's seed counts its session's records.
    spec = synth.SynthSpec(n_subjects=3, sessions=(
        _effects("s1", noise_sigma=0.02), _effects("s0", noise_sigma=0.02),
        _effects("s2", day_index=3, morphology_drift=0.1)),
        duration_s=4.0, records_per_session=2, drift_trend_weight=0.5)
    keys = synth.record_keys(spec)
    assert keys[:6] == [("sub000", "s0", 0, 0), ("sub000", "s0", 0, 1),
                        ("sub000", "s1", 0, 2), ("sub000", "s1", 0, 3),
                        ("sub000", "s2", 3, 0), ("sub000", "s2", 3, 1)]
    full = synth.generate_recordings(spec, 4)
    _same_records(full, _generate_recordings_loop(spec, 4))
    assert [rec.key for rec, _ in full] == keys
    _same_records(synth.generate_recordings(spec, 4, keys=keys[::-1]), full[::-1])
    for key in keys:
        _same_records(synth.generate_recordings(spec, 4, keys=(key,)),
                      [full[keys.index(key)]])


def test_subject_morphology_is_drawn_once_per_call(monkeypatch):
    draws = []
    make_subject_params = synth.make_subject_params

    def counted(seed):
        draws.append(seed)
        return make_subject_params(seed)

    monkeypatch.setattr(synth, "make_subject_params", counted)
    spec = synth.preset_spec("aging4")
    full = synth.generate_recordings(spec, 0)
    assert len(full) == 120 and len(draws) == len(set(draws)) == 30
    draws.clear()
    synth.generate_recordings(spec, 0, keys=(full[57][0].key,))
    assert draws == [stable_seed(0, "subject", 14)]


@pytest.mark.parametrize("key", [
    ("sub002", "s0", 0, 0), ("sub1", "s0", 0, 0), ("sub-01", "s0", 0, 0),
    ("subx", "s0", 0, 0), ("sub000", "s0", 0, 1), ("sub000", "s0", 1, 0),
    ("sub000", "s9", 0, 0)],
    ids=["subject_past_the_last", "subject_unpadded", "subject_negative",
         "subject_not_a_number", "record_past_the_session", "wrong_day", "unknown_session"])
def test_generate_recordings_rejects_a_key_of_no_record(key):
    spec = synth.SynthSpec(n_subjects=2, sessions=(_effects("s0"),), duration_s=4.0)
    with pytest.raises(KeyError):
        synth.generate_recordings(spec, 0, keys=(RecordKey(*key),))


def test_single_subject_rejected():
    with pytest.raises(ValueError):
        synth.SynthSpec(n_subjects=1, sessions=(_effects(),))


@pytest.mark.parametrize("field, value", [
    ("fs", 0.0), ("fs", -250.0), ("fs", float("nan")), ("fs", float("inf")),
    ("fs", 0.5), ("duration_s", 0.0), ("duration_s", float("inf")),
])
def test_spec_rejects_sampling_that_cannot_render(field, value):
    with pytest.raises(ValueError, match=field):
        synth.SynthSpec(n_subjects=2, sessions=(_effects(),), **{field: value})


def test_lowest_accepted_fs_renders_a_sample_per_beat():
    # The shortest beat, 60 / 85 * 0.97 s, is 0.514 samples at 0.75 Hz: one sample.
    spec = synth.SynthSpec(n_subjects=2, sessions=(_effects(),), duration_s=60.0, fs=0.75)
    (rec, peaks), _ = synth.generate_recordings(spec, 0)
    assert len(rec.channels[0]) == 45 and len(peaks) >= 1
    with pytest.raises(ValueError, match="shortest beat"):
        synth.SynthSpec(n_subjects=2, sessions=(_effects(),), fs=0.7)


def test_synthesize_record_rejects_a_beat_of_no_samples():
    # At 0.5 Hz the shortest beat at 85 bpm rounds to 0 samples, which cannot
    # bound the beat count; the timeout turns a hang into a failure.
    code = "\n".join([
        "from dataclasses import replace",
        "from ecgbench import synth",
        "theta = replace(synth.make_subject_params(0), heart_rate_bpm=85.0)",
        "try:",
        "    synth.synthesize_record(theta, synth.SessionEffects('s0'), 60.0, 0.5, seed=0)",
        "except ValueError as exc:",
        "    print(exc)",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "fs 0.5 Hz leaves the shortest beat at 85.0 bpm without a sample\n"


def test_presets_exist_and_are_valid():
    for name in ("fallacy30", "aging4", "ablation"):
        spec = synth.preset_spec(name)
        assert spec.n_subjects == 30
    with pytest.raises(ValueError):
        synth.preset_spec("nope")

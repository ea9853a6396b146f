import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ecgbench import ingest, synth
from ecgbench.embed import morphology_embed
from ecgbench.segment import segment_beats


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


def test_single_subject_rejected():
    with pytest.raises(ValueError):
        synth.SynthSpec(n_subjects=1, sessions=(_effects(),))


def test_presets_exist_and_are_valid():
    for name in ("fallacy30", "aging4", "ablation"):
        spec = synth.preset_spec(name)
        assert spec.n_subjects == 30
    with pytest.raises(ValueError):
        synth.preset_spec("nope")

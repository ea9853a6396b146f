import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ecgbench import dsp, regimes, rpeak, segment, synth
from ecgbench.core import RecordKey, RegimeCell, validate_config
from ecgbench.embed import morphology_features
from ecgbench.errors import (
    KeyMismatch,
    RangeOutOfBounds,
    RegimeUnsatisfiable,
    TooFewSubjects,
)
from ecgbench.ingest import DatasetIndex, RecordMeta

from .oracles import morphology_embed


def _meta(subject, session, day, rec):
    return RecordMeta(RecordKey(subject, session, day, rec), path="x", format="f32le",
                      fs=250.0)


def _index(entries):
    metas = tuple(_meta(*e) for e in entries)
    return DatasetIndex(records=tuple(sorted(
        metas, key=lambda m: (m.key.subject_id, m.key.day_index, m.key.record_index))))


THREE_RECORD_INDEX = _index([
    ("a", "s0", 0, 0), ("a", "s1", 0, 1), ("a", "s2", 3, 0),
    ("b", "s0", 0, 0),
])


def test_single_cross_session_mapping():
    plan = regimes.map_regime(THREE_RECORD_INDEX, RegimeCell("single_cross_session"))
    split = plan.subjects["a"]
    assert split.enroll[0].record_key == ("a", "s0", 0, 0)
    assert split.probe[0].record_key == ("a", "s1", 0, 1)
    assert plan.excluded == ("b",)


def test_llo_long_term_mapping():
    plan = regimes.map_regime(THREE_RECORD_INDEX, RegimeCell("llo_long_term"))
    split = plan.subjects["a"]
    assert [s.record_key for s in split.enroll] == [("a", "s0", 0, 0), ("a", "s1", 0, 1)]
    assert [s.record_key for s in split.probe] == [("a", "s2", 3, 0)]


def test_regime_unsatisfiable():
    single = _index([("a", "s0", 0, 0), ("b", "s0", 0, 0)])
    with pytest.raises(RegimeUnsatisfiable):
        regimes.map_regime(single, RegimeCell("single_cross_session"))


def test_ss_short_term_mapping():
    plan = regimes.map_regime(THREE_RECORD_INDEX, RegimeCell("ss_short_term"))
    split = plan.subjects["a"]
    assert [s.record_key for s in split.enroll] == [("a", "s0", 0, 0)]
    assert [s.record_key for s in split.probe] == [("a", "s1", 0, 1)]


def test_llo_short_term_mapping():
    plan = regimes.map_regime(THREE_RECORD_INDEX, RegimeCell("llo_short_term"))
    split = plan.subjects["a"]
    assert [s.record_key for s in split.enroll] == [("a", "s0", 0, 0)]
    assert [s.record_key for s in split.probe] == [("a", "s1", 0, 1)]


def test_ss_long_term_mapping():
    plan = regimes.map_regime(THREE_RECORD_INDEX, RegimeCell("ss_long_term"))
    split = plan.subjects["a"]
    assert [s.record_key for s in split.enroll] == [("a", "s0", 0, 0), ("a", "s1", 0, 1)]
    assert [s.record_key for s in split.probe] == [("a", "s2", 3, 0)]


def test_cross_session_mapping():
    cell = RegimeCell("cross_session", enroll_session="s0", probe_session="s2")
    plan = regimes.map_regime(THREE_RECORD_INDEX, cell)
    split = plan.subjects["a"]
    assert [s.record_key for s in split.enroll] == [("a", "s0", 0, 0)]
    assert [s.record_key for s in split.probe] == [("a", "s2", 3, 0)]
    assert "b" in plan.excluded


def test_single_session_and_custom_split_mapping():
    plan = regimes.map_regime(THREE_RECORD_INDEX, RegimeCell("single_session"))
    split = plan.subjects["a"]
    assert split.enroll[0].beat_role == "enroll"
    assert split.probe[0].beat_role == "probe"
    assert split.enroll[0].record_key == split.probe[0].record_key

    cell = RegimeCell("custom_split", enroll_range=(0.0, 5.0), probe_range=(10.0, 15.0))
    plan = regimes.map_regime(THREE_RECORD_INDEX, cell)
    assert plan.subjects["a"].enroll[0].time_range == (0.0, 5.0)


def test_subject_partition_properties():
    subjects = [f"s{i}" for i in range(10)]
    train, evaluate = regimes.subject_partition(subjects, 0.5, seed=7)
    assert len(train) == 5 and len(evaluate) == 5
    assert sorted(train + evaluate) == sorted(subjects)
    assert set(train).isdisjoint(evaluate)
    again = regimes.subject_partition(subjects, 0.5, seed=7)
    assert (train, evaluate) == again
    assert regimes.subject_partition(subjects, 0.5, seed=8) != again
    with pytest.raises(TooFewSubjects):
        regimes.subject_partition(["only"], 0.5, seed=1)


def _sides(*sources):
    """(record key, (n, 2) spans) per source, as _realize_plan hands them over."""
    return [(key, np.array(spans, dtype=int).reshape(-1, 2)) for key, spans in sources]


def test_span_overlap_detection():
    enroll = _sides((("a",), [(0, 100), (200, 300)]))
    probe_ok = _sides((("a",), [(100, 200)]), (("b",), [(0, 100)]))
    probe_bad = _sides((("a",), [(250, 350)]))
    assert regimes._span_overlaps(enroll, probe_ok) == []
    assert regimes._span_overlaps(enroll, probe_bad) == [
        (("a",), (200, 300), (250, 350))]
    # Touching spans (one's hi is the other's lo) share no sample.
    assert regimes._span_overlaps(enroll, _sides((("a",), [(300, 400)]))) == []
    assert regimes._span_overlaps(_sides((("a",), [(300, 400)])), enroll) == []
    # One probe span across two enroll spans, from two sources of one record,
    # gives both pairs in enroll order; probe spans keep their own order.
    two_sources = _sides((("a",), [(0, 100)]), (("a",), [(200, 300)]))
    assert regimes._span_overlaps(two_sources, _sides((("a",), [(50, 250), (90, 95)]))) == [
        (("a",), (0, 100), (50, 250)), (("a",), (200, 300), (50, 250)),
        (("a",), (0, 100), (90, 95))]


def _tiny_spec(n_subjects=6, drift=0.1, noise=0.03, fs=250.0):
    return synth.SynthSpec(
        n_subjects=n_subjects,
        sessions=(
            synth.SessionEffects("s0", day_index=0, morphology_drift=drift,
                                 noise_sigma=noise),
            synth.SessionEffects("s1", day_index=1, morphology_drift=drift,
                                 noise_sigma=noise),
        ),
        duration_s=20.0,
        fs=fs,
    )


def _store(cfg, spec, seed=1):
    recordings = {}
    metas = []
    for rec, _ in synth.generate_recordings(spec, seed):
        recordings[rec.key] = rec
        metas.append(RecordMeta(rec.key, path="mem", format="f32le", fs=rec.fs))
    metas.sort(key=lambda m: (m.key.subject_id, m.key.day_index, m.key.record_index))
    index = DatasetIndex(records=tuple(metas))
    return regimes.SegmentStore(cfg, index, recordings)


@pytest.mark.parametrize("preset", ["aging4", "fallacy30", "ablation"])
def test_preset_records_rendered_alone_are_the_full_renders(preset, monkeypatch):
    # A preset's store renders one record at each lookup, through the module's
    # generate_recordings, whose ground truth the benchmark's tracer reads.
    spec, seed = synth.preset_spec(preset), 3
    full = synth.generate_recordings(spec, seed)
    generate_recordings, synthesize_record = synth.generate_recordings, synth.synthesize_record
    lookups, renders = [], []

    def tracked_generate_recordings(*args, **kwargs):
        lookups.append(generate_recordings(*args, **kwargs))
        return lookups[-1]

    def counted_synthesize_record(*args, **kwargs):
        renders.append(args)
        return synthesize_record(*args, **kwargs)

    monkeypatch.setattr(synth, "generate_recordings", tracked_generate_recordings)
    monkeypatch.setattr(synth, "synthesize_record", counted_synthesize_record)
    cfg = validate_config({"dataset": {"kind": "synthetic", "preset": preset, "seed": seed},
                           "regime": "single_session"})
    index, recordings = regimes.load_dataset_from_config(cfg.dataset)
    assert not renders
    assert sorted(recordings) == [meta.key for meta in index.records] == \
        sorted(rec.key for rec, _ in full)
    for n, (rec, peaks) in enumerate(full, start=1):
        alone = recordings[rec.key]
        assert len(lookups) == len(renders) == n
        ((rendered, alone_peaks),) = lookups[-1]
        assert rendered is alone
        assert (alone.key, alone.fs, len(alone.channels)) == (rec.key, rec.fs, 1)
        assert alone.channels[0].tobytes() == rec.channels[0].tobytes()
        assert alone_peaks.tobytes() == peaks.tobytes()


BASE_CONFIG = {
    "dataset": {"kind": "synthetic", "preset": "fallacy30", "seed": 1},
    "regime": [
        "single_session",
        {"name": "cross_session", "enroll_session": "s0", "probe_session": "s1"},
    ],
    "seeds": [0],
}


def test_run_evaluation_single_seed_smoke():
    cfg = validate_config(BASE_CONFIG)
    store = _store(cfg, _tiny_spec())
    out = regimes.run_evaluation(cfg, seed=0, store=store)
    assert set(out) == {"single_session|closed", "cross_session|closed"}
    cell = out["single_session|closed"]
    assert cell["rank1"] >= 0.9
    assert 0.0 <= cell["eer"] <= 1.0
    counts = cell["counts"]
    assert counts["subjects_total"] == counts["subjects_used"] + counts["subjects_excluded"]
    assert counts["genuine_pairs"] == counts["impostor_pairs"]  # balanced


def test_run_evaluation_deterministic_and_store_independent():
    cfg = validate_config(BASE_CONFIG)
    spec = _tiny_spec()
    a = regimes.run_evaluation(cfg, seed=3, store=_store(cfg, spec))
    b = regimes.run_evaluation(cfg, seed=3, store=_store(cfg, spec))
    assert a == b
    c = regimes.run_evaluation(cfg, seed=4, store=_store(cfg, spec))
    assert a != c


def test_open_setting_disjoint_pools():
    cfg = validate_config({
        "dataset": {"kind": "synthetic", "preset": "fallacy30", "seed": 1},
        "regime": {"name": "single_session", "setting": "open"},
        "embedder": {"kind": "mlp", "epochs": 20},
        "seeds": [0],
    })
    store = _store(cfg, _tiny_spec())
    out = regimes.run_evaluation(cfg, seed=0, store=store)
    diag = out["single_session|open"]["diag"]
    assert set(diag["train_subjects"]).isdisjoint(diag["eval_subjects"])
    assert len(diag["train_subjects"]) >= 1
    assert out["single_session|open"]["counts"]["gallery_size"] == len(diag["eval_subjects"])


def _cut(store, key, time_range=None):
    """The spans that preprocessing, detection and segmentation give for a
    (record, time range), in the range's sample indices; the range's samples;
    and the record index of the range's first sample."""
    cfg = store.cfg
    clean = dsp.preprocess(store.recordings[key], cfg.preprocess)
    offset = 0 if time_range is None else int(round(time_range[0] * clean.fs))
    hi = len(clean.samples) if time_range is None else int(round(time_range[1] * clean.fs))
    samples = clean.samples[offset:hi]
    seg_cfg = cfg.segmentation
    if seg_cfg.mode == "blind":
        return segment.segment_blind(samples, clean.fs, seg_cfg.window_s,
                                     seg_cfg.stride_s), samples, offset
    peaks = rpeak.pan_tompkins(samples, clean.fs).indices
    return segment.segment_beats(samples, clean.fs, peaks, seg_cfg.pre_s, seg_cfg.post_s,
                                 align=seg_cfg.align_peak), samples, offset


def _assert_same_block(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def test_prepared_features_are_shared_read_only_morphology_rows():
    cfg = validate_config(BASE_CONFIG)
    store = _store(cfg, _tiny_spec(n_subjects=2))
    key = store.index.records[0].key
    whole = store.prepare(regimes.SegmentSource(key))
    assert store.prepare(regimes.SegmentSource(key, beat_role="enroll")) is whole
    spans, samples, _ = _cut(store, key)
    n = len(spans)
    assert n > 0 and whole.features.shape == (n, cfg.embedder.target_len)
    assert whole.spans.tolist() == spans.tolist()
    assert whole.present.tolist() == [True] * n
    for (lo, hi), row in zip(spans.tolist(), whole.features):
        expect = morphology_embed(samples[lo:hi], cfg.embedder.target_len,
                                  cfg.preprocess.normalization)
        assert row.tobytes() == expect.tobytes()
    for array in (whole.spans, whole.features, whole.present):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    # A constant segment has no feature: its row is NaN.
    lo, hi = spans[0].tolist()
    features, present = morphology_features(
        np.stack([np.ones(hi - lo), samples[lo:hi]]), cfg.embedder.target_len,
        cfg.preprocess.normalization)
    assert present.tolist() == [False, True]
    assert np.isnan(features[0]).all()
    assert features[1].tobytes() == whole.features[0].tobytes()


def test_features_resample_once_per_segment_length(monkeypatch):
    # A record's segments share one length: they are cut as one block and
    # resampled as one batch. A record without segments resamples nothing.
    cfg = validate_config(BASE_CONFIG)
    store = _store(cfg, _tiny_spec(n_subjects=2))
    first, second = (meta.key for meta in store.index.records[:2])
    rec = store.recordings[second]
    store.recordings[second] = replace(rec, channels=(np.zeros(len(rec.channels[0])),))
    batches = []
    resample = regimes.dsp.resample_fourier
    monkeypatch.setattr(regimes.dsp, "resample_fourier",
                        lambda x, m: batches.append(x.shape) or resample(x, m))
    whole = store.prepare(regimes.SegmentSource(first))
    spans, samples, _ = _cut(store, first)
    assert batches == [(len(spans), spans[0, 1] - spans[0, 0])]
    flat = store.prepare(regimes.SegmentSource(second))
    assert len(batches) == 1
    assert flat.spans.shape == (0, 2) and flat.present.shape == (0,)
    assert flat.features.shape == (0, cfg.embedder.target_len)
    expect = [morphology_embed(samples[lo:hi], cfg.embedder.target_len,
                               cfg.preprocess.normalization)
              for lo, hi in spans.tolist()]
    assert whole.features.tobytes() == np.stack(expect).tobytes()


_BLIND = {"mode": "blind", "window_s": 2.0, "stride_s": 1.0}


@pytest.mark.parametrize("fs", [250.0, 360.0])
@pytest.mark.parametrize("segmentation", [{}, _BLIND], ids=["beat", "blind"])
@pytest.mark.parametrize("time_range", [None, (2.0, 9.5)], ids=["record", "range"])
def test_segments_are_cut_again_byte_for_byte(fs, segmentation, time_range):
    cfg = validate_config(dict(BASE_CONFIG, regime="single_cross_session",
                               segmentation=segmentation))
    store = _store(cfg, _tiny_spec(n_subjects=2, fs=fs))
    key = store.index.records[1].key
    prepared = store.prepare(regimes.SegmentSource(key, time_range))
    spans, samples, offset = _cut(store, key, time_range)
    assert len(spans) > 4
    assert prepared.spans.tolist() == (spans + offset).tolist()
    expect = np.stack([samples[lo:hi] for lo, hi in spans.tolist()])
    block, block_fs = store.samples(prepared, np.arange(len(spans)))
    assert block_fs == fs
    _assert_same_block(block, expect)
    # A selection keeps its rows' samples, in selection order.
    picked = np.array([1, 2, len(spans) - 1])
    _assert_same_block(store.samples(prepared, picked)[0], expect[picked])
    assert len(store.samples(prepared, np.arange(0))[0]) == 0


def test_prepared_source_holds_only_its_key_and_read_only_arrays(monkeypatch):
    cfg = validate_config(BASE_CONFIG)
    store = _store(cfg, _tiny_spec(n_subjects=2))
    key = store.index.records[0].key
    results = []
    segment_beats = segment.segment_beats
    monkeypatch.setattr(segment, "segment_beats",
                        lambda *a, **k: results.append(segment_beats(*a, **k)) or results[-1])
    prepared = store.prepare(regimes.SegmentSource(key, (2.0, 9.5)))
    # Segmentation makes no per-beat object: it returns one span array.
    assert len(results) == 1 and type(results[0]) is np.ndarray
    names = [f.name for f in dataclasses.fields(regimes.PreparedSource)]
    assert names == ["record_key", "time_range", "spans", "features", "present"]
    assert (prepared.record_key, prepared.time_range) == (key, (2.0, 9.5))
    assert prepared.spans.dtype == int and prepared.present.dtype == bool
    assert prepared.features.dtype == float
    for name in names[2:]:
        array = getattr(prepared, name)
        assert type(array) is np.ndarray and not array.flags.writeable
    # A preparation that crossed a process boundary is cached read-only again
    # under its own key.
    copy = pickle.loads(pickle.dumps(prepared))
    assert copy.spans.flags.writeable
    other = _store(cfg, _tiny_spec(n_subjects=2))
    other.add(copy)
    assert other.prepare(regimes.SegmentSource(key, (2.0, 9.5))) is copy
    assert not any(getattr(copy, name).flags.writeable for name in names[2:])


def _mlp_config(multiplier):
    return validate_config({
        "dataset": {"kind": "synthetic", "preset": "fallacy30", "seed": 1},
        "regime": {"names": ["single_session", "single_cross_session"],
                   "settings": ["closed", "open"]},
        "embedder": {"kind": "mlp", "epochs": 2,
                     "augment": {"multiplier": multiplier,
                                 "ops": [{"kind": "amplitude_scale"}]}},
        "seeds": [0],
    })


def test_mlp_without_augmentation_preprocesses_nothing_once_warm(monkeypatch):
    cfg = _mlp_config(multiplier=0)
    store = _store(cfg, _tiny_spec(n_subjects=4))
    for source in store.sources(cfg.regimes):
        store.prepare(source)
    calls = []
    preprocess = regimes.dsp.preprocess
    monkeypatch.setattr(regimes.dsp, "preprocess",
                        lambda rec, c: calls.append(rec.key) or preprocess(rec, c))
    out = regimes.run_evaluation(cfg, 0, store)
    assert len(out) == 4 and calls == []


def test_augmented_mlp_preprocesses_each_training_source_once(monkeypatch):
    cfg = _mlp_config(multiplier=1)
    cell = RegimeCell("single_cross_session")
    store = _store(cfg, _tiny_spec(n_subjects=4))
    for source in store.sources([cell]):
        store.prepare(source)
    calls = []
    preprocess = regimes.dsp.preprocess
    monkeypatch.setattr(regimes.dsp, "preprocess",
                        lambda rec, c: calls.append(rec.key) or preprocess(rec, c))
    regimes.evaluate_cell(cfg, cell, store, seed=0)
    # Closed setting: every subject trains, from its s0 record only.
    assert calls == [meta.key for meta in store.index.records
                     if meta.key.session_id == "s0"]


def _hash_probe_data(store, cfg, cell, seed):
    plan = regimes.map_regime(store.index, cell)
    realized = regimes._realize_plan(plan, cell, store, seed)[0]
    digest = hashlib.sha256()
    for subject in sorted(realized):
        for prepared, idx in realized[subject].probe:
            digest.update(store.samples(prepared, idx)[0].tobytes())
            digest.update(prepared.features[idx].tobytes())
    return digest.hexdigest()


def test_augmentation_never_touches_probe_data():
    cfg = validate_config({
        "dataset": {"kind": "synthetic", "preset": "fallacy30", "seed": 1},
        "regime": "single_session",
        "embedder": {"kind": "mlp", "epochs": 10,
                     "augment": {"multiplier": 2,
                                 "ops": [{"kind": "gaussian_noise", "sigma": 0.05},
                                         {"kind": "amplitude_scale"}]}},
        "seeds": [0],
    })
    store = _store(cfg, _tiny_spec(n_subjects=4))
    cell = cfg.regimes[0]
    before = _hash_probe_data(store, cfg, cell, seed=0)
    regimes.evaluate_cell(cfg, cell, store, seed=0)
    after = _hash_probe_data(store, cfg, cell, seed=0)
    assert before == after


_MEMO_REGIMES = {"names": ["single_session", "single_cross_session", "llo_long_term"],
                 "settings": ["closed", "open"]}


@pytest.mark.parametrize("evaluation", [
    {"template_fusion": "mean", "metric": "cosine"},
    {"template_fusion": "representative", "metric": "pearson", "template_size": 20},
], ids=["mean_cosine", "representative_pearson"])
def test_store_reused_across_seeds_gives_the_records_of_fresh_stores(evaluation):
    cfg = validate_config(dict(BASE_CONFIG, regime=_MEMO_REGIMES, evaluation=evaluation,
                               seeds=[0, 1, 2]))
    spec = _tiny_spec(n_subjects=5)
    shared = _store(cfg, spec)
    reused = [regimes.run_evaluation(cfg, seed, store=shared) for seed in cfg.seeds]
    fresh = [regimes.run_evaluation(cfg, seed, store=_store(cfg, spec))
             for seed in cfg.seeds]
    assert len(reused[0]) == 6
    assert json.dumps(reused, sort_keys=True) == json.dumps(fresh, sort_keys=True)


def _count_calls(monkeypatch, owner, name, seen):
    """Replace owner.name by a wrapper that appends each result to seen."""
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: seen.append(fn(*a, **k)) or seen[-1])


@pytest.mark.parametrize("kind", ["morphology", "mlp"])
def test_templates_built_once_per_run_for_a_training_free_embedder(kind, monkeypatch):
    cfg = validate_config(dict(BASE_CONFIG, regime=_MEMO_REGIMES, seeds=[0, 1, 2],
                               embedder={"kind": kind, "epochs": 2}))
    store = _store(cfg, _tiny_spec(n_subjects=4))
    plans, templates = [], []
    _count_calls(monkeypatch, regimes, "map_regime", plans)
    _count_calls(monkeypatch, regimes.biometric, "build_template", templates)
    cell = RegimeCell("single_cross_session")
    for seed in cfg.seeds:
        record = regimes.evaluate_cell(cfg, cell, store, seed)
        assert record["counts"]["gallery_size"] == 4
    assert len(plans) == 1
    assert len(templates) == (4 if kind == "morphology" else 4 * len(cfg.seeds))
    # Every cell is planned once per store, whatever the seeds.
    for seed in cfg.seeds:
        regimes.run_evaluation(cfg, seed, store=store)
    assert len(plans) == len(cfg.regimes)


def test_beat_split_drawn_once_per_subject_and_seed(monkeypatch):
    # Both sides of a subject, and both settings of the cell, share the draw.
    cfg = validate_config(dict(BASE_CONFIG, seeds=[0, 1, 2], regime={
        "name": "single_session", "settings": ["closed", "open"]}))
    store = _store(cfg, _tiny_spec(n_subjects=5))
    draws = []
    _count_calls(monkeypatch, regimes, "_split_beats", draws)
    records = [regimes.run_evaluation(cfg, seed, store=store) for seed in cfg.seeds]
    assert len(draws) == 5 * len(cfg.seeds)
    assert all(not half.flags.writeable for halves in draws for half in halves)
    # Pinned when each split was drawn four times per (subject, seed).
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4163d6c022c924cbdb8f2cfd2447f66f67efa94b68c97f7b6c1af8a4ad99e3c8")


def test_scoring_a_cell_leaves_numpy_ma_unloaded():
    # np.unique, which neither the metrics nor the MLP's training call, imports
    # numpy.ma. The morphology cell runs first, so each embedder is seen alone.
    code = ("import sys\n"
            "from tests.test_regimes import BASE_CONFIG, _store, _tiny_spec\n"
            "from ecgbench import regimes\n"
            "from ecgbench.core import validate_config\n"
            "for embedder in ({}, {'kind': 'mlp', 'epochs': 2}):\n"
            "    cfg = validate_config(dict(BASE_CONFIG, regime='single_cross_session',\n"
            "                               embedder=embedder))\n"
            "    store = _store(cfg, _tiny_spec(n_subjects=4))\n"
            "    regimes.run_evaluation(cfg, 0, store=store)\n"
            "    print('numpy.ma' in sys.modules)\n")
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(regimes.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, repo_root, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "False"]


def test_reused_templates_and_fused_probes_are_read_only(monkeypatch):
    cfg = validate_config(dict(BASE_CONFIG, regime=_MEMO_REGIMES))
    store = _store(cfg, _tiny_spec(n_subjects=4))
    templates, probes = [], []
    _count_calls(monkeypatch, regimes.biometric, "build_template", templates)
    _count_calls(monkeypatch, regimes.biometric, "fuse_probes", probes)
    regimes.run_evaluation(cfg, 0, store=store)
    assert templates and probes
    for array in [t.vector for t in templates] + probes:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_leakage_guard_across_regimes():
    cfg = validate_config(dict(BASE_CONFIG, regime=[
        "single_session", "single_cross_session", "ss_long_term", "llo_long_term",
        {"name": "cross_session", "enroll_session": "s0", "probe_session": "s1"},
    ]))
    store = _store(cfg, _tiny_spec(n_subjects=4))
    for cell in cfg.regimes:
        plan = regimes.map_regime(store.index, cell)
        realized = regimes._realize_plan(plan, cell, store, seed=0)[0]
        for data in realized.values():
            enroll, probe = (
                [(prepared.record_key, prepared.spans[i: i + 1])
                 for prepared, idx in side for i in idx]
                for side in (data.enroll, data.probe))
            assert enroll and probe
            assert regimes._span_overlaps(enroll, probe) == []


def test_custom_split_evaluation():
    cfg = validate_config({
        "dataset": {"kind": "synthetic", "preset": "fallacy30", "seed": 1},
        "regime": {"name": "custom_split", "enroll_range": [0.0, 8.0],
                   "probe_range": [10.0, 18.0]},
        "seeds": [0],
    })
    store = _store(cfg, _tiny_spec(n_subjects=4))
    out = regimes.run_evaluation(cfg, seed=0, store=store)
    cell = out["custom_split|closed"]
    assert cell["counts"]["subjects_used"] == 4
    assert cell["rank1"] > 0.5


def test_custom_split_probe_range_past_record_end():
    cfg = validate_config({
        "dataset": {"kind": "synthetic", "preset": "fallacy30", "seed": 1},
        "regime": {"name": "custom_split", "enroll_range": [0.0, 8.0],
                   "probe_range": [10.0, 25.0]},
        "seeds": [0],
    })
    store = _store(cfg, _tiny_spec(n_subjects=4))
    with pytest.raises(RangeOutOfBounds):
        regimes.evaluate_cell(cfg, cfg.regimes[0], store, seed=0)


def test_aggregate_runs_mean_and_std():
    make = lambda e: {"k|closed": {
        "rank1": 1.0, "rank5": 1.0, "eer": e, "auc": 1.0, "dprime": 2.0,
        "tar_at_far": 1.0, "counts": {"subjects_total": 2}, "warnings": []}}
    report = regimes.aggregate_runs([make(0.1), make(0.2), make(0.3)])
    agg = report.cells["k|closed"]["eer"]
    assert agg["mean"] == pytest.approx(0.2)
    assert agg["std"] == pytest.approx(0.1)
    single = regimes.aggregate_runs([make(0.1)])
    assert single.cells["k|closed"]["eer"]["std"] == 0.0
    with pytest.raises(KeyMismatch):
        other = {"other|closed": make(0.1)["k|closed"]}
        regimes.aggregate_runs([make(0.1), other])


# --- outputs pinned before the per-beat feature cache ------------------------------
# No benchmark workload reaches augmentation, blind mode or custom_split time
# ranges; these digests of the per-seed records were computed before each
# beat's feature was cached on the SegmentStore and must not move. The two
# mlp_augment digests were re-pinned once, when stable_seed began to hash a
# numpy integer part as its int (the augmentation seeds are numpy integers).

_PIN_SPEC = {
    "n_subjects": 6,
    "sessions": [
        {"session_id": "s0", "day_index": 0, "morphology_drift": 0.1,
         "noise_sigma": 0.03, "baseline_amp": 0.05},
        {"session_id": "s1", "day_index": 1, "morphology_drift": 0.1,
         "noise_sigma": 0.03, "baseline_amp": 0.05},
    ],
    "duration_s": 20.0,
    "fs": 250.0,
}
_PIN_DATASET = {"kind": "synthetic", "preset": "fallacy30", "seed": 1}
_PINNED_RUNS = {
    "mlp_augment": (
        {"dataset": _PIN_DATASET,
         "regime": {"names": ["single_session", "single_cross_session"],
                    "settings": ["closed", "open"], "open_ratio": 0.5},
         "embedder": {"kind": "mlp", "hidden_dim": 16, "epochs": 5, "batch": 16,
                      "augment": {"multiplier": 2, "ops": [
                          {"kind": "amplitude_scale", "scale_low": 0.9, "scale_high": 1.1},
                          {"kind": "gaussian_noise", "sigma": 0.02},
                          {"kind": "time_shift", "max_shift_s": 0.02},
                          {"kind": "random_crop", "crop_fraction": 0.8}]}},
         "seeds": [0, 1]},
        "20d350f8d9f40fd64dcf32f320c16eec36faf6f571ad37c85b4b5b8bc52fa304"),
    "blind": (
        {"dataset": _PIN_DATASET,
         "regime": {"names": ["single_session", "single_cross_session"],
                    "settings": ["closed", "open"], "open_ratio": 0.5},
         "segmentation": {"mode": "blind", "window_s": 2.0, "stride_s": 2.0},
         "embedder": {"kind": "mlp", "hidden_dim": 16, "epochs": 5, "batch": 16},
         "evaluation": {"probe_fusion_k": 1},
         "seeds": [0, 1]},
        "c1aeea5cb212ff5b9296f16fb5b83e36b4e274a30ad62a6350c3774fd8cbdfa6"),
    "custom_split": (
        {"dataset": _PIN_DATASET,
         "regime": [{"name": "custom_split", "enroll_range": [0.0, 8.0],
                     "probe_range": [10.0, 18.0]},
                    {"name": "single_session", "setting": "open"}],
         "evaluation": {"template_fusion": "representative", "template_size": 20,
                        "probe_fusion_k": 1},
         "seeds": [0, 1]},
        "3cc0964a798e53379b74f42fc2fb82a4ebccb6172586a77f67a7a83c856926ac"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_per_seed_records_pinned(name):
    raw, digest = _PINNED_RUNS[name]
    cfg = validate_config(raw)
    store = _store(cfg, synth.spec_from_dict(_PIN_SPEC))
    records = [regimes.run_evaluation(cfg, seed, store=store) for seed in cfg.seeds]
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _mixed_rate_store(cfg, seed=1):
    """Six in-memory subjects from _PIN_SPEC: the first three recorded at
    250 Hz, the others at 360 Hz, so their beats differ in length."""
    store = _store(cfg, synth.spec_from_dict(_PIN_SPEC), seed)
    fast = synth.spec_from_dict(dict(_PIN_SPEC, fs=360.0))
    for rec, _ in synth.generate_recordings(fast, seed):
        if rec.key.subject_id >= "sub003":
            store.recordings[rec.key] = rec
    store.index = DatasetIndex(records=tuple(
        replace(meta, fs=store.recordings[meta.key].fs) for meta in store.index.records))
    return store


def test_mixed_rate_mlp_augment_record_pinned():
    # Augmented copies of 250 Hz and 360 Hz beats are embedded pick by pick.
    raw = dict(_PINNED_RUNS["mlp_augment"][0],
               regime={"name": "single_cross_session", "setting": "closed"})
    cfg = validate_config(raw)
    store = _mixed_rate_store(cfg)
    assert {rec.fs for rec in store.recordings.values()} == {250.0, 360.0}
    records = [regimes.run_evaluation(cfg, seed, store=store) for seed in cfg.seeds]
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a7d54ddd363737fc2693d77aa486f873034ecb6fb6da8cde0137d973bafdd457")

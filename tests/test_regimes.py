import hashlib

import numpy as np
import pytest

from ecgbench import regimes, synth
from ecgbench.core import RecordKey, RegimeCell, validate_config
from ecgbench.errors import (
    KeyMismatch,
    RangeOutOfBounds,
    RegimeUnsatisfiable,
    TooFewSubjects,
)
from ecgbench.ingest import DatasetIndex, RecordMeta


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


def test_span_overlap_detection():
    enroll = [(("a",), 0, 100), (("a",), 200, 300)]
    probe_ok = [(("a",), 100, 200), (("b",), 0, 100)]
    probe_bad = [(("a",), 250, 350)]
    assert regimes._span_overlaps(enroll, probe_ok) == []
    assert len(regimes._span_overlaps(enroll, probe_bad)) == 1


def _tiny_spec(n_subjects=6, drift=0.1, noise=0.03):
    return synth.SynthSpec(
        n_subjects=n_subjects,
        sessions=(
            synth.SessionEffects("s0", day_index=0, morphology_drift=drift,
                                 noise_sigma=noise),
            synth.SessionEffects("s1", day_index=1, morphology_drift=drift,
                                 noise_sigma=noise),
        ),
        duration_s=20.0,
        fs=250.0,
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


def _hash_probe_data(store, cfg, cell, seed):
    plan = regimes.map_regime(store.index, cell)
    realized, _ = regimes._realize_plan(plan, cell, store, seed)
    digest = hashlib.sha256()
    for subject in sorted(realized):
        for group in realized[subject].probe_groups:
            for seg in group:
                digest.update(np.ascontiguousarray(seg.samples).tobytes())
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


def test_leakage_guard_across_regimes():
    cfg = validate_config(dict(BASE_CONFIG, regime=[
        "single_session", "single_cross_session", "ss_long_term", "llo_long_term",
        {"name": "cross_session", "enroll_session": "s0", "probe_session": "s1"},
    ]))
    store = _store(cfg, _tiny_spec(n_subjects=4))
    for cell in cfg.regimes:
        plan = regimes.map_regime(store.index, cell)
        realized, _ = regimes._realize_plan(plan, cell, store, seed=0)
        for data in realized.values():
            assert regimes._span_overlaps(data.enroll_spans, data.probe_spans) == []


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
    report = regimes.aggregate_runs([make(0.1), make(0.2), make(0.3)], seeds=(0, 1, 2))
    agg = report.cells["k|closed"]["eer"]
    assert agg["mean"] == pytest.approx(0.2)
    assert agg["std"] == pytest.approx(0.1)
    single = regimes.aggregate_runs([make(0.1)])
    assert single.cells["k|closed"]["eer"]["std"] == 0.0
    with pytest.raises(KeyMismatch):
        other = {"other|closed": make(0.1)["k|closed"]}
        regimes.aggregate_runs([make(0.1), other])

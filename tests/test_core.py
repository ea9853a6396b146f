import numpy as np
import pytest

from ecgbench.core import (
    MetricsReport,
    RecordKey,
    Recording,
    RunConfig,
    config_digest,
    validate_config,
)
from ecgbench.errors import (
    ConfigError,
    EmptySeeds,
    InconsistentSettings,
    UnknownField,
)

MINIMAL = {"dataset": {"kind": "synthetic", "preset": "fallacy30", "seed": 1},
           "regime": "single-session"}


def test_minimal_config_gets_paper_baseline_defaults():
    cfg = validate_config(MINIMAL)
    assert cfg.segmentation.pre_s == 0.2
    assert cfg.segmentation.post_s == 0.4
    assert cfg.evaluation.probe_fusion_k == 3
    assert cfg.evaluation.metric == "cosine"
    assert cfg.evaluation.template_size == "all"
    assert cfg.evaluation.template_fusion == "mean"
    assert cfg.preprocess.filter.kind == "butterworth_bandpass"
    assert cfg.preprocess.filter.order == 3
    assert cfg.preprocess.filter.low_hz == 0.5
    assert cfg.preprocess.filter.high_hz == 40.0
    assert cfg.preprocess.normalization == "zscore"
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.regimes[0].name == "single_session"


def test_blind_mode_with_zero_stride_rejected():
    raw = dict(MINIMAL, segmentation={"mode": "blind", "window_s": 5.0, "stride_s": 0})
    with pytest.raises(InconsistentSettings):
        validate_config(raw)


def test_blind_mode_with_beat_keys_rejected():
    raw = dict(MINIMAL, segmentation={"mode": "blind", "pre_s": 0.2})
    with pytest.raises(InconsistentSettings):
        validate_config(raw)


def test_seeds_round_trip_unchanged():
    raw = dict(MINIMAL, seeds=[1, 2, 3, 4, 5])
    assert validate_config(raw).seeds == (1, 2, 3, 4, 5)


def test_unknown_top_level_key_rejected():
    with pytest.raises(UnknownField):
        validate_config(dict(MINIMAL, extra=1))


def test_unknown_nested_key_rejected():
    raw = dict(MINIMAL, evaluation={"metric": "cosine", "bogus": True})
    with pytest.raises(UnknownField):
        validate_config(raw)


def test_empty_seeds_rejected():
    with pytest.raises(EmptySeeds):
        validate_config(dict(MINIMAL, seeds=[]))


def test_missing_dataset_rejected():
    with pytest.raises(ConfigError):
        validate_config({"regime": "single_session"})


def test_cross_session_requires_session_names():
    with pytest.raises(InconsistentSettings):
        validate_config(dict(MINIMAL, regime={"name": "cross_session"}))
    cfg = validate_config(dict(MINIMAL, regime={
        "name": "cross_session", "enroll_session": "s0", "probe_session": "s1"}))
    assert cfg.regimes[0].probe_session == "s1"


def test_custom_split_requires_disjoint_ranges():
    with pytest.raises(InconsistentSettings):
        validate_config(dict(MINIMAL, regime={
            "name": "custom_split", "enroll_range": [0, 300], "probe_range": [200, 500]}))


def test_regime_grid_expansion():
    cfg = validate_config(dict(MINIMAL, regime={
        "names": ["single_session", "cross_session"],
        "settings": ["closed", "open"],
        "enroll_session": "s0", "probe_session": "s1"}))
    assert len(cfg.regimes) == 4
    assert {c.key for c in cfg.regimes} == {
        "single_session|closed", "single_session|open",
        "cross_session|closed", "cross_session|open"}


def test_validate_is_idempotent():
    cfg = validate_config(dict(MINIMAL, seeds=[7, 9],
                               evaluation={"template_size": 5}))
    again = validate_config(cfg.to_dict())
    assert again == cfg
    assert validate_config(again.to_dict()) == again


def test_digest_stable_across_key_order_and_defaults():
    explicit = dict(MINIMAL, evaluation={"metric": "cosine"}, preprocess={})
    a = config_digest(validate_config(MINIMAL))
    b = config_digest(validate_config(explicit))
    assert a == b
    c = config_digest(validate_config(dict(MINIMAL, seeds=[1])))
    assert c != a


def test_recording_invariants():
    rec = Recording(RecordKey("s1", "a", 0, 0), 250.0, (np.zeros(10),))
    assert rec.duration_s == pytest.approx(0.04)
    with pytest.raises(ValueError):
        Recording(RecordKey("s1", "a", 0, 0), -1.0, (np.zeros(10),))
    with pytest.raises(ValueError):
        Recording(RecordKey("s1", "a", 0, 0), 250.0, (np.zeros(10), np.zeros(9)))
    with pytest.raises(ValueError):
        Recording(RecordKey("s1", "a", 0, 0), 250.0, ())


def test_metrics_report_rejects_out_of_range_values():
    good = {name: {"mean": 0.5, "std": 0.0} for name in
            ("rank1", "rank5", "eer", "auc", "tar_at_far")}
    good["dprime"] = {"mean": 2.0, "std": 0.1}
    MetricsReport(cells={"single_session|closed": good})
    bad = {k: dict(v) for k, v in good.items()}
    bad["eer"] = {"mean": 1.5, "std": 0.0}
    with pytest.raises(ValueError):
        MetricsReport(cells={"single_session|closed": bad})


def test_augment_config_validation():
    cfg = validate_config(dict(MINIMAL, embedder={
        "kind": "mlp",
        "augment": {"multiplier": 2, "ops": [{"kind": "gaussian_noise", "sigma": 0.05}]}}))
    assert cfg.embedder.augment.multiplier == 2
    with pytest.raises(InconsistentSettings):
        validate_config(dict(MINIMAL, embedder={"augment": {"multiplier": 1}}))
    with pytest.raises(ConfigError):
        validate_config(dict(MINIMAL, embedder={
            "augment": {"multiplier": 1, "ops": [{"kind": "explode"}]}}))


# Digests computed before RunConfig.to_dict was derived from the dataclass
# fields; every results.json embeds config_digest, so they must not move.
_SYN = {"kind": "synthetic", "preset": "aging4", "seed": 3}
_PINNED_CONFIGS = {
    "minimal": (
        {"dataset": _SYN, "regime": "single_session"},
        "3c4ca9965f7777da39c6dd17f7f9fa7762ddf5de588bd0006b798f6ed739a788"),
    "butterworth_causal": (
        {"dataset": _SYN, "regime": "single_session",
         "preprocess": {"filter": {"kind": "butterworth_bandpass", "phase_mode": "causal",
                                   "order": 4, "low_hz": 1.0, "high_hz": 35.0},
                        "normalization": "minmax", "target_len": 64}},
        "1cea263e4c7c82cde1a9c63f163786af158d1c43d48e76d7d26ee44971db433c"),
    "highpass": (
        {"dataset": _SYN, "regime": "single_session",
         "preprocess": {"filter": {"kind": "butterworth_highpass"}}},
        "efd347f9bebfbeca3b98f789a357599f4c8bf28a0caa0a63cbf662125fabcb67"),
    "notch": (
        {"dataset": _SYN, "regime": "single_session",
         "preprocess": {"filter": {"kind": "notch", "notch_hz": 50.0, "q": 25.0}}},
        "2ee37da3a35b9c2dcbc09b2c325e03559e5925858513f3e798cbb5ed6810b80f"),
    "fir": (
        {"dataset": _SYN, "regime": "single_session",
         "preprocess": {"filter": {"kind": "fir_bandpass", "transition_hz": 1.5}}},
        "7daeb5b3fa253f92defb52aa4be30e99dda29c787cbb571ce256a5d703435ca1"),
    "moving_average": (
        {"dataset": _SYN, "regime": "single_session",
         "preprocess": {"filter": {"kind": "moving_average", "window_len": 5}}},
        "8c3d1ae74aaf92c7bf9017fdc7627fcb593de3f1a15357ddad14fbabe295da87"),
    "median": (
        {"dataset": _SYN, "regime": "single_session",
         "preprocess": {"filter": {"kind": "median", "window_len": 7}}},
        "e6101eaed9b3a720917e538ea1d039b6b235db623a6fe36940759cfcface6caf"),
    "savitzky_golay": (
        {"dataset": _SYN, "regime": "single_session",
         "preprocess": {"filter": {"kind": "savitzky_golay", "window_len": 9,
                                   "poly_order": 3}}},
        "48706f03216caaff5a2f63e3e311a5c02bd6282e3500b30154cc51d248af5a71"),
    "blind": (
        {"dataset": "data/manifest.json", "regime": "single_cross_session",
         "segmentation": {"mode": "blind", "window_s": 4.0, "stride_s": 1.0}},
        "1fbf133e3e6f97f2076373e18c13ab5c1ba8eb141de124648a2300f09dcbfcdf"),
    "beat_unaligned": (
        {"dataset": {"kind": "manifest", "path": "m.json"}, "regime": "ss_long_term",
         "segmentation": {"pre_s": 0.25, "post_s": 0.45, "align_peak": False}},
        "3887faf282f896f1d8d7a85c7a45356a8cb1f3abb13343950c8a4bf1f18e224d"),
    "mlp_augment": (
        {"dataset": _SYN,
         "regime": {"names": ["single_session", "llo_long_term"],
                    "settings": ["closed", "open"], "open_ratio": 0.4, "split_seed": 11},
         "embedder": {"kind": "mlp", "target_len": 96, "hidden_dim": 32, "lr": 0.1,
                      "epochs": 20, "batch": 16,
                      "augment": {"multiplier": 2, "ops": [
                          {"kind": "amplitude_scale", "scale_low": 0.9, "scale_high": 1.1},
                          {"kind": "gaussian_noise", "sigma": 0.01},
                          {"kind": "time_shift", "max_shift_s": 0.01},
                          {"kind": "random_crop", "crop_fraction": 0.8}]}},
         "seeds": [5, 2, 9]},
        "43b0d09bc72a4a04fab6ecebcd211af95408242967cb2b158b72d922345f46a5"),
    "custom_split_cross_session": (
        {"dataset": _SYN,
         "regime": [
             {"name": "custom_split", "enroll_range": [0, 8], "probe_range": [10.5, 18]},
             {"name": "cross_session", "enroll_session": "s0", "probe_session": "s3",
              "setting": "open"}],
         "evaluation": {"metric": "pearson", "template_size": 40,
                        "template_fusion": "representative", "probe_fusion_k": 1},
         "seeds": [0]},
        "7cc204082da429c35ce8c6ed569fde3553dd94a68f43008dcdcb92293dc85916"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIGS))
def test_config_digest_pinned(name):
    raw, digest = _PINNED_CONFIGS[name]
    assert config_digest(validate_config(raw)) == digest


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIGS))
def test_pinned_config_round_trips(name):
    raw, digest = _PINNED_CONFIGS[name]
    cfg = validate_config(raw)
    again = validate_config(cfg.to_dict())
    assert again == cfg
    assert config_digest(again) == digest


def test_blind_mode_takes_back_only_its_placeholders():
    # single_session rejects overlapping windows, so take a regime that allows them.
    base = dict(MINIMAL, regime="single_cross_session")
    blind = {"mode": "blind", "window_s": 4.0, "stride_s": 1.0}
    stored = validate_config(dict(base, segmentation=blind)).segmentation
    echoed = dict(blind, pre_s=0.0, post_s=0, align_peak=False)
    assert validate_config(dict(base, segmentation=echoed)).segmentation == stored
    for key, value in (("pre_s", 0.1), ("post_s", False), ("align_peak", 0),
                       ("align_peak", True), ("pre_s", None)):
        with pytest.raises(InconsistentSettings):
            validate_config(dict(base, segmentation=dict(blind, **{key: value})))

import copy
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from ecgbench.core import (
    AUGMENT_KINDS,
    FILTER_KINDS,
    AugmentConfig,
    AugmentOpConfig,
    DatasetConfig,
    EmbedderConfig,
    EvaluationConfig,
    FilterSpec,
    MetricsReport,
    RecordKey,
    Recording,
    RegimeCell,
    RunConfig,
    SegmentationConfig,
    config_digest,
    validate_config,
)
from ecgbench.errors import (
    ConfigError,
    EcgBenchError,
    EmptySeeds,
    InconsistentSettings,
    SchemaError,
    UnknownField,
)
from ecgbench.ingest import ManifestEntry, parse_manifest

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
    "butterworth_minmax": (
        {"dataset": _SYN, "regime": "single_session",
         "preprocess": {"filter": {"kind": "butterworth_bandpass",
                                   "order": 4, "low_hz": 1.0, "high_hz": 35.0},
                        "normalization": "minmax", "target_len": 64}},
        "35418fcdda77e5daf560290fbda8f6f55815bc4cf0119f79bd32d3862b4379a9"),
    "notch": (
        {"dataset": _SYN, "regime": "single_session",
         "preprocess": {"filter": {"kind": "notch", "notch_hz": 50.0, "q": 25.0}}},
        "2ee37da3a35b9c2dcbc09b2c325e03559e5925858513f3e798cbb5ed6810b80f"),
    "fir": (
        {"dataset": _SYN, "regime": "single_session",
         "preprocess": {"filter": {"kind": "fir_bandpass", "transition_hz": 1.5}}},
        "7daeb5b3fa253f92defb52aa4be30e99dda29c787cbb571ce256a5d703435ca1"),
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


def test_blind_config_built_directly_equals_the_one_read():
    blind = {"mode": "blind", "window_s": 4.0, "stride_s": 4.0}
    read = validate_config(dict(MINIMAL, segmentation=blind))
    built = replace(read, segmentation=SegmentationConfig(**blind))
    assert built == read and config_digest(built) == config_digest(read)
    assert validate_config(built.to_dict()) == read
    # A read blind config holds the placeholders, which a copy takes back.
    assert replace(read.segmentation, window_s=8.0).pre_s == 0.0
    for key, value in (("pre_s", 0.1), ("post_s", -1.0), ("align_peak", 0)):
        with pytest.raises(InconsistentSettings, match=f"blind mode does not take {key}"):
            SegmentationConfig(**blind, **{key: value})


# Every section, with the branches that read most keys: a notch filter, an
# MLP with one op of each kind, custom_split and cross_session, and an integer
# template_size.
_EVERY_SECTION = {
    "dataset": _SYN,
    "preprocess": {"filter": {"kind": "notch", "notch_hz": 50.0, "q": 25.0}},
    "embedder": {"kind": "mlp", "augment": {"multiplier": 2, "ops": [
        {"kind": kind} for kind in ("amplitude_scale", "gaussian_noise", "time_shift",
                                    "random_crop")]}},
    "regime": [
        {"name": "custom_split", "enroll_range": [0, 8], "probe_range": [10.5, 18]},
        {"name": "cross_session", "enroll_session": "s0", "probe_session": "s3",
         "setting": "open"}],
    "evaluation": {"template_size": 40},
    "seeds": [0, 1],
}
_WRONG_VALUES = (None, True, "x", [], {}, -1, 0, 1.5, float("nan"), float("inf"), [1, 2, 3])


def _leaf_paths(tree, path=()):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def test_every_wrong_leaf_is_accepted_or_a_named_error():
    tree = validate_config(_EVERY_SECTION).to_dict()
    paths = list(_leaf_paths(tree))
    assert len(paths) > 60
    for path in paths:
        for wrong in _WRONG_VALUES:
            raw = copy.deepcopy(tree)
            node = raw
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = wrong
            try:
                validate_config(raw)
            except EcgBenchError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other type is the failure
                pytest.fail(f"{path} = {wrong!r}: {type(exc).__name__}: {exc}")


# Each rule that spans fields lives on the type it constrains, so building the
# type directly raises what reading it from a config raises.
_BASE = validate_config(MINIMAL)
_RULES = {
    "inverted_band": (
        lambda: FilterSpec(low_hz=40.0, high_hz=0.5),
        {"preprocess": {"filter": {"low_hz": 40.0, "high_hz": 0.5}}},
        InconsistentSettings, "bandpass needs 0 < low_hz < high_hz, got 40.0-0.5"),
    "notch_without_frequency": (
        lambda: FilterSpec(kind="notch"),
        {"preprocess": {"filter": {"kind": "notch"}}},
        ConfigError, "notch filter needs notch_hz"),
    "butterworth_order_9": (
        lambda: FilterSpec(kind="butterworth_bandpass", order=9),
        {"preprocess": {"filter": {"kind": "butterworth_bandpass", "order": 9}}},
        ConfigError, "filter.order must be in [1, 8] for butterworth_bandpass, got 9"),
    "cross_session_without_sessions": (
        lambda: RegimeCell("cross_session"),
        {"regime": "cross_session"},
        InconsistentSettings, "cross_session needs enroll_session and probe_session"),
    "overlapping_custom_ranges": (
        lambda: RegimeCell("custom_split", enroll_range=(0.0, 5.0), probe_range=(4.0, 9.0)),
        {"regime": {"name": "custom_split", "enroll_range": [0, 5], "probe_range": [4, 9]}},
        InconsistentSettings, "custom_split ranges must not overlap"),
    "synthetic_without_preset": (
        lambda: DatasetConfig(kind="synthetic"),
        {"dataset": {"kind": "synthetic"}},
        ConfigError, "synthetic dataset needs a preset name"),
    "manifest_with_seed": (
        lambda: DatasetConfig(kind="manifest", path="m.json", seed=1),
        {"dataset": {"path": "m.json", "seed": 1}},
        InconsistentSettings, "manifest dataset takes neither a preset nor a seed"),
    "beat_mode_window": (
        lambda: SegmentationConfig(window_s=2.0),
        {"segmentation": {"window_s": 2.0}},
        InconsistentSettings, "beat mode does not take window_s"),
    "blind_stride_past_window": (
        lambda: SegmentationConfig(mode="blind", window_s=2.0, stride_s=3.0),
        {"segmentation": {"mode": "blind", "window_s": 2.0, "stride_s": 3.0}},
        InconsistentSettings, "blind mode needs 0 < stride_s <= window_s, got 3.0/2.0"),
    "degenerate_scale_range": (
        lambda: AugmentConfig(1, (AugmentOpConfig("gaussian_noise"),
                                  AugmentOpConfig("amplitude_scale", 1.2, 0.8))),
        {"embedder": {"augment": {"multiplier": 1, "ops": [
            {"kind": "gaussian_noise"},
            {"kind": "amplitude_scale", "scale_low": 1.2, "scale_high": 0.8}]}}},
        ConfigError, "embedder.augment.ops[1]: degenerate scale range"),
    "multiplier_without_ops": (
        lambda: AugmentConfig(multiplier=1),
        {"embedder": {"augment": {"multiplier": 1}}},
        InconsistentSettings, "augment.multiplier > 0 with no ops"),
    "empty_seeds": (
        lambda: replace(_BASE, seeds=()),
        {"seeds": []},
        EmptySeeds, "seeds must not be empty"),
    "repeated_seed": (
        lambda: replace(_BASE, seeds=(1, 1)),
        {"seeds": [1, 1]},
        ConfigError, "seeds must be distinct"),
    "duplicate_cell": (
        lambda: replace(_BASE, regimes=_BASE.regimes * 2),
        {"regime": ["single_session", "single_session"]},
        InconsistentSettings, "duplicate regime cell single_session|closed"),
    "overlapping_blind_windows_split": (
        lambda: replace(_BASE, segmentation=SegmentationConfig(
            mode="blind", pre_s=0.0, post_s=0.0, align_peak=False, window_s=4.0,
            stride_s=1.0)),
        {"segmentation": {"mode": "blind", "window_s": 4.0, "stride_s": 1.0}},
        InconsistentSettings, "single_session needs blind windows that do not overlap: "
                              "stride_s 1.0 is shorter than window_s 4.0"),
}


@pytest.mark.parametrize("name", sorted(_RULES))
def test_each_type_checks_its_rules_when_built_directly(name):
    build, overrides, error, message = _RULES[name]
    for make in (build, lambda: validate_config(dict(MINIMAL, **overrides))):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
            make()
        assert type(caught.value) is error


# Each field's rule (its choices, its bounds) holds however its type is built:
# built directly, the error names Type.field; read from a config or a manifest,
# it names the value's JSON path.
_FIELD_RULES = {
    "filter_kind": (
        lambda: FilterSpec(kind="bogus"),
        {"preprocess": {"filter": {"kind": "bogus"}}},
        "FilterSpec.kind", "preprocess.filter.kind",
        f"must be one of {', '.join(FILTER_KINDS)}, got 'bogus'"),
    "filter_phase_mode": (
        lambda: FilterSpec(phase_mode="acausal"),
        {"preprocess": {"filter": {"phase_mode": "acausal"}}},
        "FilterSpec.phase_mode", "preprocess.filter.phase_mode",
        "must be one of zero_phase, got 'acausal'"),
    "cell_setting": (
        lambda: RegimeCell("single_session", setting="sideways"),
        {"regime": {"name": "single_session", "setting": "sideways"}},
        "RegimeCell.setting", "regime.setting", "must be one of closed, open, got 'sideways'"),
    "cell_open_ratio": (
        lambda: RegimeCell("single_session", open_ratio=1.5),
        {"regime": {"name": "single_session", "open_ratio": 1.5}},
        "RegimeCell.open_ratio", "regime.open_ratio", "must be less than 1, got 1.5"),
    "embedder_epochs": (
        lambda: EmbedderConfig(epochs=-1),
        {"embedder": {"epochs": -1}},
        "EmbedderConfig.epochs", "embedder.epochs", "must be at least 0, got -1"),
    "probe_fusion_k": (
        lambda: EvaluationConfig(probe_fusion_k=0),
        {"evaluation": {"probe_fusion_k": 0}},
        "EvaluationConfig.probe_fusion_k", "evaluation.probe_fusion_k",
        "must be greater than 0, got 0"),
    "augment_kind": (
        lambda: AugmentOpConfig(kind="mystery"),
        {"embedder": {"augment": {"multiplier": 1, "ops": [{"kind": "mystery"}]}}},
        "AugmentOpConfig.kind", "embedder.augment.ops[0].kind",
        f"must be one of {', '.join(AUGMENT_KINDS)}, got 'mystery'"),
    "manifest_format": (
        lambda: ManifestEntry(subject="a", session="s0", path="a.mp3", format="mp3"),
        {"subject": "a", "session": "s0", "path": "a.mp3", "format": "mp3", "fs": 250.0},
        "ManifestEntry.format", "records[0].format",
        "must be one of f32le, csv, wfdb, got 'mp3'"),
}


@pytest.mark.parametrize("name", sorted(_FIELD_RULES))
def test_each_field_rule_holds_built_directly_or_read(name):
    build, raw, field_name, json_path, rule = _FIELD_RULES[name]
    if name == "manifest_format":  # raw is the manifest's one record
        read, read_error = lambda: parse_manifest(json.dumps({"records": [raw]})), SchemaError
    else:  # raw overrides a config's sections
        read, read_error = lambda: validate_config(dict(MINIMAL, **raw)), ConfigError
    for make, where, error in ((build, field_name, ConfigError),
                               (read, json_path, read_error)):
        with pytest.raises(error, match=f"^{re.escape(f'{where} {rule}')}$") as caught:
            make()
        assert type(caught.value) is error

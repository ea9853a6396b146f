"""Domain vocabulary, run configuration, and configuration validation.

The external configuration format is a JSON object with exactly the top-level
keys ``dataset``, ``preprocess``, ``segmentation``, ``embedder``, ``regime``,
``evaluation``, ``seeds``. Unknown keys anywhere in the tree are errors
(fail-closed). Defaults reproduce the baseline pipeline: 0.5-40 Hz order-3
Butterworth band-pass, z-score normalization, beat segmentation 0.2 s before /
0.4 s after the R peak, cosine matching, mean template fusion over all beats,
probe fusion of 3, five seeds.
"""

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass
from typing import NamedTuple

import numpy as np

from .dsp import FILTER_KINDS, FilterSpec
from .errors import (
    ConfigError,
    EmptySeeds,
    InconsistentSettings,
    UnknownField,
)
from .util import canonical_json

REGIME_NAMES = (
    "single_session",
    "single_cross_session",
    "ss_short_term",
    "llo_short_term",
    "ss_long_term",
    "llo_long_term",
    "cross_session",
    "custom_split",
)
METRIC_NAMES = ("cosine", "euclidean", "pearson")
FUSION_NAMES = ("mean", "representative")
AUGMENT_KINDS = ("amplitude_scale", "gaussian_noise", "time_shift", "random_crop")


class RecordKey(NamedTuple):
    """Identity of one record. day_index counts days since the subject's first
    record; record_index is the acquisition order within a day."""
    subject_id: str
    session_id: str
    day_index: int
    record_index: int


@dataclass(frozen=True)
class Recording:
    """Multi-channel sampled ECG with its record identity. Immutable."""
    key: RecordKey
    fs: float
    channels: tuple

    def __post_init__(self):
        if self.fs <= 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        if self.key.day_index < 0 or self.key.record_index < 0:
            raise ValueError("day_index and record_index must be non-negative")
        lengths = {len(c) for c in self.channels}
        if not self.channels or len(lengths) != 1 or min(lengths) < 1:
            raise ValueError("channels must be non-empty and of equal length >= 1")

    @property
    def duration_s(self) -> float:
        return len(self.channels[0]) / self.fs


# --- configuration tree -------------------------------------------------------


@dataclass(frozen=True)
class DatasetConfig:
    kind: str  # "manifest" | "synthetic"
    path: str | None = None
    preset: str | None = None
    seed: int = 0


@dataclass(frozen=True)
class PreprocessConfig:
    filter: FilterSpec = field(default_factory=FilterSpec)
    normalization: str = "zscore"
    target_len: int = 128


@dataclass(frozen=True)
class SegmentationConfig:
    mode: str = "beat"
    pre_s: float = 0.2
    post_s: float = 0.4
    align_peak: bool = True
    window_s: float | None = None
    stride_s: float | None = None


@dataclass(frozen=True)
class AugmentOpConfig:
    kind: str
    scale_low: float = 0.8
    scale_high: float = 1.2
    sigma: float = 0.02
    max_shift_s: float = 0.02
    crop_fraction: float = 0.9


@dataclass(frozen=True)
class AugmentConfig:
    multiplier: int = 0
    ops: tuple[AugmentOpConfig, ...] = ()


@dataclass(frozen=True)
class EmbedderConfig:
    kind: str = "morphology"
    target_len: int = 128
    hidden_dim: int = 64
    lr: float = 0.05
    epochs: int = 150
    batch: int = 64
    augment: AugmentConfig = field(default_factory=AugmentConfig)


@dataclass(frozen=True)
class RegimeCell:
    name: str
    setting: str = "closed"
    enroll_session: str | None = None
    probe_session: str | None = None
    enroll_range: tuple[float, float] | None = None
    probe_range: tuple[float, float] | None = None
    open_ratio: float = 0.5
    split_seed: int | None = None

    @property
    def key(self) -> str:
        return f"{self.name}|{self.setting}"


@dataclass(frozen=True)
class EvaluationConfig:
    metric: str = "cosine"
    template_size: int | str = "all"
    template_fusion: str = "mean"
    probe_fusion_k: int = 3
    pair_sampling: str = "balanced"


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetConfig
    preprocess: PreprocessConfig
    segmentation: SegmentationConfig
    embedder: EmbedderConfig
    regimes: tuple[RegimeCell, ...]
    evaluation: EvaluationConfig
    seeds: tuple[int, ...]

    def to_dict(self) -> dict:
        """Fully defaulted canonical tree; feeding it back through
        validate_config reproduces this RunConfig exactly."""
        return _tree(self)

    def digest(self) -> str:
        return config_digest(self)


def _tree(value):
    """Dataclass fields as a JSON tree: None fields dropped, tuples as lists,
    and ``regimes`` under its external name ``regime``."""
    if is_dataclass(value):
        return {"regime" if f.name == "regimes" else f.name: _tree(getattr(value, f.name))
                for f in fields(value) if getattr(value, f.name) is not None}
    if isinstance(value, tuple):
        return [_tree(v) for v in value]
    return value


def config_digest(cfg: RunConfig) -> str:
    """Stable digest of the semantic configuration."""
    return hashlib.sha256(canonical_json(cfg.to_dict()).encode("utf-8")).hexdigest()


# --- validation ---------------------------------------------------------------


def _check_keys(obj: dict, allowed, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise UnknownField(f"unknown key(s) {unknown} in {where}")


def _as_number(value, where: str, *, integer=False, positive=False, nonneg=False):
    ok = isinstance(value, int) if integer else isinstance(value, (int, float))
    ok = ok and not isinstance(value, bool)
    if not ok:
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{where} must be positive, got {value}")
    if nonneg and value < 0:
        raise ConfigError(f"{where} must be non-negative, got {value}")
    return value


def _as_target_len(value, where: str) -> int:
    """Beat feature length; morphology_embed needs at least 8 samples."""
    value = _as_number(value, where, integer=True, positive=True)
    if value < 8:
        raise ConfigError(f"{where} must be >= 8, got {value}")
    return value


def _validate_dataset(raw) -> DatasetConfig:
    if isinstance(raw, str):
        return DatasetConfig(kind="manifest", path=raw)
    _check_keys(raw, ("kind", "path", "preset", "seed"), "dataset")
    kind = raw.get("kind", "manifest" if "path" in raw else "synthetic")
    if kind == "manifest":
        path = raw.get("path")
        if not isinstance(path, str) or not path:
            raise ConfigError("dataset.path must be a non-empty string")
        if "preset" in raw:
            raise InconsistentSettings("manifest dataset does not take a preset")
        return DatasetConfig(kind="manifest", path=path)
    if kind == "synthetic":
        preset = raw.get("preset")
        if not isinstance(preset, str) or not preset:
            raise ConfigError("synthetic dataset needs a preset name")
        if "path" in raw:
            raise InconsistentSettings("synthetic dataset does not take a path")
        seed = _as_number(raw.get("seed", 0), "dataset.seed", integer=True, nonneg=True)
        return DatasetConfig(kind="synthetic", preset=preset, seed=seed)
    raise ConfigError(f"dataset.kind must be manifest or synthetic, got {kind!r}")


def _validate_filter(raw) -> FilterSpec:
    allowed = ("kind", "phase_mode", "order", "low_hz", "high_hz", "cut_hz",
               "notch_hz", "q", "window_len", "poly_order", "transition_hz")
    _check_keys(raw, allowed, "preprocess.filter")
    kind = raw.get("kind", "butterworth_bandpass")
    if kind not in FILTER_KINDS:
        raise ConfigError(f"unknown filter kind {kind!r}")
    phase = raw.get("phase_mode", "zero_phase")
    if phase not in ("zero_phase", "causal"):
        raise ConfigError(f"phase_mode must be zero_phase or causal, got {phase!r}")
    defaults = FilterSpec(kind=kind, phase_mode=phase)
    kwargs = {"kind": kind, "phase_mode": phase}
    for name in ("order", "window_len", "poly_order"):
        if name in raw:
            kwargs[name] = _as_number(raw[name], f"filter.{name}", integer=True, positive=name != "poly_order")
    for name in ("low_hz", "high_hz", "cut_hz", "notch_hz", "q", "transition_hz"):
        if name in raw:
            kwargs[name] = float(_as_number(raw[name], f"filter.{name}", positive=True))
    if kind == "butterworth_highpass" and "cut_hz" not in raw:
        kwargs.setdefault("cut_hz", defaults.low_hz)
    if kind == "notch" and "notch_hz" not in raw:
        raise ConfigError("notch filter needs notch_hz")
    if kind in ("median", "savitzky_golay", "moving_average"):
        w = kwargs.get("window_len")
        if w is None:
            raise ConfigError(f"{kind} filter needs window_len")
        if w % 2 == 0:
            raise ConfigError(f"{kind} window_len must be odd, got {w}")
        if kind == "savitzky_golay":
            p = kwargs.setdefault("poly_order", 2)
            if p >= w:
                raise InconsistentSettings(f"poly_order {p} must be < window_len {w}")
    spec = FilterSpec(**kwargs)
    if spec.kind in ("butterworth_bandpass", "fir_bandpass"):
        if spec.low_hz is None or spec.high_hz is None or spec.low_hz >= spec.high_hz:
            raise InconsistentSettings(
                f"bandpass needs 0 < low_hz < high_hz, got {spec.low_hz}-{spec.high_hz}"
            )
    return spec


def _validate_preprocess(raw) -> PreprocessConfig:
    _check_keys(raw, ("filter", "normalization", "target_len"), "preprocess")
    filt = _validate_filter(raw.get("filter", {}))
    norm = raw.get("normalization", "zscore")
    if norm not in ("zscore", "minmax"):
        raise ConfigError(f"normalization must be zscore or minmax, got {norm!r}")
    target = _as_target_len(raw.get("target_len", 128), "preprocess.target_len")
    return PreprocessConfig(filter=filt, normalization=norm, target_len=target)


def _validate_segmentation(raw) -> SegmentationConfig:
    allowed = ("mode", "pre_s", "post_s", "align_peak", "window_s", "stride_s")
    _check_keys(raw, allowed, "segmentation")
    mode = raw.get("mode", "beat")
    if mode not in ("beat", "blind"):
        raise ConfigError(f"segmentation.mode must be beat or blind, got {mode!r}")
    if mode == "beat":
        for bad in ("window_s", "stride_s"):
            if bad in raw:
                raise InconsistentSettings(f"beat mode does not take {bad}")
        pre = float(_as_number(raw.get("pre_s", 0.2), "pre_s", positive=True))
        post = float(_as_number(raw.get("post_s", 0.4), "post_s", positive=True))
        align = raw.get("align_peak", True)
        if not isinstance(align, bool):
            raise ConfigError("align_peak must be a boolean")
        return SegmentationConfig(mode="beat", pre_s=pre, post_s=post, align_peak=align)
    # Blind mode stores these placeholders for the beat keys and takes them back,
    # so a validated config round-trips through to_dict; other values are errors.
    placeholders = {"pre_s": 0.0, "post_s": 0.0, "align_peak": False}
    for key, stored in placeholders.items():
        value = raw.get(key, stored)
        if value != stored or isinstance(value, bool) != isinstance(stored, bool):
            raise InconsistentSettings(f"blind mode does not take {key}")
    window = float(_as_number(raw.get("window_s", 5.0), "window_s", positive=True))
    stride_raw = raw.get("stride_s", window / 2.0)
    if not isinstance(stride_raw, (int, float)) or isinstance(stride_raw, bool):
        raise ConfigError(f"stride_s must be a number, got {stride_raw!r}")
    stride = float(stride_raw)
    if not 0.0 < stride <= window:
        raise InconsistentSettings(f"blind mode needs 0 < stride_s <= window_s, got {stride}/{window}")
    return SegmentationConfig(mode="blind", window_s=window, stride_s=stride,
                              **placeholders)


def _validate_augment(raw) -> AugmentConfig:
    _check_keys(raw, ("multiplier", "ops"), "embedder.augment")
    mult = _as_number(raw.get("multiplier", 0), "augment.multiplier", integer=True, nonneg=True)
    ops = []
    for i, op_raw in enumerate(raw.get("ops", [])):
        where = f"augment.ops[{i}]"
        _check_keys(op_raw, ("kind", "scale_low", "scale_high", "sigma",
                             "max_shift_s", "crop_fraction"), where)
        kind = op_raw.get("kind")
        if kind not in AUGMENT_KINDS:
            raise ConfigError(f"{where}: unknown augmentation kind {kind!r}")
        op = AugmentOpConfig(
            kind=kind,
            scale_low=float(op_raw.get("scale_low", 0.8)),
            scale_high=float(op_raw.get("scale_high", 1.2)),
            sigma=float(op_raw.get("sigma", 0.02)),
            max_shift_s=float(op_raw.get("max_shift_s", 0.02)),
            crop_fraction=float(op_raw.get("crop_fraction", 0.9)),
        )
        if op.scale_low > op.scale_high or op.scale_low <= 0:
            raise ConfigError(f"{where}: degenerate scale range")
        if op.sigma < 0 or op.max_shift_s < 0 or not 0 < op.crop_fraction <= 1:
            raise ConfigError(f"{where}: degenerate parameters")
        ops.append(op)
    if mult > 0 and not ops:
        raise InconsistentSettings("augment.multiplier > 0 with no ops")
    return AugmentConfig(multiplier=mult, ops=tuple(ops))


def _validate_embedder(raw) -> EmbedderConfig:
    allowed = ("kind", "target_len", "hidden_dim", "lr", "epochs", "batch", "augment")
    _check_keys(raw, allowed, "embedder")
    kind = raw.get("kind", "morphology")
    if kind not in ("morphology", "mlp"):
        raise ConfigError(f"embedder.kind must be morphology or mlp, got {kind!r}")
    return EmbedderConfig(
        kind=kind,
        target_len=_as_target_len(raw.get("target_len", 128), "embedder.target_len"),
        hidden_dim=_as_number(raw.get("hidden_dim", 64), "embedder.hidden_dim",
                              integer=True, positive=True),
        lr=float(_as_number(raw.get("lr", 0.05), "embedder.lr", positive=True)),
        epochs=_as_number(raw.get("epochs", 150), "embedder.epochs", integer=True, nonneg=True),
        batch=_as_number(raw.get("batch", 64), "embedder.batch", integer=True, positive=True),
        augment=_validate_augment(raw.get("augment", {})),
    )


def _validate_range(raw, where: str) -> tuple[float, float]:
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)):
        raise ConfigError(f"{where} must be [t0, t1] in seconds")
    t0, t1 = float(raw[0]), float(raw[1])
    if t0 < 0 or t1 <= t0:
        raise ConfigError(f"{where} must satisfy 0 <= t0 < t1, got [{t0}, {t1}]")
    return (t0, t1)


def _validate_one_regime(raw) -> list[RegimeCell]:
    if isinstance(raw, str):
        raw = {"name": raw}
    allowed = ("name", "names", "setting", "settings", "enroll_session",
               "probe_session", "enroll_range", "probe_range", "open_ratio",
               "split_seed")
    _check_keys(raw, allowed, "regime")
    if ("name" in raw) == ("names" in raw):
        raise ConfigError("regime needs exactly one of name / names")
    names = [str(n).replace("-", "_") for n in raw.get("names", [raw.get("name")])]
    for name in names:
        if name not in REGIME_NAMES:
            raise ConfigError(f"unknown regime {name!r}")
    if ("setting" in raw) and ("settings" in raw):
        raise ConfigError("regime takes setting or settings, not both")
    settings = raw.get("settings", [raw.get("setting", "closed")])
    # Session names / time ranges are scoped to the regimes that consume them;
    # they may ride along in a grid entry but must be used by at least one name.
    if "enroll_session" in raw and "cross_session" not in names:
        raise InconsistentSettings("session names only apply to cross_session")
    if "enroll_range" in raw and "custom_split" not in names:
        raise InconsistentSettings("time ranges only apply to custom_split")
    cells = []
    for name in names:
        for setting in settings:
            if setting not in ("closed", "open"):
                raise ConfigError(f"setting must be closed or open, got {setting!r}")
            ratio = float(_as_number(raw.get("open_ratio", 0.5), "open_ratio", positive=True))
            if not 0.0 < ratio < 1.0:
                raise ConfigError(f"open_ratio must be in (0, 1), got {ratio}")
            split_seed = raw.get("split_seed")
            if split_seed is not None:
                split_seed = _as_number(split_seed, "split_seed", integer=True, nonneg=True)
            uses_sessions = name == "cross_session"
            uses_ranges = name == "custom_split"
            cell = RegimeCell(
                name=name,
                setting=setting,
                enroll_session=raw.get("enroll_session") if uses_sessions else None,
                probe_session=raw.get("probe_session") if uses_sessions else None,
                enroll_range=_validate_range(raw["enroll_range"], "enroll_range")
                if uses_ranges and "enroll_range" in raw else None,
                probe_range=_validate_range(raw["probe_range"], "probe_range")
                if uses_ranges and "probe_range" in raw else None,
                open_ratio=ratio,
                split_seed=split_seed,
            )
            if uses_sessions and (cell.enroll_session is None or cell.probe_session is None):
                raise InconsistentSettings("cross_session needs enroll_session and probe_session")
            if uses_ranges:
                if cell.enroll_range is None or cell.probe_range is None:
                    raise InconsistentSettings("custom_split needs enroll_range and probe_range")
                a, b = sorted([cell.enroll_range, cell.probe_range])
                if b[0] < a[1]:
                    raise InconsistentSettings("custom_split ranges must not overlap")
            cells.append(cell)
    return cells


def _validate_regimes(raw) -> tuple[RegimeCell, ...]:
    entries = raw if isinstance(raw, list) else [raw]
    if not entries:
        raise ConfigError("regime list must not be empty")
    cells = []
    for entry in entries:
        cells.extend(_validate_one_regime(entry))
    seen = set()
    for c in cells:
        if c.key in seen:
            raise InconsistentSettings(f"duplicate regime cell {c.key}")
        seen.add(c.key)
    return tuple(cells)


def _validate_evaluation(raw) -> EvaluationConfig:
    allowed = ("metric", "template_size", "template_fusion", "probe_fusion_k",
               "pair_sampling")
    _check_keys(raw, allowed, "evaluation")
    metric = raw.get("metric", "cosine")
    if metric not in METRIC_NAMES:
        raise ConfigError(f"metric must be one of {METRIC_NAMES}, got {metric!r}")
    size = raw.get("template_size", "all")
    if size != "all":
        size = _as_number(size, "template_size", integer=True, positive=True)
    fusion = raw.get("template_fusion", "mean")
    if fusion not in FUSION_NAMES:
        raise ConfigError(f"template_fusion must be one of {FUSION_NAMES}, got {fusion!r}")
    k = _as_number(raw.get("probe_fusion_k", 3), "probe_fusion_k", integer=True, positive=True)
    sampling = raw.get("pair_sampling", "balanced")
    if sampling != "balanced":
        raise ConfigError(f"pair_sampling must be balanced, got {sampling!r}")
    return EvaluationConfig(metric=metric, template_size=size, template_fusion=fusion,
                            probe_fusion_k=k, pair_sampling=sampling)


def _validate_seeds(raw) -> tuple[int, ...]:
    if raw is None:
        return (0, 1, 2, 3, 4)
    if not isinstance(raw, list):
        raise ConfigError("seeds must be a list of integers")
    if not raw:
        raise EmptySeeds("seeds must not be empty")
    seeds = tuple(
        _as_number(s, f"seeds[{i}]", integer=True, nonneg=True) for i, s in enumerate(raw)
    )
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    return seeds


def validate_config(raw: dict) -> RunConfig:
    """Validate a parsed configuration tree into a fully defaulted RunConfig.

    Idempotent: validate_config(validate_config(raw).to_dict()) equals
    validate_config(raw).
    """
    top = ("dataset", "preprocess", "segmentation", "embedder", "regime",
           "evaluation", "seeds")
    _check_keys(raw, top, "config")
    if "dataset" not in raw:
        raise ConfigError("config needs a dataset")
    if "regime" not in raw:
        raise ConfigError("config needs a regime")
    cfg = RunConfig(
        dataset=_validate_dataset(raw["dataset"]),
        preprocess=_validate_preprocess(raw.get("preprocess", {})),
        segmentation=_validate_segmentation(raw.get("segmentation", {})),
        embedder=_validate_embedder(raw.get("embedder", {})),
        regimes=_validate_regimes(raw["regime"]),
        evaluation=_validate_evaluation(raw.get("evaluation", {})),
        seeds=_validate_seeds(raw.get("seeds")),
    )
    seg = cfg.segmentation
    if (seg.mode == "blind" and seg.stride_s < seg.window_s
            and any(cell.name == "single_session" for cell in cfg.regimes)):
        # Overlapping windows of one record always land on both sides of the split.
        raise InconsistentSettings(
            f"single_session needs blind windows that do not overlap: stride_s "
            f"{seg.stride_s} is shorter than window_s {seg.window_s}")
    return cfg


# --- aggregated metrics -------------------------------------------------------

METRIC_FIELDS = ("rank1", "rank5", "eer", "auc", "dprime", "tar_at_far")


@dataclass(frozen=True)
class MetricsReport:
    """Mean and sample std over seeds per (regime, setting) cell."""
    cells: dict
    config_digest: str = ""
    seeds: tuple[int, ...] = ()

    def __post_init__(self):
        for key, metrics in self.cells.items():
            for name in METRIC_FIELDS:
                mean, std = metrics[name]["mean"], metrics[name]["std"]
                if std < 0 or not np.isfinite(mean):
                    raise ValueError(f"bad aggregate for {key}/{name}")
                if name != "dprime" and not 0.0 <= mean <= 1.0:
                    raise ValueError(f"{key}/{name} mean {mean} outside [0, 1]")
                if name == "dprime" and mean < 0:
                    raise ValueError(f"{key}/dprime must be non-negative")

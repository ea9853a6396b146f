"""Domain vocabulary, run configuration, and configuration validation.

The external configuration format is a JSON object with exactly the top-level
keys ``dataset``, ``preprocess``, ``segmentation``, ``embedder``, ``regime``,
``evaluation``, ``seeds``. Unknown keys anywhere in the tree are errors
(fail-closed).

Each section is a frozen dataclass below (the filter's FilterSpec too).
read_object reads the three JSON inputs with one set of rules: this config, a
manifest's entries (ingest.ManifestEntry) and a synth --spec (synth.SynthSpec).
It takes the schema from the fields: a field's JSON key, its default (the
value of a key left out), its JSON type (from the annotation), and the
strings it allows and the bounds of its numbers (from its metadata). The JSON
type rules: a boolean is not a number; an integer field takes no fraction; a
float field takes any finite number and stores it as a float; null is read only
where the annotation has ``| None``; a tuple is a JSON list, and a nested
dataclass a JSON object.

Each such type is a Checked: built from JSON or directly, it checks each
field against its metadata, then its own rules that span fields, which also
fill the defaults that depend on other fields. So a FilterSpec, RegimeCell or
SynthSpec that a layer receives is valid by construction. validate_config itself
reads only the JSON shorthands: a dataset given as a path or without a kind, a
regime's names x settings grid, and blind mode's placeholders for the beat keys.

The sizes that set a run's memory and time (target_len, hidden_dim, epochs)
are bounded by a budget for a desk-scale run, far above any size in use. An
FIR's length depends on the record's fs too, so dsp.MAX_FIR_TAPS bounds it.

The defaults reproduce the baseline pipeline: 0.5-40 Hz order-3 Butterworth
band-pass (of the three filter kinds, the others being an FIR band-pass and a
notch), z-score normalization, beat segmentation 0.2 s before / 0.4 s after
the R peak, cosine matching, mean template fusion over all beats, probe fusion
of 3, five seeds.

This module imports neither numpy nor a pipeline layer, so validate and report,
which only read JSON, start without them.
"""

import hashlib
import json
import math
import operator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import NamedTuple, get_args, get_origin

from .errors import ConfigError, EmptySeeds, FormatMismatch, InconsistentSettings, UnknownField

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
PRESET_NAMES = ("fallacy30", "aging4", "ablation")  # synth.preset_spec
METRIC_NAMES = ("cosine", "pearson")
FUSION_NAMES = ("mean", "representative")
FILTER_KINDS = ("butterworth_bandpass", "fir_bandpass", "notch")


def read_text(path: str) -> str:
    """The UTF-8 text of a file, with newlines translated as open() does."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatMismatch(f"{path}: not UTF-8 text: {exc}") from exc


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
# Field metadata: "choices" lists the strings a field takes, "gt"/"ge"/"lt"/"le"
# bound its numbers, and "key" is its JSON key where that is not its name.
# check_field holds these rules. read_object applies them to each value it
# reads, naming its JSON path; Checked to each field it builds, as Type.field.

_BOUNDS = {"gt": (operator.gt, "greater than"), "ge": (operator.ge, "at least"),
           "lt": (operator.lt, "less than"), "le": (operator.le, "at most")}


def check_field(value, meta, where: str):
    """value, once checked against the rules of its field's metadata meta: a
    string must be one of the choices, and a number (each item of a tuple)
    finite and within the bounds. None passes."""
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            check_field(item, meta, f"{where}[{i}]")
    elif isinstance(value, str) and value not in meta.get("choices", (value,)):
        raise ConfigError(f"{where} must be one of {', '.join(meta['choices'])}, got {value!r}")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    elif isinstance(value, (int, float)):
        for name, (holds, words) in _BOUNDS.items():
            if name in meta and not holds(value, meta[name]):
                raise ConfigError(f"{where} must be {words} {meta[name]}, got {value!r}")
    return value


class Checked:
    """Base of the frozen dataclasses whose fields carry rules: building one
    checks each field by check_field, then the type's own rules (_check)."""

    def __post_init__(self):
        for f in fields(self):
            if f.name not in self._placeholders():
                check_field(getattr(self, f.name), f.metadata, f"{type(self).__name__}.{f.name}")
        self._check()

    def _placeholders(self) -> tuple:
        return ()  # the fields unused here, whose placeholder values skip their rules

    def _check(self):
        """The rules that span fields; defaults set by object.__setattr__."""


@dataclass(frozen=True)
class FilterSpec(Checked):
    """One filtering step of dsp.apply_filter: a Butterworth band-pass of
    ``order`` (the default), a windowed-sinc FIR band-pass of ``transition_hz``,
    or a notch at ``notch_hz`` of quality ``q``. Only the parameters of
    ``kind`` are consulted. Each kind is applied with zero phase, the one
    phase_mode.
    """
    kind: str = field(default="butterworth_bandpass", metadata={"choices": FILTER_KINDS})
    phase_mode: str = field(default="zero_phase", metadata={"choices": ("zero_phase",)})
    order: int = field(default=3, metadata={"gt": 0})
    low_hz: float | None = field(default=0.5, metadata={"gt": 0})
    high_hz: float | None = field(default=40.0, metadata={"gt": 0})
    notch_hz: float | None = field(default=None, metadata={"gt": 0})
    q: float = field(default=30.0, metadata={"gt": 0})
    transition_hz: float = field(default=2.0, metadata={"gt": 0})

    def _check(self):
        kind = self.kind
        if kind == "notch" and self.notch_hz is None:
            raise ConfigError("notch filter needs notch_hz")
        if kind == "butterworth_bandpass" and not 1 <= self.order <= 8:
            raise ConfigError(f"filter.order must be in [1, 8] for {kind}, got {self.order}")
        if kind in ("butterworth_bandpass", "fir_bandpass"):
            if self.low_hz is None or self.high_hz is None or self.low_hz >= self.high_hz:
                raise InconsistentSettings(
                    f"bandpass needs 0 < low_hz < high_hz, got {self.low_hz}-{self.high_hz}")


@dataclass(frozen=True)
class DatasetConfig(Checked):
    kind: str = field(metadata={"choices": ("manifest", "synthetic")})
    path: str | None = None
    preset: str | None = field(default=None, metadata={"choices": PRESET_NAMES})
    seed: int = field(default=0, metadata={"ge": 0})

    def _check(self):
        if self.kind == "manifest":
            if not self.path:
                raise ConfigError("dataset.path must be a non-empty string")
            if self.preset is not None or self.seed != 0:
                raise InconsistentSettings("manifest dataset takes neither a preset nor a seed")
        elif self.preset is None:
            raise ConfigError("synthetic dataset needs a preset name")
        elif self.path is not None:
            raise InconsistentSettings("synthetic dataset does not take a path")


@dataclass(frozen=True)
class PreprocessConfig(Checked):
    filter: FilterSpec = field(default_factory=FilterSpec)
    normalization: str = field(default="zscore", metadata={"choices": ("zscore", "minmax")})
    # morphology_features needs at least 8 samples, here and in EmbedderConfig.
    target_len: int = field(default=128, metadata={"ge": 8, "le": 4096})


# Blind mode stores these placeholders for the beat keys and takes them back,
# so a validated config round-trips through to_dict; other values are errors.
_BLIND_PLACEHOLDERS = {"pre_s": 0.0, "post_s": 0.0, "align_peak": False}


def _same(value, stored) -> bool:
    """value equals stored, and is a bool exactly when stored is one."""
    return value == stored and isinstance(value, bool) == isinstance(stored, bool)


@dataclass(frozen=True)
class SegmentationConfig(Checked):
    mode: str = field(default="beat", metadata={"choices": ("beat", "blind")})
    pre_s: float = field(default=0.2, metadata={"gt": 0})
    post_s: float = field(default=0.4, metadata={"gt": 0})
    align_peak: bool = True
    window_s: float | None = field(default=None, metadata={"gt": 0})
    stride_s: float | None = None

    def _placeholders(self) -> tuple:
        return tuple(_BLIND_PLACEHOLDERS) if self.mode == "blind" else ()

    def _check(self):
        if self.mode == "beat":
            for bad in ("window_s", "stride_s"):
                if getattr(self, bad) is not None:
                    raise InconsistentSettings(f"beat mode does not take {bad}")
            return
        # A beat key not given keeps its beat default; store the placeholder.
        defaults = {f.name: f.default for f in fields(self)}
        for key, stored in _BLIND_PLACEHOLDERS.items():
            value = getattr(self, key)
            if not (_same(value, stored) or _same(value, defaults[key])):
                raise InconsistentSettings(f"blind mode does not take {key}")
            object.__setattr__(self, key, stored)
        window = 5.0 if self.window_s is None else self.window_s
        stride = window / 2.0 if self.stride_s is None else self.stride_s
        if not 0.0 < stride <= window:
            raise InconsistentSettings(
                f"blind mode needs 0 < stride_s <= window_s, got {stride}/{window}")
        object.__setattr__(self, "window_s", window)
        object.__setattr__(self, "stride_s", stride)


@dataclass(frozen=True)
class AugmentConfig(Checked):
    """Training augmentation is not offered: this section takes only its empty
    value, no copies and no ops. It stays because to_dict writes it into every
    config and its digest."""
    multiplier: int = field(default=0, metadata={"ge": 0, "le": 0})
    ops: tuple[()] = ()


@dataclass(frozen=True)
class EmbedderConfig(Checked):
    kind: str = field(default="morphology", metadata={"choices": ("morphology", "mlp")})
    target_len: int = field(default=128, metadata={"ge": 8, "le": 4096})
    hidden_dim: int = field(default=64, metadata={"gt": 0, "le": 4096})
    lr: float = field(default=0.05, metadata={"gt": 0})
    epochs: int = field(default=150, metadata={"ge": 0, "le": 10000})
    batch: int = field(default=64, metadata={"gt": 0})
    augment: AugmentConfig = field(default_factory=AugmentConfig)


@dataclass(frozen=True)
class RegimeCell(Checked):
    name: str = field(metadata={"choices": REGIME_NAMES})
    setting: str = field(default="closed", metadata={"choices": ("closed", "open")})
    enroll_session: str | None = None
    probe_session: str | None = None
    enroll_range: tuple[float, float] | None = field(default=None, metadata={"ge": 0})
    probe_range: tuple[float, float] | None = field(default=None, metadata={"ge": 0})
    open_ratio: float = field(default=0.5, metadata={"gt": 0, "lt": 1})
    split_seed: int | None = field(default=None, metadata={"ge": 0})

    def _check(self):
        if self.name == "cross_session":
            sessions = (self.enroll_session, self.probe_session)
            if None in sessions:
                raise InconsistentSettings("cross_session needs enroll_session and probe_session")
            if sessions[0] == sessions[1]:
                raise InconsistentSettings(
                    f"cross_session enrolls and probes on one session {sessions[0]!r}")
        if self.name == "custom_split":
            ranges = (self.enroll_range, self.probe_range)
            if None in ranges:
                raise InconsistentSettings("custom_split needs enroll_range and probe_range")
            for key, (t0, t1) in zip(("enroll_range", "probe_range"), ranges):
                if t1 <= t0:
                    raise ConfigError(f"regime.{key} must satisfy t0 < t1, got [{t0}, {t1}]")
            a, b = sorted(ranges)
            if b[0] < a[1]:
                raise InconsistentSettings("custom_split ranges must not overlap")

    @property
    def key(self) -> str:
        return f"{self.name}|{self.setting}"


@dataclass(frozen=True)
class EvaluationConfig(Checked):
    metric: str = field(default="cosine", metadata={"choices": METRIC_NAMES})
    template_size: int | str = field(default="all", metadata={"choices": ("all",), "gt": 0})
    template_fusion: str = field(default="mean", metadata={"choices": FUSION_NAMES})
    probe_fusion_k: int = field(default=3, metadata={"gt": 0})
    pair_sampling: str = field(default="balanced", metadata={"choices": ("balanced",)})


@dataclass(frozen=True)
class RunConfig(Checked):
    dataset: DatasetConfig
    preprocess: PreprocessConfig
    segmentation: SegmentationConfig
    embedder: EmbedderConfig
    regimes: tuple[RegimeCell, ...] = field(metadata={"key": "regime"})
    evaluation: EvaluationConfig
    seeds: tuple[int, ...] = field(default=(0, 1, 2, 3, 4), metadata={"ge": 0})

    def _check(self):
        keys = set()
        for cell in self.regimes:
            if cell.key in keys:
                raise InconsistentSettings(f"duplicate regime cell {cell.key}")
            keys.add(cell.key)
        if not self.seeds:
            raise EmptySeeds("seeds must not be empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        seg = self.segmentation
        if (seg.mode == "blind" and seg.stride_s < seg.window_s
                and any(cell.name == "single_session" for cell in self.regimes)):
            # Overlapping windows of one record always land on both sides of the split.
            raise InconsistentSettings(
                f"single_session needs blind windows that do not overlap: stride_s "
                f"{seg.stride_s} is shorter than window_s {seg.window_s}")

    def to_dict(self) -> dict:
        """Fully defaulted canonical tree; feeding it back through
        validate_config reproduces this RunConfig exactly."""
        return _tree(self)

    def digest(self) -> str:
        return config_digest(self)


def _tree(value):
    """Dataclass fields as a JSON tree under their JSON keys: None fields
    dropped, tuples as lists."""
    if is_dataclass(value):
        return {f.metadata.get("key", f.name): _tree(getattr(value, f.name))
                for f in fields(value) if getattr(value, f.name) is not None}
    if isinstance(value, tuple):
        return [_tree(v) for v in value]
    return value


def config_digest(cfg: RunConfig) -> str:
    """Stable digest of the semantic configuration: its canonical JSON's sha256."""
    text = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- reading JSON objects -----------------------------------------------------

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", type(None): "null"}


def read_object(cls, raw, where: str, **built):
    """The frozen dataclass cls read from the JSON object raw.

    Each key of raw must be the JSON key of a field of cls. A field left out
    takes its default, and one without a default must be given. Each value
    is read, and checked against its field's rules, by _read_value. ``where``
    names raw in error messages. ``built`` supplies fields the caller has read
    itself; their values in raw are not read again.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {type(raw).__name__}")
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    unknown = sorted(set(raw) - set(by_key))
    if unknown:
        raise UnknownField(f"unknown key(s) {unknown} in {where}")
    values = dict(built)
    for key, f in by_key.items():
        if f.name in built:
            continue
        if key in raw:
            values[f.name] = _read_value(raw[key], f.type, f.metadata, f"{where}.{key}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} needs {key}")
    return cls(**values)


def _read_value(value, kind, meta, where: str):
    """value read as the type annotation kind allows, under the JSON type
    rules of the module docstring, and checked by check_field against meta."""
    options = get_args(kind) if isinstance(kind, UnionType) else (kind,)
    for option in options:
        if is_dataclass(option):
            return read_object(option, value, where)
        if get_origin(option) is tuple and isinstance(value, list):
            items = get_args(option)
            if items[-1:] == (Ellipsis,):
                items = items[:1] * len(value)
            elif len(value) != len(items):
                raise ConfigError(
                    f"{where} must be a list of {len(items)} items, got {len(value)}")
            return tuple(_read_value(v, item, meta, f"{where}[{i}]")
                         for i, (v, item) in enumerate(zip(value, items)))
        if value is None and option is type(None):
            return None
        if isinstance(value, bool):
            if option is bool:
                return value
        elif (option is int and isinstance(value, int)
              or option is str and isinstance(value, str)):
            return check_field(value, meta, where)
        elif option is float and isinstance(value, (int, float)):
            return check_field(_float(value, where), meta, where)
    names = " or ".join("a list" if get_origin(o) is tuple else _JSON_TYPES[o] for o in options)
    raise ConfigError(f"{where} must be {names}, got {value!r}")


def _float(value, where: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{where} must be finite, got {value!r}") from None


# --- validation: the JSON shorthands ------------------------------------------


def _read_dataset(raw) -> DatasetConfig:
    """A dataset given as a manifest path, or with no kind, read as its object."""
    if isinstance(raw, str):
        raw = {"path": raw}
    if isinstance(raw, dict) and "kind" not in raw:
        raw = dict(raw, kind="manifest" if "path" in raw else "synthetic")
    return read_object(DatasetConfig, raw, "dataset")


def _read_segmentation(raw) -> SegmentationConfig:
    if not isinstance(raw, dict) or raw.get("mode") != "blind":
        return read_object(SegmentationConfig, raw, "segmentation")
    for key, stored in _BLIND_PLACEHOLDERS.items():
        if not _same(raw.get(key, stored), stored):
            raise InconsistentSettings(f"blind mode does not take {key}")
    return read_object(SegmentationConfig, raw, "segmentation", **_BLIND_PLACEHOLDERS)


# The keys that only one regime reads, and that regime. A grid entry may carry
# them for any of its names; each cell takes only the keys of its own regime.
_SCOPED_KEYS = {"enroll_session": "cross_session", "probe_session": "cross_session",
                "enroll_range": "custom_split", "probe_range": "custom_split"}


def _read_one_regime(raw) -> list[RegimeCell]:
    """The cells of one regime entry: a name, or an object whose other keys
    are shared by each cell of its names x settings grid."""
    if isinstance(raw, str):
        raw = {"name": raw}
    if not isinstance(raw, dict):
        raise ConfigError(f"regime must be a name or an object, got {type(raw).__name__}")
    grid = {}
    for one, many in (("name", "names"), ("setting", "settings")):
        if one in raw and many in raw:
            raise ConfigError(f"regime takes {one} or {many}, not both")
        if many in raw:
            if not isinstance(raw[many], list) or not raw[many]:
                raise ConfigError(f"regime.{many} must be a non-empty list, got {raw[many]!r}")
            grid[one] = raw[many]
        elif one in raw:
            grid[one] = [raw[one]]
    if "name" not in grid:
        raise ConfigError("regime needs exactly one of name / names")
    names = [n.replace("-", "_") if isinstance(n, str) else n for n in grid["name"]]
    for key, regime in _SCOPED_KEYS.items():
        if key in raw and regime not in names:
            raise InconsistentSettings(f"{key} only applies to {regime}")
    shared = {k: v for k, v in raw.items() if k not in ("names", "settings")}
    cells = []
    settings = [{"setting": s} for s in grid["setting"]] if "setting" in grid else [{}]
    for name in names:
        own = {k: v for k, v in shared.items() if _SCOPED_KEYS.get(k, name) == name}
        for setting in settings:
            cells.append(read_object(RegimeCell, {**own, "name": name, **setting}, "regime"))
    return cells


def _read_regimes(raw) -> tuple[RegimeCell, ...]:
    entries = raw if isinstance(raw, list) else [raw]
    if not entries:
        raise ConfigError("regime list must not be empty")
    return tuple(cell for entry in entries for cell in _read_one_regime(entry))


def validate_config(raw) -> RunConfig:
    """Validate a parsed configuration tree into a fully defaulted RunConfig.

    Only the JSON shorthands are read here; read_object checks each value's
    field rules, and each type its own rules when it is built. Idempotent:
    validate_config(validate_config(raw).to_dict()) equals validate_config(raw).
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be an object, got {type(raw).__name__}")
    for key in ("dataset", "regime"):
        if key not in raw:
            raise ConfigError(f"config needs a {key}")
    # Every section is read here, in field order, so which error a config
    # reports first does not depend on which sections have shorthands.
    return read_object(
        RunConfig, raw, "config",
        dataset=_read_dataset(raw["dataset"]),
        preprocess=read_object(PreprocessConfig, raw.get("preprocess", {}), "preprocess"),
        segmentation=_read_segmentation(raw.get("segmentation", {})),
        embedder=read_object(EmbedderConfig, raw.get("embedder", {}), "embedder"),
        regimes=_read_regimes(raw["regime"]),
        evaluation=read_object(EvaluationConfig, raw.get("evaluation", {}), "evaluation"),
    )


# --- aggregated metrics -------------------------------------------------------

METRIC_FIELDS = ("rank1", "rank5", "eer", "auc", "dprime", "tar_at_far")


@dataclass(frozen=True)
class MetricsReport:
    """Mean and sample std over seeds per (regime, setting) cell."""
    cells: dict

    def __post_init__(self):
        for key, metrics in self.cells.items():
            for name in METRIC_FIELDS:
                mean, std = metrics[name]["mean"], metrics[name]["std"]
                if std < 0 or not math.isfinite(mean):
                    raise ValueError(f"bad aggregate for {key}/{name}")
                if name != "dprime" and not 0.0 <= mean <= 1.0:
                    raise ValueError(f"{key}/{name} mean {mean} outside [0, 1]")
                if name == "dprime" and mean < 0:
                    raise ValueError(f"{key}/dprime must be non-negative")

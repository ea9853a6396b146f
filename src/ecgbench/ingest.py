"""Dataset loading: a manifest of ManifestEntry records, read by
core.read_object (a ManifestEntry checks its field rules as a core.Checked),
plus raw-signal readers (f32le, csv, WFDB).

The WFDB reader is intentionally minimal: header record/signal lines plus
sample formats 212 and 16, bit-exact. Anything else is rejected loudly.
"""

import json
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Checked, RecordKey, Recording, read_object, read_text
from .errors import (
    ConfigError,
    DuplicateRecordKey,
    FormatMismatch,
    MalformedHeaderLine,
    NonFiniteSamples,
    SchemaError,
    TruncatedData,
    UnsupportedFormat,
    ZeroGain,
)

RAW_FORMATS = ("f32le", "csv", "wfdb")
WFDB_DEFAULT_FS = 250.0  # WFDB header default when the record line omits fs
WFDB_DEFAULT_GAIN = 200.0  # adu per mV when the signal line omits gain


@dataclass(frozen=True)
class ManifestEntry(Checked):
    """The schema of one manifest entry. A wfdb header gives its own fs."""
    subject: str
    session: str
    path: str
    format: str = field(metadata={"choices": RAW_FORMATS})
    day: int = field(default=0, metadata={"ge": 0})
    record_index: int | None = field(default=None, metadata={"ge": 0})
    fs: float | None = field(default=None, metadata={"gt": 0})
    channel: int | None = field(default=None, metadata={"ge": 0})


@dataclass(frozen=True)
class RecordMeta:
    key: RecordKey
    path: str
    format: str
    fs: float | None = None
    channel_selector: int | None = None


@dataclass(frozen=True)
class DatasetIndex:
    records: tuple[RecordMeta, ...]

    def subjects(self) -> list[str]:
        return sorted({m.key.subject_id for m in self.records})

    def by_subject(self) -> dict:
        out: dict[str, list[RecordMeta]] = {}
        for meta in self.records:
            out.setdefault(meta.key.subject_id, []).append(meta)
        return out


def sorted_index(metas) -> DatasetIndex:
    """Index in (subject, day, record, session) order."""
    return DatasetIndex(records=tuple(sorted(
        metas, key=lambda m: (m.key.subject_id, m.key.day_index,
                              m.key.record_index, m.key.session_id))))


@dataclass(frozen=True)
class WfdbSignalSpec:
    filename: str
    format: int
    adc_gain: float
    baseline: int
    description: str


@dataclass(frozen=True)
class WfdbHeader:
    record_name: str
    n_signals: int
    fs: float
    n_samples: int | None
    signals: tuple[WfdbSignalSpec, ...]


def parse_manifest(text: str) -> DatasetIndex:
    """Parse the manifest JSON {"records": [ManifestEntry, ...]} into a
    validated, deterministically sorted index.

    day_index is re-based per subject so each subject's first day is 0;
    missing record_index is assigned by manifest order within the subject.
    """
    try:
        tree = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise SchemaError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(tree, dict) or set(tree) != {"records"}:
        raise SchemaError("manifest must be an object with a single 'records' key")
    entries = tree["records"]
    if not isinstance(entries, list) or not entries:
        raise SchemaError("manifest.records must be a non-empty array")

    metas = []
    per_subject_count: dict[str, int] = {}
    for i, raw in enumerate(entries):
        try:
            entry = read_object(ManifestEntry, raw, f"records[{i}]")
        except ConfigError as exc:
            raise SchemaError(str(exc)) from None
        if entry.fs is None and entry.format != "wfdb":
            raise SchemaError(f"records[{i}]: fs is required for format {entry.format!r}")
        count = per_subject_count.get(entry.subject, 0)
        per_subject_count[entry.subject] = count + 1
        rec_idx = count if entry.record_index is None else entry.record_index
        metas.append(RecordMeta(
            key=RecordKey(entry.subject, entry.session, entry.day, rec_idx),
            path=entry.path, format=entry.format, fs=entry.fs, channel_selector=entry.channel))

    first_day = {}
    for k in (m.key for m in metas):
        first_day[k.subject_id] = min(first_day.get(k.subject_id, k.day_index), k.day_index)
    metas = [replace(m, key=m.key._replace(
        day_index=m.key.day_index - first_day[m.key.subject_id])) for m in metas]

    seen = set()
    for m in metas:
        if m.key in seen:
            raise DuplicateRecordKey(
                f"duplicate (subject, session, day, record_index) {tuple(m.key)}")
        seen.add(m.key)

    return sorted_index(metas)


# --- WFDB ----------------------------------------------------------------------


def _header_tokens(line: str) -> list[str]:
    return line.strip().split()


def parse_wfdb_header(text: str) -> WfdbHeader:
    """Parse a WFDB .hea file: record line + one signal-spec line per signal.

    Comment lines (leading '#') and blank lines are skipped. Only formats 212
    and 16 are accepted; per-signal sampling-frequency multipliers (e.g.
    '212x4') are rejected as malformed rather than silently misread.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise MalformedHeaderLine("empty header")
    rec = _header_tokens(lines[0])
    if len(rec) < 2:
        raise MalformedHeaderLine(f"record line needs name and n_signals: {lines[0]!r}")
    name = rec[0].split("/")[0]
    try:
        n_signals = int(rec[1])
    except ValueError as exc:
        raise MalformedHeaderLine(f"bad n_signals in {lines[0]!r}") from exc
    if n_signals < 1:
        raise MalformedHeaderLine(f"n_signals must be >= 1, got {n_signals}")
    fs = WFDB_DEFAULT_FS
    if len(rec) >= 3:
        try:
            fs = float(rec[2].split("/")[0])
        except ValueError as exc:
            raise MalformedHeaderLine(f"bad sampling frequency in {lines[0]!r}") from exc
    if not 0 < fs < math.inf:
        raise MalformedHeaderLine(f"fs must be positive and finite, got {fs}")
    n_samples = None
    if len(rec) >= 4:
        try:
            n_samples = int(rec[3])
        except ValueError as exc:
            raise MalformedHeaderLine(f"bad n_samples in {lines[0]!r}") from exc

    sig_lines = lines[1:]
    if len(sig_lines) < n_signals:
        raise MalformedHeaderLine(
            f"header declares {n_signals} signals but has {len(sig_lines)} signal lines")
    signals = []
    for ln in sig_lines[:n_signals]:
        tokens = _header_tokens(ln)
        if len(tokens) < 2:
            raise MalformedHeaderLine(f"signal line needs filename and format: {ln!r}")
        filename = tokens[0]
        fmt_field = tokens[1]
        if "x" in fmt_field or ":" in fmt_field or "+" in fmt_field:
            raise MalformedHeaderLine(
                f"format modifiers (samples-per-frame, skew, offset) unsupported: {fmt_field!r}")
        try:
            fmt = int(fmt_field)
        except ValueError as exc:
            raise MalformedHeaderLine(f"bad format code in {ln!r}") from exc
        if fmt not in (212, 16):
            raise UnsupportedFormat(f"WFDB format {fmt} not supported (only 212 and 16)")
        gain = WFDB_DEFAULT_GAIN
        baseline = None
        if len(tokens) >= 3:
            gain_field = tokens[2].split("/")[0]  # strip units suffix
            if "(" in gain_field:
                base, _, rest = gain_field.partition("(")
                if not rest.endswith(")"):
                    raise MalformedHeaderLine(f"bad baseline spec in {ln!r}")
                try:
                    gain = float(base)
                    baseline = int(rest[:-1])
                except ValueError as exc:
                    raise MalformedHeaderLine(f"bad gain/baseline in {ln!r}") from exc
            else:
                try:
                    gain = float(gain_field)
                except ValueError as exc:
                    raise MalformedHeaderLine(f"bad gain in {ln!r}") from exc
            if gain == 0:
                gain = WFDB_DEFAULT_GAIN  # WFDB: gain 0 means "use the default"
        if baseline is None:
            # WFDB: baseline defaults to the adc zero field when present, else 0.
            if len(tokens) >= 5:
                try:
                    baseline = int(tokens[4])
                except ValueError as exc:
                    raise MalformedHeaderLine(f"bad adc zero in {ln!r}") from exc
            else:
                baseline = 0
        description = " ".join(tokens[8:]) if len(tokens) > 8 else ""
        signals.append(WfdbSignalSpec(filename=filename, format=fmt, adc_gain=gain,
                                      baseline=baseline, description=description))
    return WfdbHeader(record_name=name, n_signals=n_signals, fs=fs,
                      n_samples=n_samples, signals=tuple(signals))


def _signext12(values: np.ndarray) -> np.ndarray:
    return np.where(values >= 2048, values - 4096, values).astype(np.int32)


def decode_wfdb_samples(data: bytes, fmt: int, n_signals: int) -> list[np.ndarray]:
    """Decode a raw sample stream into one integer vector per signal.

    Format 212 packs two 12-bit two's-complement samples into 3 bytes; format
    16 is little-endian signed 16-bit. Samples are de-interleaved round-robin
    across signals.
    """
    if n_signals < 1:
        raise ValueError("n_signals must be >= 1")
    if fmt == 212:
        if len(data) % 3 != 0:
            raise TruncatedData(f"format 212 stream of {len(data)} bytes is not a multiple of 3")
        raw = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
        b0, b1, b2 = raw[0::3], raw[1::3], raw[2::3]
        first = _signext12(((b1 & 0x0F) << 8) | b0)
        second = _signext12(((b1 & 0xF0) << 4) | b2)
        flat = np.empty(first.size + second.size, dtype=np.int32)
        flat[0::2] = first
        flat[1::2] = second
    elif fmt == 16:
        if len(data) % 2 != 0:
            raise TruncatedData(f"format 16 stream of {len(data)} bytes is not a multiple of 2")
        flat = np.frombuffer(data, dtype="<i2").astype(np.int32)
    else:
        raise UnsupportedFormat(f"WFDB format {fmt} not supported (only 212 and 16)")
    if flat.size % n_signals != 0:
        raise TruncatedData(
            f"{flat.size} samples do not de-interleave across {n_signals} signals")
    return [flat[i::n_signals].copy() for i in range(n_signals)]


def adc_to_physical(adc, gain: float, baseline: int) -> np.ndarray:
    """(adc - baseline) / gain, in millivolts."""
    if gain == 0:
        raise ZeroGain("adc gain must be non-zero")
    return (np.asarray(adc, dtype=float) - float(baseline)) / float(gain)


# --- record loading -------------------------------------------------------------


def _load_f32le(path: str) -> np.ndarray:
    size = os.path.getsize(path)
    if size % 4:
        raise TruncatedData(f"{path}: f32le file of {size} bytes is not a multiple of 4")
    data = np.fromfile(path, dtype="<f4")
    if data.size == 0:
        raise FormatMismatch(f"{path}: empty f32le file")
    return data.astype(float)


def _load_csv(path: str) -> np.ndarray:
    values = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise FormatMismatch(f"{path}:{lineno}: non-numeric cell {line!r}") from exc
    if not values:
        raise FormatMismatch(f"{path}: no samples")
    return np.asarray(values, dtype=float)


def _load_wfdb(meta: RecordMeta):
    header_path = meta.path if meta.path.endswith(".hea") else meta.path + ".hea"
    header = parse_wfdb_header(read_text(header_path))
    fmts = {s.format for s in header.signals}
    files = {s.filename for s in header.signals}
    if len(fmts) != 1 or len(files) != 1:
        raise UnsupportedFormat("multi-file or mixed-format WFDB records not supported")
    dat_path = os.path.join(os.path.dirname(header_path), header.signals[0].filename)
    with open(dat_path, "rb") as fh:
        data = fh.read()
    digital = decode_wfdb_samples(data, header.signals[0].format, header.n_signals)
    if header.n_samples is not None:
        for vec in digital:
            if len(vec) < header.n_samples:
                raise TruncatedData(
                    f"{dat_path}: {len(vec)} samples < declared {header.n_samples}")
        digital = [vec[: header.n_samples] for vec in digital]
    # An infinite gain zeros a kept channel; load_record rejects a NaN one's samples.
    for c, sig in enumerate(header.signals):
        if math.isinf(sig.adc_gain) and meta.channel_selector in (None, c):
            raise MalformedHeaderLine(
                f"{header_path}: signal {c} adc gain must be finite, got {sig.adc_gain}")
    channels = [
        adc_to_physical(vec, sig.adc_gain, sig.baseline)
        for vec, sig in zip(digital, header.signals)
    ]
    return channels, header.fs


def load_record(meta: RecordMeta) -> Recording:
    """Load one record into the unified Recording representation.

    For wfdb, fs and the digital-to-physical conversion come from the header;
    channel_selector (when set) reduces the output to that single channel.
    Every kept sample must be finite.
    """
    if meta.format == "f32le":
        channels, fs = [_load_f32le(meta.path)], meta.fs
    elif meta.format == "csv":
        channels, fs = [_load_csv(meta.path)], meta.fs
    elif meta.format == "wfdb":
        channels, fs = _load_wfdb(meta)
    else:
        raise FormatMismatch(f"unknown format {meta.format!r}")
    if meta.channel_selector is not None:
        if meta.channel_selector >= len(channels):
            raise FormatMismatch(
                f"{meta.path}: channel {meta.channel_selector} of {len(channels)} requested")
        channels = [channels[meta.channel_selector]]
    channels = tuple(np.asarray(c, dtype=float) for c in channels)
    for c, samples in enumerate(channels):
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise NonFiniteSamples(
                f"{meta.path}: record {'/'.join(map(str, meta.key))}, channel {c}: "
                f"sample {bad[0]} is {samples[bad[0]]} ({bad.size} non-finite)")
    return Recording(key=meta.key, fs=float(fs), channels=channels)


class RecordFiles(Mapping):
    """Read-only mapping from record key to the Recording that read(meta)
    gives at each lookup, such as load_record from the record's file. It holds
    no samples, so neither does a process that keeps or inherits it."""

    def __init__(self, index: DatasetIndex, read):
        self._metas = {meta.key: meta for meta in index.records}
        self._read = read

    def __getitem__(self, key) -> Recording:
        return self._read(self._metas[key])

    def __iter__(self):
        return iter(self._metas)

    def __len__(self) -> int:
        return len(self._metas)


def load_dataset(manifest_path: str) -> tuple[DatasetIndex, RecordFiles]:
    """Parse a manifest file and read and check every record it references.

    Paths are resolved relative to the manifest location (join keeps an
    absolute one); a record's fs is the one it loads with. No record is kept:
    returns the index and a RecordFiles, which reads a record again at each
    lookup, so a bad file raises here, before any evaluation, and the process
    that prepares a record is the one that holds its samples.
    """
    index = parse_manifest(read_text(manifest_path))
    base = os.path.dirname(os.path.abspath(manifest_path))
    resolved = (replace(m, path=os.path.join(base, m.path)) for m in index.records)
    index = DatasetIndex(records=tuple(replace(m, fs=load_record(m).fs) for m in resolved))
    return index, RecordFiles(index, load_record)

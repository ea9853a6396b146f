"""Dataset loading: manifest parsing plus raw-signal readers (f32le, csv, WFDB).

The WFDB reader is intentionally minimal: header record/signal lines plus
sample formats 212 and 16, bit-exact. Anything else is rejected loudly.
"""

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .core import RecordKey, Recording
from .errors import (
    DuplicateRecordKey,
    FormatMismatch,
    MalformedHeaderLine,
    SchemaError,
    TruncatedData,
    UnsupportedFormat,
    ZeroGain,
)

RAW_FORMATS = ("f32le", "csv", "wfdb")
WFDB_DEFAULT_FS = 250.0  # WFDB header default when the record line omits fs
WFDB_DEFAULT_GAIN = 200.0  # adu per mV when the signal line omits gain


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
    """Parse the manifest JSON into a validated, deterministically sorted index.

    Entries: {subject, session, day?, record_index?, path, format, fs?, channel?}.
    day_index is re-based per subject so each subject's first day is 0; missing
    record_index is assigned by manifest order within the subject.
    """
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(tree, dict) or set(tree) != {"records"}:
        raise SchemaError("manifest must be an object with a single 'records' key")
    entries = tree["records"]
    if not isinstance(entries, list) or not entries:
        raise SchemaError("manifest.records must be a non-empty array")

    allowed = {"subject", "session", "day", "record_index", "path", "format",
               "fs", "channel"}
    metas = []
    per_subject_count: dict[str, int] = {}
    for i, entry in enumerate(entries):
        where = f"records[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where} must be an object")
        unknown = sorted(set(entry) - allowed)
        if unknown:
            raise SchemaError(f"{where} has unknown key(s) {unknown}")
        for req in ("subject", "session", "path", "format"):
            if req not in entry:
                raise SchemaError(f"{where} missing required key {req!r}")
        fmt = entry["format"]
        if fmt not in RAW_FORMATS:
            raise SchemaError(f"{where}: unknown format {fmt!r}")
        fs = entry.get("fs")
        if fs is not None and (isinstance(fs, bool) or not isinstance(fs, (int, float)) or fs <= 0):
            raise SchemaError(f"{where}: fs must be positive, got {fs!r}")
        if fs is None and fmt != "wfdb":
            raise SchemaError(f"{where}: fs is required for format {fmt!r}")
        day = entry.get("day", 0)
        if isinstance(day, bool) or not isinstance(day, int) or day < 0:
            raise SchemaError(f"{where}: day must be a non-negative integer")
        subject = str(entry["subject"])
        rec_idx = entry.get("record_index")
        if rec_idx is None:
            rec_idx = per_subject_count.get(subject, 0)
        elif isinstance(rec_idx, bool) or not isinstance(rec_idx, int) or rec_idx < 0:
            raise SchemaError(f"{where}: record_index must be a non-negative integer")
        per_subject_count[subject] = per_subject_count.get(subject, 0) + 1
        channel = entry.get("channel")
        if channel is not None and (isinstance(channel, bool) or not isinstance(channel, int) or channel < 0):
            raise SchemaError(f"{where}: channel must be a non-negative integer")
        metas.append(RecordMeta(
            key=RecordKey(subject, str(entry["session"]), day, rec_idx),
            path=str(entry["path"]),
            format=fmt,
            fs=float(fs) if fs is not None else None,
            channel_selector=channel,
        ))

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
    if fs <= 0:
        raise MalformedHeaderLine(f"fs must be positive, got {fs}")
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


def encode_wfdb_212(samples: np.ndarray) -> bytes:
    """Inverse of the format-212 decode for a flat interleaved sample vector.

    The sample count must be even (two samples per 3-byte group).
    """
    flat = np.asarray(samples, dtype=np.int64)
    if flat.size % 2 != 0:
        raise ValueError("format 212 encodes samples in pairs")
    if np.any(flat < -2048) or np.any(flat > 2047):
        raise ValueError("sample outside the 12-bit range [-2048, 2047]")
    first = (flat[0::2] & 0xFFF).astype(np.uint32)
    second = (flat[1::2] & 0xFFF).astype(np.uint32)
    out = np.empty(3 * first.size, dtype=np.uint8)
    out[0::3] = first & 0xFF
    out[1::3] = ((first >> 8) & 0x0F) | (((second >> 8) & 0x0F) << 4)
    out[2::3] = second & 0xFF
    return out.tobytes()


def adc_to_physical(adc, gain: float, baseline: int) -> np.ndarray:
    """(adc - baseline) / gain, in millivolts."""
    if gain == 0:
        raise ZeroGain("adc gain must be non-zero")
    return (np.asarray(adc, dtype=float) - float(baseline)) / float(gain)


# --- record loading -------------------------------------------------------------


def _load_f32le(path: str) -> np.ndarray:
    data = np.fromfile(path, dtype="<f4")
    if data.size == 0:
        raise FormatMismatch(f"{path}: empty f32le file")
    return data.astype(float)


def _load_csv(path: str) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    with open(header_path, "r", encoding="utf-8") as fh:
        header = parse_wfdb_header(fh.read())
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
    channels = [
        adc_to_physical(vec, sig.adc_gain, sig.baseline)
        for vec, sig in zip(digital, header.signals)
    ]
    return channels, header.fs


def load_record(meta: RecordMeta) -> Recording:
    """Load one record into the unified Recording representation.

    For wfdb, fs and the digital-to-physical conversion come from the header;
    channel_selector (when set) reduces the output to that single channel.
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
    return Recording(
        key=meta.key,
        fs=float(fs),
        channels=tuple(np.asarray(c, dtype=float) for c in channels),
    )


def load_dataset(manifest_path: str) -> tuple[DatasetIndex, dict]:
    """Parse a manifest file and load every record it references.

    Paths are resolved relative to the manifest location. Returns the index
    and a dict from record key to Recording.
    """
    with open(manifest_path, "r", encoding="utf-8") as fh:
        index = parse_manifest(fh.read())
    base = os.path.dirname(os.path.abspath(manifest_path))
    resolved = tuple(
        m if os.path.isabs(m.path) else replace(m, path=os.path.join(base, m.path))
        for m in index.records
    )
    index = DatasetIndex(records=resolved)
    recordings = {m.key: load_record(m) for m in index.records}
    return index, recordings

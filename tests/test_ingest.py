import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from ecgbench import ingest
from ecgbench.core import RecordKey
from ecgbench.errors import (
    DuplicateRecordKey,
    EcgBenchError,
    FormatMismatch,
    MalformedHeaderLine,
    NonFiniteSamples,
    SchemaError,
    TruncatedData,
    UnsupportedFormat,
    ZeroGain,
)

from .test_core import _WRONG_VALUES


def _manifest(entries):
    return json.dumps({"records": entries})


BASE_ENTRY = {"session": "s0", "format": "f32le", "fs": 250}


def test_manifest_sorted_and_counted():
    entries = [
        dict(BASE_ENTRY, subject="b", day=1, record_index=0, path="b1.f32"),
        dict(BASE_ENTRY, subject="a", day=0, record_index=1, path="a01.f32"),
        dict(BASE_ENTRY, subject="a", day=0, record_index=0, path="a00.f32"),
        dict(BASE_ENTRY, subject="b", day=0, record_index=0, path="b0.f32"),
    ]
    index = ingest.parse_manifest(_manifest(entries))
    assert len(index.records) == 4
    keys = [(m.key.subject_id, m.key.day_index, m.key.record_index) for m in index.records]
    assert keys == [("a", 0, 0), ("a", 0, 1), ("b", 0, 0), ("b", 1, 0)]


def test_manifest_order_independent():
    entries = [
        dict(BASE_ENTRY, subject="a", day=0, record_index=0, path="a0.f32"),
        dict(BASE_ENTRY, subject="a", day=3, record_index=0, path="a1.f32"),
        dict(BASE_ENTRY, subject="b", day=2, record_index=0, path="b0.f32"),
    ]
    fwd = ingest.parse_manifest(_manifest(entries))
    rev = ingest.parse_manifest(_manifest(entries[::-1]))
    assert fwd == rev


def test_manifest_day_rebased_per_subject():
    entries = [
        dict(BASE_ENTRY, subject="a", day=5, record_index=0, path="a0.f32"),
        dict(BASE_ENTRY, subject="a", day=8, record_index=1, path="a1.f32"),
    ]
    index = ingest.parse_manifest(_manifest(entries))
    assert [m.key.day_index for m in index.records] == [0, 3]


def test_manifest_duplicate_key():
    entries = [
        dict(BASE_ENTRY, subject="a", record_index=0, path="x.f32"),
        dict(BASE_ENTRY, subject="a", record_index=0, path="y.f32"),
    ]
    with pytest.raises(DuplicateRecordKey):
        ingest.parse_manifest(_manifest(entries))


def test_manifest_negative_fs():
    entries = [dict(BASE_ENTRY, subject="a", path="x.f32", fs=-1)]
    with pytest.raises(SchemaError):
        ingest.parse_manifest(_manifest(entries))


def test_manifest_unknown_key():
    entries = [dict(BASE_ENTRY, subject="a", path="x.f32", shoe_size=43)]
    with pytest.raises(SchemaError):
        ingest.parse_manifest(_manifest(entries))


# --- WFDB header ----------------------------------------------------------------

TWO_SIGNAL_HEADER = """\
r1 2 360 650000
r1.dat 212 200 11 1024 995 -22131 0 MLII
r1.dat 212 200 11 1024 1011 20052 0 V5
"""


def test_parse_header_two_signals():
    header = ingest.parse_wfdb_header(TWO_SIGNAL_HEADER)
    assert header.record_name == "r1"
    assert header.n_signals == 2
    assert header.fs == 360.0
    assert header.n_samples == 650000
    assert header.signals[0].format == 212
    assert header.signals[0].adc_gain == 200.0
    assert header.signals[0].baseline == 1024
    assert header.signals[1].description == "V5"


def test_parse_header_comment_lines_skipped():
    header = ingest.parse_wfdb_header("# produced by hand\n" + TWO_SIGNAL_HEADER)
    assert header.n_signals == 2


def test_parse_header_unsupported_format():
    text = "r1 1 500 100\nr1.dat 80 200\n"
    with pytest.raises(UnsupportedFormat):
        ingest.parse_wfdb_header(text)


def test_parse_header_fs_defaults_to_250():
    header = ingest.parse_wfdb_header("r2 1\nr2.dat 16 100\n")
    assert header.fs == 250.0


def test_parse_header_baseline_in_parens():
    header = ingest.parse_wfdb_header("r3 1 500 10\nr3.dat 16 100(12)/mV\n")
    assert header.signals[0].adc_gain == 100.0
    assert header.signals[0].baseline == 12


def test_parse_header_rejects_frame_multiplier():
    text = "r4 1 500 10\nr4.dat 212x4 200\n"
    with pytest.raises(MalformedHeaderLine):
        ingest.parse_wfdb_header(text)


def test_parse_header_malformed_record_line():
    with pytest.raises(MalformedHeaderLine):
        ingest.parse_wfdb_header("r5\n")


@pytest.mark.parametrize("fs", ["nan", "inf"])
def test_parse_header_rejects_non_finite_fs(fs):
    with pytest.raises(MalformedHeaderLine, match=f"fs must be positive and finite, got {fs}"):
        ingest.parse_wfdb_header(f"r6 1 {fs} 10\nr6.dat 16 200\n")


# --- sample decoding ------------------------------------------------------------

def test_decode_212_positive_pair():
    out = ingest.decode_wfdb_samples(bytes([0x01, 0x00, 0x02]), 212, 1)
    assert out[0].tolist() == [1, 2]


def test_decode_212_negative():
    out = ingest.decode_wfdb_samples(bytes([0xFF, 0x0F, 0x00]), 212, 1)
    assert out[0].tolist() == [-1, 0]


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


def test_decode_16_little_endian():
    out = ingest.decode_wfdb_samples(bytes([0x34, 0x12]), 16, 1)
    assert out[0].tolist() == [0x1234]


def test_decode_deinterleaves_round_robin():
    data = encode_wfdb_212(np.array([1, 100, 2, 200, 3, 300]))
    sig0, sig1 = ingest.decode_wfdb_samples(data, 212, 2)
    assert sig0.tolist() == [1, 2, 3]
    assert sig1.tolist() == [100, 200, 300]


def test_decode_truncated():
    with pytest.raises(TruncatedData):
        ingest.decode_wfdb_samples(bytes([0x01, 0x02]), 212, 1)
    with pytest.raises(TruncatedData):
        ingest.decode_wfdb_samples(bytes([0x01]), 16, 1)


def test_encode_decode_bytes_round_trip(rng):
    values = rng.integers(-2048, 2048, size=400)
    data = encode_wfdb_212(values)
    decoded = ingest.decode_wfdb_samples(data, 212, 1)[0]
    assert decoded.tolist() == values.tolist()
    assert encode_wfdb_212(decoded) == data


def test_adc_to_physical():
    assert ingest.adc_to_physical([200, 100], 200, 0).tolist() == [1.0, 0.5]
    assert ingest.adc_to_physical([1024], 200, 1024).tolist() == [0.0]
    with pytest.raises(ZeroGain):
        ingest.adc_to_physical([0], 0, 0)


def test_adc_to_physical_affine_exact(rng):
    x = rng.integers(-2048, 2048, size=100)
    out = ingest.adc_to_physical(x, 123.0, 7)
    assert np.array_equal(out, (x - 7) / 123.0)


# --- record loading --------------------------------------------------------------

def test_load_f32le(tmp_path):
    samples = np.linspace(-1, 1, 5000).astype("<f4")
    path = tmp_path / "rec.f32"
    samples.tofile(path)
    meta = ingest.RecordMeta(RecordKey("a", "s0", 0, 0), str(path), "f32le", fs=500.0)
    rec = ingest.load_record(meta)
    assert len(rec.channels) == 1
    assert len(rec.channels[0]) == 5000
    assert rec.fs == 500.0
    assert np.allclose(rec.channels[0], samples, atol=1e-6)


def test_load_csv_and_mismatch(tmp_path):
    good = tmp_path / "ok.csv"
    good.write_text("1.0\n2.5\n-3.25\n")
    meta = ingest.RecordMeta(RecordKey("a", "s0", 0, 0), str(good), "csv", fs=100.0)
    rec = ingest.load_record(meta)
    assert rec.channels[0].tolist() == [1.0, 2.5, -3.25]

    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\npotato\n")
    meta = ingest.RecordMeta(RecordKey("a", "s0", 0, 0), str(bad), "csv", fs=100.0)
    with pytest.raises(FormatMismatch):
        ingest.load_record(meta)


def _write_wfdb_fixture(tmp_path, name="demo"):
    sig0_mv = np.array([0.0, 0.5, 1.0, -0.5, 0.25, -0.25])
    sig1_mv = np.array([1.0, 0.0, -1.0, 0.5, 0.75, -0.75])
    gain, baseline = 200.0, 1024
    sig0 = np.round(sig0_mv * gain + baseline).astype(int)
    sig1 = np.round(sig1_mv * gain + baseline).astype(int)
    flat = np.empty(12, dtype=int)
    flat[0::2] = sig0
    flat[1::2] = sig1
    (tmp_path / f"{name}.dat").write_bytes(encode_wfdb_212(flat))
    (tmp_path / f"{name}.hea").write_text(
        f"{name} 2 360 6\n"
        f"{name}.dat 212 {gain:g}({baseline}) 11 1024 0 0 0 MLII\n"
        f"{name}.dat 212 {gain:g}({baseline}) 11 1024 0 0 0 V5\n"
    )
    return sig0_mv, sig1_mv


def test_load_wfdb_with_selector(tmp_path):
    _, sig1_mv = _write_wfdb_fixture(tmp_path)
    meta = ingest.RecordMeta(RecordKey("a", "s0", 0, 0), str(tmp_path / "demo.hea"),
                             "wfdb", channel_selector=1)
    rec = ingest.load_record(meta)
    assert rec.fs == 360.0
    assert len(rec.channels) == 1
    assert np.allclose(rec.channels[0], sig1_mv)


def test_load_wfdb_all_channels(tmp_path):
    sig0_mv, sig1_mv = _write_wfdb_fixture(tmp_path)
    meta = ingest.RecordMeta(RecordKey("a", "s0", 0, 0), str(tmp_path / "demo.hea"), "wfdb")
    rec = ingest.load_record(meta)
    assert len(rec.channels) == 2
    assert np.allclose(rec.channels[0], sig0_mv)
    assert np.allclose(rec.channels[1], sig1_mv)


def _non_finite_record(tmp_path, fmt):
    """A record of the format with non-finite samples in the channel it keeps:
    from sample 700 for f32le (NaN) and csv (one inf), every sample for wfdb."""
    key = RecordKey("a", "s0", 0, 0)
    samples = np.sin(np.linspace(0, 20, 2000))
    if fmt == "f32le":
        samples[700:800] = np.nan
        path = tmp_path / "rec.f32"
        samples.astype("<f4").tofile(path)
        return ingest.RecordMeta(key, str(path), fmt, fs=250.0)
    if fmt == "csv":
        path = tmp_path / "rec.csv"
        lines = [repr(float(v)) for v in samples]
        lines[700] = "inf"
        path.write_text("\n".join(lines) + "\n")
        return ingest.RecordMeta(key, str(path), fmt, fs=250.0)
    # The second signal's NaN gain makes every one of its samples NaN.
    _write_wfdb_fixture(tmp_path)
    header = (tmp_path / "demo.hea").read_text().splitlines()
    header[2] = header[2].replace("200(1024)", "nan(1024)")
    (tmp_path / "demo.hea").write_text("\n".join(header) + "\n")
    return ingest.RecordMeta(key, str(tmp_path / "demo.hea"), fmt, channel_selector=1)


@pytest.mark.parametrize("fmt", ["f32le", "csv", "wfdb"])
def test_load_record_rejects_non_finite_samples(tmp_path, fmt):
    meta = _non_finite_record(tmp_path, fmt)
    with pytest.raises(NonFiniteSamples) as info:
        ingest.load_record(meta)
    message = str(info.value)
    assert meta.path in message and "a/s0/0/0" in message
    first = 0 if fmt == "wfdb" else 700
    assert f"sample {first} is " in message


def test_non_finite_samples_in_an_unselected_channel_are_ignored(tmp_path):
    meta = _non_finite_record(tmp_path, "wfdb")
    rec = ingest.load_record(replace(meta, channel_selector=0))
    assert np.isfinite(rec.channels[0]).all()
    with pytest.raises(NonFiniteSamples, match="channel 1: sample 0 is nan"):
        ingest.load_record(replace(meta, channel_selector=None))


def test_load_dataset_resolves_relative_paths(tmp_path):
    samples = np.zeros(100, dtype="<f4")
    samples.tofile(tmp_path / "rec.f32")
    manifest = {"records": [
        {"subject": "a", "session": "s0", "path": "rec.f32", "format": "f32le", "fs": 100}]}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    index, recordings = ingest.load_dataset(str(mpath))
    assert len(recordings) == 1
    rec = recordings[index.records[0].key]
    assert len(rec.channels[0]) == 100


def test_every_wrong_manifest_leaf_is_a_named_error_or_meets_the_entry_contract(tmp_path):
    # One entry that gives every ManifestEntry key, each key replaced in turn
    # by each wrong value of the config sweep. OSError is the other error the
    # command line reports as bad input (here, a path to no file).
    np.zeros(100, dtype="<f4").tofile(tmp_path / "rec.f32")
    entry = {"subject": "a", "session": "s0", "path": "rec.f32", "format": "f32le",
             "day": 2, "record_index": 1, "fs": 100, "channel": 0}
    assert list(entry) == [f.name for f in fields(ingest.ManifestEntry)]
    manifest = tmp_path / "manifest.json"
    accepted = 0
    for key in entry:
        for wrong in _WRONG_VALUES:
            manifest.write_text(json.dumps({"records": [dict(entry, **{key: wrong})]}))
            try:
                index, _ = ingest.load_dataset(str(manifest))
            except (EcgBenchError, OSError):
                continue
            accepted += 1
            (meta,) = index.records
            case = f"{key} = {wrong!r}: {meta}"
            assert all(type(part) is str for part in meta.key[:2] + (meta.path,)), case
            assert type(meta.fs) is float and 0 < meta.fs < math.inf, case
            channel = 0 if meta.channel_selector is None else meta.channel_selector
            assert all(type(v) is int and v >= 0 for v in (*meta.key[2:], channel)), case
    assert 0 < accepted < len(entry) * len(_WRONG_VALUES)

"""Command-line contract: synth -> run -> report, byte-identity across --jobs,
exit code 2 for bad input and 1 for a failed evaluation, never a traceback."""

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import weakref

import numpy as np
import pytest

from ecgbench import cli, dsp, ingest, regimes, synth
from ecgbench.core import METRIC_FIELDS, validate_config
from ecgbench.errors import RangeOutOfBounds
from ecgbench.ingest import load_record

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SPEC = {
    "n_subjects": 4,
    "duration_s": 20.0,
    "sessions": [
        {"session_id": "s0", "day_index": 0, "morphology_drift": 0.1, "noise_sigma": 0.03},
        {"session_id": "s1", "day_index": 1, "morphology_drift": 0.1, "noise_sigma": 0.03},
    ],
}
REGIMES = [{"names": ["single_session", "single_cross_session"],
            "settings": ["closed", "open"]}]


NOT_UTF8 = b"\x80\x81"
NOT_JSON = b"{"


def _write_json(path, obj) -> str:
    """Write obj as JSON, or write it as is when it is bytes."""
    path.write_bytes(obj if isinstance(obj, bytes) else json.dumps(obj).encode())
    return str(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = _write_json(root / "spec.json", SPEC)
    assert cli.main(["synth", "--spec", spec, "--seed", "3", "--out", str(root / "data")]) == 0
    return root


def _config(root, name, **overrides) -> str:
    raw = {"dataset": str(root / "data" / "manifest.json"), "regime": REGIMES,
           "seeds": [0, 1]}
    raw.update(overrides)
    return _write_json(root / f"{name}.json", raw)


@pytest.fixture(scope="module")
def jobs1(dataset):
    out = dataset / "jobs1"
    assert cli.main(["run", "--config", _config(dataset, "base"), "--out", str(out)]) == 0
    return out


def test_synth_run_report_round_trip(jobs1, capsys):
    capsys.readouterr()
    assert cli.main(["report", str(jobs1 / "results.json")]) == 0
    table = capsys.readouterr().out.splitlines()
    cells = ["single_cross_session|closed", "single_cross_session|open",
             "single_session|closed", "single_session|open"]
    assert len(table) == 1 + len(cells)
    assert [row.split()[1:3] for row in table[1:]] == [c.split("|") for c in cells]
    payload = json.loads((jobs1 / "results.json").read_text())
    assert sorted(payload["results"]) == cells
    assert len((jobs1 / "results.csv").read_text().splitlines()) == 1 + len(cells)


def test_results_identical_across_jobs(dataset, jobs1):
    out = dataset / "jobs2"
    argv = ["run", "--config", _config(dataset, "base"), "--out", str(out), "--jobs", "2"]
    assert cli.main(argv) == 0
    for name in ("results.json", "results.csv"):
        assert (out / name).read_bytes() == (jobs1 / name).read_bytes()


def _assert_clean_failure(capsys, code, expected):
    err = capsys.readouterr().err
    assert code == expected
    assert err.startswith("ecgbench: error:")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("payload", [
    {"schema_version": 1},
    {"schema_version": 1, "results": {"single_session|closed": {"counts": {}}}},
    {"schema_version": 1, "results": {"single_session": {"metrics": {}}}},
    [1, 2],
    {"schema_version": 2, "results": {}},
    NOT_UTF8,
    NOT_JSON,
], ids=["no_results", "no_metrics", "key_without_setting", "not_an_object",
        "schema_version_2", "not_utf8", "not_json"])
def test_report_on_malformed_results_exits_2(tmp_path, capsys, payload):
    # The bad file is named, since a report may read several.
    ok = _results_file(tmp_path / "ok.json", {"single_session|closed": 0.5})
    path = _write_json(tmp_path / "results.json", payload)
    err = _assert_clean_failure(capsys, cli.main(["report", ok, path]), 2)
    assert err.count("\n") == 1
    assert f"error: {path}: " in err


@pytest.mark.parametrize("overrides", [
    {"embedder": {"target_len": 1}},
    {"embedder": {"kind": "mlp", "target_len": 7}},
    {"bogus": 1},
    {"evaluation": {"metric": "cosine", "bogus": True}},
    {"segmentation": {"mode": "blind", "window_s": 4.0, "stride_s": 2.0}},
    {"dataset": {"kind": "synthetic", "preset": "nope"}},
    {"preprocess": {"filter": {"order": 9}}},
    {"regime": {"name": "cross_session", "enroll_session": "s0", "probe_session": "s0"}},
    {"regime": {"name": "cross_session", "enroll_session": 0, "probe_session": "s1"}},
    {"embedder": {"kind": "mlp", "augment": {
        "multiplier": 1, "ops": [{"kind": "amplitude_scale", "scale_low": "x"}]}}},
    {"embedder": {"kind": "mlp", "augment": {"multiplier": 1, "ops": 5}}},
    {"preprocess": {"filter": {"kind": "median", "window_len": 5}}},
    {"preprocess": {"filter": {"phase_mode": "causal"}}},
    {"preprocess": {"filter": {"cut_hz": 0.5}}},
    {"preprocess": {"filter": {"low_hz": float("nan")}}},
    {"regime": {"names": []}},
    NOT_UTF8,
    NOT_JSON,
    b'{"seeds": [' + b"1" * 5000 + b"]}",
    {"embedder": {"target_len": 10**13}},
    {"embedder": {"kind": "mlp", "hidden_dim": 10**9}},
    {"embedder": {"kind": "mlp", "epochs": 10**12}},
    {"evaluation": {"metric": "euclidean"}},
    {"embedder": {"kind": "mlp", "augment": {"multiplier": 2, "ops": []}}},
    {"embedder": {"kind": "mlp", "augment": {"ops": [{"kind": "amplitude_scale"}]}}},
], ids=["target_len_1", "mlp_target_len_7", "unknown_key", "unknown_nested_key",
        "blind_overlap_single_session", "unknown_preset", "filter_order_9",
        "cross_session_one_session", "session_not_a_string", "scale_low_not_a_number",
        "ops_not_a_list", "deleted_filter_kind", "deleted_phase_mode",
        "deleted_filter_key", "nan_low_hz", "no_names", "not_utf8",
        "not_json", "integer_past_the_digit_limit", "target_len_huge", "hidden_dim_huge",
        "epochs_huge", "deleted_metric", "deleted_augment_multiplier", "deleted_augment_op"])
def test_bad_config_exits_2(dataset, capsys, overrides):
    if isinstance(overrides, bytes):
        config = _write_json(dataset / "bad.json", overrides)
    else:
        config = _config(dataset, "bad", **overrides)
    err = _assert_clean_failure(capsys, cli.main(["validate", "--config", config]), 2)
    assert err.count("\n") == 1
    if isinstance(overrides, bytes):
        assert err.startswith(f"ecgbench: error: config: {config}: ")
    out = dataset / "bad_config"
    code = cli.main(["run", "--config", config, "--out", str(out)])
    assert _assert_clean_failure(capsys, code, 2) == err
    assert not out.exists()


def _session(**kw) -> dict:
    return dict(SPEC, sessions=[{"session_id": "s0", **kw}])


@pytest.mark.parametrize("spec, path", [
    ([SPEC], None),
    (dict(SPEC, sessions=["s0"]), None),
    (_session(noise_sgima=0.03), None),
    (dict(SPEC, fs=float("inf")), None),
    (dict(SPEC, duration_s=0.0), None),
    (dict(SPEC, n_subjects=2.7), None),
    (dict(SPEC, sessions=[{"session_id": 7}]), None),
    (NOT_UTF8, None),
    (NOT_JSON, None),
    (_session(noise_sigma=-1), "spec.sessions[0].noise_sigma"),
    (_session(morphology_drift=-0.1), "spec.sessions[0].morphology_drift"),
    (_session(amplitude_scale=0), "spec.sessions[0].amplitude_scale"),
    # No spec here is rendered: a value past a bound fails before anything is
    # built, so a size that would exhaust memory is safe to pass.
    (dict(SPEC, records_per_session=0), "spec.records_per_session"),
    (_session(day_index=-1), "spec.sessions[0].day_index"),
    (dict(SPEC, duration_s=1e12), "spec.duration_s"),
    (dict(SPEC, duration_s=0.001), "spec.duration_s"),
    (dict(SPEC, fs=1e300, duration_s=1e-299), "spec.fs"),
    (_session(noise_sigma=1e308), "spec.sessions[0].noise_sigma"),
    (_session(amplitude_scale=1e308), "spec.sessions[0].amplitude_scale"),
    (_session(baseline_freq=125.0), "spec.sessions[0].baseline_freq"),
    (_session(baseline_freq=-1e308), "spec.sessions[0].baseline_freq"),
    (dict(SPEC, n_subjects=synth.MAX_SUBJECTS + 1), "spec.n_subjects"),
    (dict(SPEC, sessions=[{"session_id": "s0"}, {"session_id": "s0"}]),
     "spec.sessions[1].session_id"),
], ids=["spec_not_an_object", "session_not_an_object", "unknown_session_key",
        "infinite_fs", "zero_duration", "fractional_subjects", "session_id_not_a_string",
        "not_utf8", "not_json", "negative_noise_sigma", "negative_morphology_drift",
        "zero_amplitude_scale", "no_record_per_session", "negative_day_index",
        "duration_past_the_budget", "record_of_no_sample", "fs_past_the_budget",
        "noise_sigma_past_float32", "amplitude_scale_past_float32",
        "baseline_freq_at_nyquist", "negative_baseline_freq", "subjects_past_the_budget",
        "duplicate_session_id"])
def test_bad_synth_spec_exits_2(tmp_path, capsys, spec, path):
    spec_path = _write_json(tmp_path / "spec.json", spec)
    code = cli.main(["synth", "--spec", spec_path, "--out", str(tmp_path / "data")])
    err = _assert_clean_failure(capsys, code, 2)
    assert err.count("\n") == 1
    if isinstance(spec, bytes):
        assert err.startswith(f"ecgbench: error: FormatMismatch: {spec_path}: ")
    if path is not None:
        assert err.startswith(f"ecgbench: error: ConfigError: {path} ")
    assert not (tmp_path / "data").exists()


def test_synth_spec_below_one_sample_per_beat_exits_2(tmp_path):
    # At 0.5 Hz a beat rounds to 0 samples: the generator's beat loop would
    # never advance, so the timeout turns a hang into a failure.
    spec = _write_json(tmp_path / "spec.json", {
        "n_subjects": 2, "sessions": [{"session_id": "s0"}], "duration_s": 60, "fs": 0.5})
    proc = subprocess.run(
        [sys.executable, "-m", "ecgbench", "synth", "--spec", spec,
         "--out", str(tmp_path / "data")],
        env=_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == ("ecgbench: error: ConfigError: "
                           "spec.fs 0.5 Hz leaves the shortest beat without a sample\n")
    assert not (tmp_path / "data").exists()


def test_synth_spec_drift_that_can_reorder_the_waves_exits_2(tmp_path, capsys):
    # From drift 0.6 on, a P center can reach a Q center. Unchecked, rendering
    # then fails midway: 8 of 20 datasets of 30 subjects at drift 0.8.
    spec = _write_json(tmp_path / "spec.json", dict(SPEC, sessions=[
        {"session_id": "s0", "morphology_drift": 0.6}]))
    code = cli.main(["synth", "--spec", spec, "--out", str(tmp_path / "data")])
    assert _assert_clean_failure(capsys, code, 2) == (
        "ecgbench: error: ConfigError: spec.sessions[0].morphology_drift must be less "
        "than 0.6, got 0.6\n")
    assert not (tmp_path / "data").exists()


def _results_file(path, means) -> str:
    """A results file whose cells (key -> mean) hold that mean for every metric."""
    path.parent.mkdir(exist_ok=True)
    return _write_json(path, {"schema_version": cli.SCHEMA_VERSION, "results": {
        key: {"metrics": {m: {"mean": mean, "std": 0.0} for m in METRIC_FIELDS}}
        for key, mean in means.items()}})


def test_report_prints_each_file_given_even_with_one_basename(tmp_path, capsys):
    a = _results_file(tmp_path / "A" / "results.json", {"single_session|closed": 0.25})
    b = _results_file(tmp_path / "B" / "results.json",
                      {"single_cross_session|closed": 0.5})
    assert cli.main(["report", a, b, a]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:3] for row in rows] == [
        [a, "single_session", "closed"], [b, "single_cross_session", "closed"],
        [a, "single_session", "closed"]]


def _delta_lines(capsys, a, b) -> list:
    assert cli.main(["report", a, b, "--delta", a, b]) == 0
    out = capsys.readouterr().out
    return out[out.index("\ndelta"):].splitlines()[1:]


def _deltas(value: str) -> str:
    return " ".join(f"{m}={value}" for m in METRIC_FIELDS)


def test_report_delta_pairs_shared_cells(tmp_path, capsys):
    a = _results_file(tmp_path / "a.json", {
        "single_session|closed": 0.25, "single_session|open": 0.5,
        "ss_long_term|closed": 0.0})
    b = _results_file(tmp_path / "b.json", {
        "single_session|closed": 0.75, "single_session|open": 0.25})
    assert _delta_lines(capsys, a, b) == [
        f"delta ({b} - {a}):",
        f"  single_session|closed vs single_session|closed: {_deltas('+0.5000')}",
        f"  single_session|open vs single_session|open: {_deltas('-0.2500')}"]


def test_report_delta_pairs_the_one_cell_of_each_file(tmp_path, capsys):
    # How the Random Split Fallacy comparison is printed: one regime per run.
    a = _results_file(tmp_path / "a.json", {"single_session|closed": 0.75})
    b = _results_file(tmp_path / "b.json", {"single_cross_session|closed": 0.5})
    assert _delta_lines(capsys, a, b) == [
        f"delta ({b} - {a}):",
        f"  single_session|closed vs single_cross_session|closed: {_deltas('-0.2500')}"]


def test_report_delta_without_comparable_cells_exits_2(tmp_path, capsys):
    a = _results_file(tmp_path / "a.json", {"single_session|closed": 0.5,
                                            "single_session|open": 0.5})
    b = _results_file(tmp_path / "b.json", {"single_cross_session|closed": 0.5})
    code = cli.main(["report", a, b, "--delta", a, b])
    assert _assert_clean_failure(capsys, code, 2) == (
        "ecgbench: error: delta: no comparable regime cells\n")


def _diverging_config(dataset) -> str:
    return _config(dataset, "diverge", regime="single_cross_session", seeds=[0],
                   embedder={"kind": "mlp", "lr": 1e100, "epochs": 2})


def test_diverging_mlp_exits_1_without_output(dataset, capsys):
    out = dataset / "diverge"
    code = cli.main(["run", "--config", _diverging_config(dataset), "--out", str(out)])
    assert "NonFiniteModel" in _assert_clean_failure(capsys, code, 1)
    assert os.listdir(out) == []


def test_range_too_short_to_filter_exits_1(dataset, capsys):
    # A range is filtered on its own samples, so one shorter than the filter
    # can take fails on its own length: 0.1 s is 25 samples at 250 Hz, and the
    # default order-3 Butterworth needs more than 39.
    config = _config(dataset, "short_range", regime={
        "name": "custom_split", "enroll_range": [0.0, 0.1], "probe_range": [10.0, 18.0]})
    out = dataset / "short_range"
    code = cli.main(["run", "--config", config, "--out", str(out)])
    assert _assert_clean_failure(capsys, code, 1) == (
        "ecgbench: error: evaluation: SignalTooShort: "
        "zero_phase needs more than 39 samples, got 25\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
def test_probe_range_past_record_end_exits_1(dataset, capsys, jobs):
    config = _config(dataset, "range", regime={
        "name": "custom_split", "enroll_range": [0.0, 8.0], "probe_range": [10.0, 25.0]})
    out = dataset / f"range_jobs{jobs}"
    code = cli.main(["run", "--config", config, "--out", str(out), "--jobs", jobs])
    assert _assert_clean_failure(capsys, code, 1) == (
        "ecgbench: error: evaluation: RangeOutOfBounds: range (10.0, 25.0) outside record\n")
    assert os.listdir(out) == []


def _broken_manifest(dataset, tmp_path, case) -> str:
    """The module dataset's manifest with its first record broken as named."""
    manifest = json.loads((dataset / "data" / "manifest.json").read_text())
    records = manifest["records"]
    for record in records:
        record["path"] = str(dataset / "data" / record["path"])
    first = records[0]
    if case == "f32le_without_fs":
        del first["fs"]
    elif case == "missing_record":
        first["path"] = str(tmp_path / "gone.f32")
    elif case == "non_finite":
        samples = np.fromfile(first["path"], dtype="<f4")
        samples[1000:1100] = np.nan
        first["path"] = str(tmp_path / "nan.f32")
        samples.tofile(first["path"])
    elif case == "csv_not_utf8":
        first.update(format="csv", path=str(tmp_path / "binary.csv"))
        (tmp_path / "binary.csv").write_bytes(bytes(range(128, 256)))
    elif case == "wfdb_header_not_utf8":
        first.update(format="wfdb", path=str(tmp_path / "binary"))
        (tmp_path / "binary.hea").write_bytes(bytes(range(128, 256)))
    elif case == "fs_infinite":
        first["fs"] = float("inf")
    elif case == "fs_nan":
        first["fs"] = float("nan")
    elif case == "subject_not_a_string":
        first["subject"] = 7
    elif case == "wfdb_fs_nan":
        samples = np.fromfile(first["path"], dtype="<f4")
        (tmp_path / "nan_fs.dat").write_bytes(np.round(samples * 200).astype("<i2").tobytes())
        (tmp_path / "nan_fs.hea").write_text(f"nan_fs 1 nan {samples.size}\nnan_fs.dat 16 200\n")
        first.update(format="wfdb", path=str(tmp_path / "nan_fs"))
    elif case == "integer_past_the_digit_limit":
        first["record_index"] = "HUGE"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest).replace('"HUGE"', "1" * 5000))
        return str(path)
    else:
        path = tmp_path / "manifest.json"
        path.write_bytes(json.dumps(manifest).encode() + bytes(range(128, 256)))
        return str(path)
    return _write_json(tmp_path / "manifest.json", manifest)


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
@pytest.mark.parametrize("case, error", [
    ("f32le_without_fs", "SchemaError: records[0]: fs is required for format 'f32le'"),
    ("missing_record", "FileNotFoundError: "),
    ("non_finite", "NonFiniteSamples: "),
    ("csv_not_utf8", "FormatMismatch: {tmp}/binary.csv: not UTF-8 text: "),
    ("wfdb_header_not_utf8", "FormatMismatch: {tmp}/binary.hea: not UTF-8 text: "),
    ("manifest_not_utf8", "FormatMismatch: {tmp}/manifest.json: not UTF-8 text: "),
    ("fs_infinite", "SchemaError: records[0].fs must be finite, got inf"),
    ("fs_nan", "SchemaError: records[0].fs must be finite, got nan"),
    ("subject_not_a_string", "SchemaError: records[0].subject must be a string, got 7"),
    ("integer_past_the_digit_limit", "SchemaError: manifest is not valid JSON: "),
    ("wfdb_fs_nan", "MalformedHeaderLine: fs must be positive and finite, got nan"),
], ids=["f32le_without_fs", "missing_record", "non_finite", "csv_not_utf8",
        "wfdb_header_not_utf8", "manifest_not_utf8", "fs_infinite", "fs_nan",
        "subject_not_a_string", "integer_past_the_digit_limit", "wfdb_fs_nan"])
def test_bad_dataset_exits_2_without_output(dataset, tmp_path, capsys, jobs, case, error):
    config = _write_json(tmp_path / "config.json", {
        "dataset": _broken_manifest(dataset, tmp_path, case), "regime": REGIMES,
        "seeds": [0, 1]})
    out = tmp_path / "out"
    code = cli.main(["run", "--config", config, "--out", str(out), "--jobs", jobs])
    err = _assert_clean_failure(capsys, code, 2)
    assert err.startswith(f"ecgbench: error: dataset: {error.format(tmp=tmp_path)}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("transition_hz, rate", [
    (1e-300, None), (5e-324, None), (None, None), (2.0, 1e300),
], ids=["transition_hz_1e-300", "transition_hz_denormal", "one_tap_past_the_budget",
        "fs_huge"])
def test_fir_past_the_tap_budget_exits_2_without_output(dataset, tmp_path, capsys,
                                                        transition_hz, rate):
    # Unchecked, np.arange(round(3.3 fs / transition_hz)) raised a ValueError
    # with a traceback; the length is checked before any array is made.
    manifest = json.loads((dataset / "data" / "manifest.json").read_text())
    rate = float(rate or manifest["records"][0]["fs"])
    for record in manifest["records"]:
        record["path"] = str(dataset / "data" / record["path"])
        record["fs"] = rate
    if transition_hz is None:
        transition_hz = 3.3 * rate / (dsp.MAX_FIR_TAPS + 1)
    config = _write_json(tmp_path / "config.json", {
        "dataset": _write_json(tmp_path / "manifest.json", manifest), "regime": REGIMES,
        "seeds": [0], "preprocess": {"filter": {"kind": "fir_bandpass",
                                                "transition_hz": transition_hz}}})
    out = tmp_path / "out"
    code = cli.main(["run", "--config", config, "--out", str(out)])
    assert _assert_clean_failure(capsys, code, 2) == (
        f"ecgbench: error: dataset: FilterTooLong: fir_bandpass of transition_hz "
        f"{transition_hz} at {rate} Hz needs {3.3 * rate / transition_hz:.3g} taps, "
        f"past the budget of {dsp.MAX_FIR_TAPS}\n")
    assert not out.exists()


def _run_default_filter_at(dataset, tmp_path, rate):
    """`ecgbench run` in a subprocess on the dataset with every record at fs rate."""
    manifest = json.loads((dataset / "data" / "manifest.json").read_text())
    for record in manifest["records"]:
        record["path"] = str(dataset / "data" / record["path"])
        record["fs"] = rate
    config = _write_json(tmp_path / "config.json", {
        "dataset": _write_json(tmp_path / "manifest.json", manifest), "regime": REGIMES,
        "seeds": [0]})
    return subprocess.run(
        [sys.executable, "-m", "ecgbench", "run", "--config", config,
         "--out", str(tmp_path / "out")],
        env=_env(), capture_output=True, text=True, timeout=120)


def test_unstable_default_filter_exits_2_in_one_line(dataset, tmp_path):
    # At fs 1e300 the default band-pass design is unstable. Its reference
    # response overflowed, and numpy's warnings reached stderr before the error,
    # which an in-process run would not show: pytest records warnings.
    proc = _run_default_filter_at(dataset, tmp_path, 1e300)
    assert proc.returncode == 2
    assert proc.stderr == ("ecgbench: error: dataset: BandOutOfRange: design produced "
                           "an unstable section (band too extreme)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rate", [1e308, 1.7e308])
def test_overflowing_fs_exits_2_in_one_line(dataset, tmp_path, rate):
    # Where 2 fs overflows, the poles were NaN and the cascade empty, which
    # passed the stability check: four numpy warnings, then exit 1 at evaluation.
    proc = _run_default_filter_at(dataset, tmp_path, rate)
    assert proc.returncode == 2
    assert proc.stderr == (f"ecgbench: error: dataset: BandOutOfRange: design produced "
                           f"non-finite poles at {rate} Hz\n")
    assert not (tmp_path / "out").exists()


def test_non_finite_record_names_its_first_bad_sample(dataset, tmp_path, capsys):
    # Unchecked, the NaNs would spread through the filter over the whole
    # record, the detector would find no peak, and the run would drop the
    # subject without a word.
    config = _write_json(tmp_path / "config.json", {
        "dataset": _broken_manifest(dataset, tmp_path, "non_finite"),
        "regime": REGIMES, "seeds": [0]})
    code = cli.main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert _assert_clean_failure(capsys, code, 2) == (
        f"ecgbench: error: dataset: NonFiniteSamples: {tmp_path / 'nan.f32'}: record "
        f"sub000/s0/0/0, channel 0: sample 1000 is nan (100 non-finite)\n")


def _broken_record(dataset, tmp_path, case) -> str:
    """The module dataset's manifest with its first record's file or rate
    broken as named. The WFDB records hold two signals of the record's
    samples and select signal 1, whose gain is the one named."""
    manifest = json.loads((dataset / "data" / "manifest.json").read_text())
    for record in manifest["records"]:
        record["path"] = str(dataset / "data" / record["path"])
    first = manifest["records"][0]
    samples = np.fromfile(first["path"], dtype="<f4")
    if case == "f32le_truncated":
        first["path"] = str(tmp_path / "truncated.f32")
        (tmp_path / "truncated.f32").write_bytes(samples.tobytes() + b"\x00\x00")
    elif case == "csv_not_numeric":
        cells = [repr(float(v)) for v in samples]
        cells[2] = "potato"
        first.update(format="csv", path=str(tmp_path / "bad.csv"))
        (tmp_path / "bad.csv").write_text("\n".join(cells) + "\n")
    elif case in ("wfdb_gain_nan", "wfdb_gain_inf"):
        gain = case.rsplit("_", 1)[1]
        name = f"gain_{gain}"
        digital = np.round(samples * 200).astype("<i2")
        (tmp_path / f"{name}.dat").write_bytes(np.repeat(digital, 2).tobytes())
        (tmp_path / f"{name}.hea").write_text(
            f"{name} 2 250 {samples.size}\n{name}.dat 16 200\n{name}.dat 16 {gain}\n")
        first.update(format="wfdb", path=str(tmp_path / name), channel=1)
        del first["fs"]
    else:
        first["fs"] = 1e-300
    return _write_json(tmp_path / "manifest.json", manifest)


# The record-file half of the bad-input sweep. Unchecked, a truncated f32le
# file runs without its partial last sample (exit 0), and an infinite WFDB gain
# (a flat channel) or an fs the filter cannot hold fails the evaluation (exit 1).
@pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
@pytest.mark.parametrize("case, error", [
    ("f32le_truncated", "TruncatedData: {tmp}/truncated.f32: f32le file of "),
    ("csv_not_numeric", "FormatMismatch: {tmp}/bad.csv:3: non-numeric cell 'potato'\n"),
    ("wfdb_gain_nan", "NonFiniteSamples: {tmp}/gain_nan: record sub000/s0/0/0, "
                      "channel 0: sample 0 is nan"),
    ("wfdb_gain_inf", "MalformedHeaderLine: {tmp}/gain_inf.hea: signal 1 adc gain "
                      "must be finite, got inf\n"),
    ("fs_below_the_band", "BandOutOfRange: band 0.5-40.0 Hz outside (0, 5e-301) Hz\n"),
], ids=["f32le_truncated", "csv_not_numeric", "wfdb_gain_nan", "wfdb_gain_inf",
        "fs_below_the_band"])
def test_bad_record_file_exits_2_without_output(dataset, tmp_path, capsys, jobs, case,
                                                 error):
    config = _write_json(tmp_path / "config.json", {
        "dataset": _broken_record(dataset, tmp_path, case), "regime": REGIMES,
        "seeds": [0, 1]})
    out = tmp_path / "out"
    code = cli.main(["run", "--config", config, "--out", str(out), "--jobs", jobs])
    err = _assert_clean_failure(capsys, code, 2)
    assert err.startswith(f"ecgbench: error: dataset: {error.format(tmp=tmp_path)}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
@pytest.mark.parametrize("case, error", [
    ("non_finite", "NonFiniteSamples: {path}: record sub000/s0/0/0, channel 0: "
                   "sample 0 is nan ("),
    ("deleted", "FileNotFoundError: [Errno 2] No such file or directory: '{path}'"),
], ids=["non_finite", "deleted"])
def test_record_changed_after_the_check_exits_1_without_output(
        dataset, tmp_path, monkeypatch, capsys, jobs, case, error):
    # The run reads each record file again where it prepares it, so a file
    # that changes after loading checked it fails the evaluation.
    manifest = json.loads((dataset / "data" / "manifest.json").read_text())
    for record in manifest["records"]:
        record["path"] = str(dataset / "data" / record["path"])
    path = tmp_path / "first.f32"
    shutil.copyfile(manifest["records"][0]["path"], path)
    manifest["records"][0]["path"] = str(path)
    load_dataset = regimes.load_dataset

    def change_after_loading(manifest_path):
        loaded = load_dataset(manifest_path)
        if case == "deleted":
            path.unlink()
        else:
            np.full(100, np.nan, dtype="<f4").tofile(path)
        return loaded

    monkeypatch.setattr(regimes, "load_dataset", change_after_loading)
    config = _write_json(tmp_path / "config.json", {
        "dataset": _write_json(tmp_path / "manifest.json", manifest), "regime": REGIMES,
        "seeds": [0, 1]})
    out = tmp_path / "out"
    code = cli.main(["run", "--config", config, "--out", str(out), "--jobs", jobs])
    err = _assert_clean_failure(capsys, code, 1)
    assert err.startswith(f"ecgbench: error: evaluation: {error.format(path=path)}")
    assert err.count("\n") == 1
    assert os.listdir(out) == []


def _config_at_90_hz(tmp_path, **overrides) -> str:
    spec = _write_json(tmp_path / "spec.json", dict(SPEC, fs=90.0))
    assert cli.main(["synth", "--spec", spec, "--out", str(tmp_path / "data")]) == 0
    return _write_json(tmp_path / "config.json", dict({
        "dataset": str(tmp_path / "data" / "manifest.json"), "regime": REGIMES,
        "seeds": [0]}, **overrides))


def test_detector_below_100_hz_exits_2_without_output(tmp_path, capsys):
    # The default 0.5-40 Hz band fits at 90 Hz; the detector's floor does not.
    out = tmp_path / "out"
    code = cli.main(["run", "--config", _config_at_90_hz(tmp_path), "--out", str(out)])
    assert _assert_clean_failure(capsys, code, 2) == (
        "ecgbench: error: dataset: SamplingRateTooLow: "
        "detector needs fs >= 100 Hz, got 90.0\n")
    assert not out.exists()


def test_blind_segmentation_below_100_hz_runs(tmp_path, capsys):
    # The floor belongs to the detector, which blind windows do not use.
    config = _config_at_90_hz(tmp_path, segmentation={
        "mode": "blind", "window_s": 1.0, "stride_s": 1.0})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["results.csv", "results.json"]


@pytest.mark.parametrize("segmentation", [
    {"pre_s": 0.001, "post_s": 0.001},
    {"mode": "blind", "window_s": 0.001, "stride_s": 0.001},
], ids=["beat", "blind"])
def test_window_under_two_samples_exits_1_without_output(dataset, capsys, segmentation):
    config = _config(dataset, "short", segmentation=segmentation)
    out = dataset / f"short_{segmentation.get('mode', 'beat')}"
    code = cli.main(["run", "--config", config, "--out", str(out)])
    err = _assert_clean_failure(capsys, code, 1)
    assert err.startswith("ecgbench: error: evaluation: WindowTooShort: ")
    assert err.count("\n") == 1
    assert os.listdir(out) == []


def test_first_failing_cell_reported_at_any_jobs(dataset, capsys):
    # The diverging cell comes first. The warm-up at --jobs 2 meets the errors
    # of the later cells first, and must not report them in its place.
    config = _config(dataset, "failures", regime=[
        "single_cross_session", "ss_short_term",
        {"name": "custom_split", "enroll_range": [0.0, 8.0], "probe_range": [10.0, 25.0]}],
        embedder={"kind": "mlp", "lr": 1e100, "epochs": 2})
    errors = []
    for jobs in ("1", "2"):
        out = dataset / f"failures_jobs{jobs}"
        code = cli.main(["run", "--config", config, "--out", str(out), "--jobs", jobs])
        errors.append(_assert_clean_failure(capsys, code, 1))
    assert "NonFiniteModel" in errors[0]
    assert errors[1] == errors[0]


def _never(*args, **kwargs):
    raise AssertionError("evaluated")


@pytest.mark.parametrize("case", ["out_is_a_file", "results_json_is_a_directory"])
def test_unusable_out_exits_2_before_evaluating(dataset, tmp_path, monkeypatch, capsys, case):
    monkeypatch.setattr(cli, "_warm_store", _never)
    monkeypatch.setattr(cli, "run_evaluation", _never)
    out = tmp_path / "out"
    if case == "out_is_a_file":
        out.write_text("kept\n")
        error = f"FileExistsError: [Errno 17] File exists: '{out}'"
    else:
        (out / "results.json").mkdir(parents=True)
        error = f"IsADirectoryError: [Errno 21] Is a directory: '{out / 'results.json'}'"
    code = cli.main(["run", "--config", _config(dataset, "base"), "--out", str(out)])
    assert _assert_clean_failure(capsys, code, 2) == f"ecgbench: error: output: {error}\n"
    if case == "out_is_a_file":
        assert out.read_text() == "kept\n"
    else:
        assert os.listdir(out) == ["results.json"] and not os.listdir(out / "results.json")


def test_failed_run_keeps_the_results_it_did_not_write(dataset, jobs1, capsys):
    out = dataset / "kept_results"
    shutil.copytree(jobs1, out)
    # The records last 20 s, so the probe range runs past their end.
    config = _config(dataset, "past_the_end", regime={
        "name": "custom_split", "enroll_range": [0.0, 8.0], "probe_range": [10.0, 25.0]})
    code = cli.main(["run", "--config", config, "--out", str(out)])
    assert _assert_clean_failure(capsys, code, 1).startswith(
        "ecgbench: error: evaluation: RangeOutOfBounds: ")
    for name in ("results.json", "results.csv"):
        assert (out / name).read_bytes() == (jobs1 / name).read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_1_exits_2(dataset, capsys, jobs):
    out = dataset / f"jobs_{jobs}"
    code = cli.main(["run", "--config", _config(dataset, "base"), "--out", str(out),
                     "--jobs", jobs])
    _assert_clean_failure(capsys, code, 2)
    assert not out.exists()


def test_pools_get_no_more_workers_than_tasks(dataset, jobs1, monkeypatch):
    sizes = []

    class InlineExecutor:
        """Records the pool size and runs the tasks in this process."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "_WORKER_STATE", {})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    out = dataset / "jobs16"
    argv = ["run", "--config", _config(dataset, "base"), "--out", str(out), "--jobs", "16"]
    assert cli.main(argv) == 0
    # The warm-up prepares the 8 records of 4 subjects x 2 sessions; then 2 seeds.
    assert sizes == [8, 2]
    for name in ("results.json", "results.csv"):
        assert (out / name).read_bytes() == (jobs1 / name).read_bytes()
    # One seed makes no pool: the warm-up and the seed run in this process.
    one_seed = _config(dataset, "one_seed", seeds=[0])
    for jobs in ("16", "1"):
        out = dataset / f"one_seed_jobs{jobs}"
        assert cli.main(["run", "--config", one_seed, "--out", str(out), "--jobs", jobs]) == 0
    assert sizes == [8, 2]
    for name in ("results.json", "results.csv"):
        assert (dataset / "one_seed_jobs16" / name).read_bytes() == \
            (dataset / "one_seed_jobs1" / name).read_bytes()


def test_batched_pool_results_identical_to_jobs_1(tmp_path, monkeypatch):
    # 16 subjects x 2 sessions give 32 sources, so at --jobs 2 the warm-up pool
    # takes them in batches of 32 // (8 * 2) = 2; the 2 seeds go one by one.
    spec = _write_json(tmp_path / "spec.json", dict(SPEC, n_subjects=16, duration_s=4.0))
    assert cli.main(["synth", "--spec", spec, "--out", str(tmp_path / "data")]) == 0
    config = _config(tmp_path, "cohort", regime="single_cross_session")
    batches = []
    pool_map = concurrent.futures.ProcessPoolExecutor.map

    def recording_map(self, fn, *iterables, chunksize=1, **kwargs):
        batches.append(chunksize)
        return pool_map(self, fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "map", recording_map)
    for jobs in ("1", "2"):
        out = str(tmp_path / f"jobs{jobs}")
        assert cli.main(["run", "--config", config, "--out", out, "--jobs", jobs]) == 0
    assert batches == [2, 1]
    for name in ("results.json", "results.csv"):
        assert (tmp_path / "jobs2" / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes()


def test_no_satisfiable_cell_exits_1_at_jobs_2(dataset, capsys):
    # No plan names a record, so the warm-up pool has no task.
    out = dataset / "unsatisfiable"
    code = cli.main(["run", "--config", _config(dataset, "unsat", regime="ss_short_term"),
                     "--out", str(out), "--jobs", "2"])
    assert "RegimeUnsatisfiable" in _assert_clean_failure(capsys, code, 1)
    assert os.listdir(out) == []


def test_pool_warm_up_prepares_every_source_once_read_only(dataset, jobs1, monkeypatch):
    cfg = validate_config(json.loads((dataset / "base.json").read_text()))
    store = regimes.SegmentStore(cfg, *regimes.load_dataset_from_config(cfg.dataset))
    cli._warm_store(store, cfg.regimes, 2)
    sources = store.sources(cfg.regimes)
    assert len(sources) == len(store.index.records)
    rows = [row for s in sources for row in store.prepare(s).features if row is not None]
    assert rows and not any(row.flags.writeable for row in rows)
    with pytest.raises(ValueError):
        rows[0][0] = 0.0

    def no_second_preparation(*args):
        raise AssertionError(f"prepared again: {args}")

    monkeypatch.setattr(store, "_segment", no_second_preparation)
    record = regimes.run_evaluation(cfg, 0, store=store)
    expected = json.loads((jobs1 / "results.json").read_text())["per_seed"]["0"]
    assert json.loads(json.dumps(record)) == expected


def _cfg(root, name, **overrides):
    _config(root, name, **overrides)
    return validate_config(json.loads((root / f"{name}.json").read_text()))


def _fresh_store(cfg):
    return regimes.SegmentStore(cfg, *regimes.load_dataset_from_config(cfg.dataset))


def _mlp_cfg(root, multiplier, **overrides):
    """A one-seed MLP config that spells out its augment section, whose one
    accepted value has multiplier 0 and no ops."""
    return _cfg(root, "mlp", seeds=[0], embedder={
        "kind": "mlp", "epochs": 2, "augment": {"multiplier": multiplier, "ops": []}},
        **overrides)


def _module_spec_preset(monkeypatch) -> dict:
    """A synthetic dataset config whose preset is the module spec at the
    module dataset's seed: the records that `dataset` wrote, in memory."""
    monkeypatch.setattr(synth, "preset_spec", lambda name: synth.spec_from_dict(SPEC))
    return {"kind": "synthetic", "preset": "fallacy30", "seed": 3}


def _track_recordings(monkeypatch, kind) -> list:
    """Weak references to every Recording that a manifest's record reads
    (ingest.load_record) or a preset's renders (synth.generate_recordings)
    give from now on."""
    refs = []
    if kind == "manifest":
        def tracked_load_record(meta):
            recording = load_record(meta)
            refs.append(weakref.ref(recording))
            return recording

        monkeypatch.setattr(ingest, "load_record", tracked_load_record)
    else:
        generate_recordings = synth.generate_recordings

        def tracked_generate_recordings(*args, **kwargs):
            rendered = generate_recordings(*args, **kwargs)
            refs.extend(weakref.ref(recording) for recording, _ in rendered)
            return rendered

        monkeypatch.setattr(synth, "generate_recordings", tracked_generate_recordings)
    return refs


@pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "jobs2"])
@pytest.mark.parametrize("multiplier", [0], ids=["plain"])
def test_warm_up_frees_recordings_unless_augmenting(dataset, monkeypatch, jobs, multiplier):
    # A preset's store renders a record at each lookup and keeps none, so
    # warm-up leaves no Recording alive.
    renders = _track_recordings(monkeypatch, "preset")
    cfg = _mlp_cfg(dataset, multiplier, dataset=_module_spec_preset(monkeypatch))
    store = _fresh_store(cfg)
    key = next(iter(store.recordings))
    assert store.recordings[key] is not store.recordings[key]
    renders.clear()
    cli._warm_store(store, cfg.regimes, jobs)
    assert len(store._prepared) == len(store.sources(cfg.regimes)) == len(store.recordings) == 8
    assert len(renders) == (8 if jobs == 1 else 0)
    assert all(ref() is None for ref in renders)
    assert regimes.run_evaluation(cfg, 0, store=store) == \
        regimes.run_evaluation(cfg, 0, store=_fresh_store(cfg))
    assert all(ref() is None for ref in renders)


@pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "jobs2"])
def test_failed_preparation_keeps_its_record(dataset, monkeypatch, jobs):
    # A source whose preparation fails stays unprepared but keeps its record
    # in store.recordings: the seed that needs it renders the record again
    # and raises the first error again.
    renders = _track_recordings(monkeypatch, "preset")
    cfg = _cfg(dataset, "preset_range", dataset=_module_spec_preset(monkeypatch), regime={
        "name": "custom_split", "enroll_range": [0.0, 8.0], "probe_range": [10.0, 25.0]})
    store = _fresh_store(cfg)
    cli._warm_store(store, cfg.regimes, jobs)
    first = {key for key in store.recordings if key.session_id == "s0"}
    assert len(first) == 4
    assert sorted(store._prepared) == sorted((key, (0.0, 8.0)) for key in first)
    with pytest.raises(RangeOutOfBounds, match=r"range \(10.0, 25.0\) outside record"):
        regimes.run_evaluation(cfg, 0, store=store)
    assert all(ref() is None for ref in renders)


@pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "jobs2"])
@pytest.mark.parametrize("multiplier", [0], ids=["plain"])
def test_manifest_records_are_read_where_prepared_and_never_kept(
        dataset, monkeypatch, jobs, multiplier):
    # A manifest's records are read at each lookup of store.recordings, so
    # only the process that prepares a record holds it, and only while it
    # prepares it.
    reads = _track_recordings(monkeypatch, "manifest")
    cfg = _mlp_cfg(dataset, multiplier)
    store = _fresh_store(cfg)
    # Loading reads and checks each of the 8 records, and keeps none.
    assert len(reads) == 8 and len(store.recordings) == 8
    assert all(ref() is None for ref in reads)
    cli._warm_store(store, cfg.regimes, jobs)
    assert len(store._prepared) == len(store.sources(cfg.regimes)) == 8
    # At jobs 1 this process prepares, and reads, each record once more; a
    # pool's workers do it in its place.
    assert len(reads) == 8 + (8 if jobs == 1 else 0)
    assert all(ref() is None for ref in reads)
    assert len(store.recordings) == 8
    assert regimes.run_evaluation(cfg, 0, store=store) == \
        regimes.run_evaluation(cfg, 0, store=_fresh_store(cfg))
    assert all(ref() is None for ref in reads)


def test_jobs_1_warm_up_prepares_each_source_once(dataset, jobs1, monkeypatch):
    events = []
    segment, evaluate_cell = regimes.SegmentStore._segment, regimes.evaluate_cell

    def counting_segment(store, record_key, time_range):
        events.append((record_key, time_range))
        return segment(store, record_key, time_range)

    def counting_cell(*args):
        events.append("cell")
        return evaluate_cell(*args)

    monkeypatch.setattr(regimes.SegmentStore, "_segment", counting_segment)
    monkeypatch.setattr(regimes, "evaluate_cell", counting_cell)
    out = dataset / "counted"
    assert cli.main(["run", "--config", _config(dataset, "base"), "--out", str(out)]) == 0
    # The 8 records of 4 subjects x 2 sessions, each prepared once before the
    # first of 4 cells x 2 seeds is evaluated.
    prepared = events[:8]
    assert len(set(prepared)) == 8 and all(time_range is None for _, time_range in prepared)
    assert events[8:] == ["cell"] * 8
    assert (out / "results.json").read_bytes() == (jobs1 / "results.json").read_bytes()


def _manifest_with_flat_record(dataset, tmp_path, subject, session) -> str:
    """The dataset's manifest with the subject's record of the session replaced
    by a lead-off record of zeros."""
    manifest = json.loads((dataset / "data" / "manifest.json").read_text())
    for record in manifest["records"]:
        record["path"] = str(dataset / "data" / record["path"])
        if (record["subject"], record["session"]) == (subject, session):
            flat = np.zeros_like(np.fromfile(record["path"], dtype="<f4"))
            record["path"] = str(tmp_path / "flat.f32")
            flat.tofile(record["path"])
    return _write_json(tmp_path / "manifest.json", manifest)


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
def test_flat_record_is_named_in_the_cells_that_select_it(dataset, tmp_path, jobs):
    # A lead-off record of zeros has no beat to detect; its subject drops out
    # of the cells that select it, which say so.
    config = _write_json(tmp_path / "config.json", {
        "dataset": _manifest_with_flat_record(dataset, tmp_path, "sub002", "s1"),
        "regime": {"names": ["single_session", "single_cross_session"],
                   "settings": ["closed"]},
        "seeds": [0, 1]})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out), "--jobs", jobs]) == 0
    results = json.loads((out / "results.json").read_text())["results"]
    cross = results["single_cross_session|closed"]
    assert "no segments from record sub002/s1/1/0" in cross["warnings"]
    assert cross["counts"]["subjects_used"] == 3
    session = results["single_session|closed"]
    assert not any(w.startswith("no segments") for w in session["warnings"])
    assert session["counts"]["subjects_used"] == 4


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
@pytest.mark.parametrize("embedder", [{"kind": "mlp", "epochs": 2}, {"kind": "morphology"}],
                         ids=["mlp", "morphology"])
def test_subject_without_features_leaves_before_training(dataset, tmp_path, capsys,
                                                         embedder, jobs):
    # Blind windows of a lead-off record are all constant, so they give no
    # feature. Its subject (not the last, whose missing label the MLP would
    # not notice) leaves before the MLP's labels and the training count.
    config = _write_json(tmp_path / "config.json", {
        "dataset": _manifest_with_flat_record(dataset, tmp_path, "sub000", "s0"),
        "segmentation": {"mode": "blind", "window_s": 2.0, "stride_s": 2.0},
        "embedder": embedder,
        "regime": {"name": "single_cross_session", "setting": "closed"},
        "seeds": [0, 1]})
    out = tmp_path / "out"
    code = cli.main(["run", "--config", config, "--out", str(out), "--jobs", jobs])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    cell = json.loads((out / "results.json").read_text())["results"][
        "single_cross_session|closed"]
    assert "no segments from record sub000/s0/0/0" in cell["warnings"]
    assert cell["counts"]["train_subjects"] == cell["counts"]["subjects_used"] == 3


def test_leakage_exits_1_without_output(dataset, monkeypatch, capsys):
    real_map_regime = regimes.map_regime

    def leaky_map_regime(index, cell):
        plan = real_map_regime(index, cell)
        for subject, split in plan.subjects.items():
            plan.subjects[subject] = regimes.SubjectSplit(subject, split.enroll, split.enroll)
        return plan

    monkeypatch.setattr(regimes, "map_regime", leaky_map_regime)
    out = dataset / "leak"
    code = cli.main(["run", "--config", _config(dataset, "leak", regime="single_cross_session"),
                     "--out", str(out)])
    assert "SampleLeakage" in _assert_clean_failure(capsys, code, 1)
    assert os.listdir(out) == []


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def test_jobs_1_never_loads_the_process_pool(dataset):
    # concurrent.futures and the logging it imports cost about 2 MB of RSS,
    # which only a run at --jobs > 1 needs.
    script = (
        "import sys\n"
        "import ecgbench.cli as cli\n"
        "def loaded(): return sorted({'concurrent.futures', 'logging'} & set(sys.modules))\n"
        "found = [loaded()]\n"
        "cli.main(['validate', '--config', sys.argv[1]])\n"
        "found.append(loaded())\n"
        "cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "found.append(loaded())\n"
        "print(found, file=sys.stderr)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, _config(dataset, "base"), str(dataset / "no_pool")],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[[], [], []]\n"


# The layers each command may not load: validate, report and --version read
# JSON only, and synth writes records without the evaluation pipeline.
_LIGHT = ("numpy", "ecgbench.regimes", "ecgbench.synth", "ecgbench.ingest", "ecgbench.dsp")
_SYNTH = tuple(f"ecgbench.{name}" for name in (
    "regimes", "rpeak", "segment", "embed", "biometric", "metrics", "dsp"))


@pytest.mark.parametrize("command, unloaded", [
    (["validate", "--config", "{config}"], _LIGHT),
    (["report", "{results}"], _LIGHT),
    (["--version"], _LIGHT),
    (["synth", "--spec", "{spec}", "--out", "{tmp}/data"], _SYNTH),
], ids=["validate", "report", "version", "synth"])
def test_each_command_loads_only_its_own_layers(dataset, tmp_path, command, unloaded):
    script = (
        "import json, sys\n"
        "import ecgbench.cli as cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n")
    paths = {"config": _config(dataset, "base"), "tmp": tmp_path,
             "results": _results_file(tmp_path / "results.json", {"single_session|closed": 0.25}),
             "spec": _write_json(tmp_path / "spec.json", dict(SPEC, n_subjects=2,
                                                              duration_s=5.0))}
    proc = subprocess.run(
        [sys.executable, "-c", script, *(arg.format(**paths) for arg in command)],
        env=_env(), capture_output=True, text=True, timeout=60)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    assert "ecgbench.core" in modules
    assert sorted(set(unloaded) & set(modules)) == []


def test_entry_point_reports_diverging_mlp_in_one_line(dataset):
    proc = subprocess.run(
        [sys.executable, "-m", "ecgbench", "run", "--config", _diverging_config(dataset),
         "--out", str(dataset / "entry_diverge")],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("ecgbench: error: evaluation: NonFiniteModel: "
                           "non-finite model parameters (did training diverge?)\n")


# --- the benchmark's tracer --------------------------------------------------------
# bench/traced.py replaces module attributes by name (cli.load_dataset_from_config,
# cli.results_payload, rpeak.pan_tompkins, ...) and matches each detection to the
# record whose preprocessed samples object it was given. A rename or a copied
# array there leaves the benchmark without spans or detections, so pin both here.

PEAK_TOLERANCE = 0.05 * 250.0  # 50 ms at the 250 Hz of both datasets below


def _traced_run(span_dir, argv):
    span_dir.mkdir()
    return subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "bench", "traced.py"), str(span_dir), *argv],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def _matched(reference, found) -> int:
    """How many of reference lie within PEAK_TOLERANCE of an entry of found."""
    gaps = np.abs(np.subtract.outer(np.asarray(reference), np.asarray(found)))
    return int(np.sum(gaps.min(axis=1) <= PEAK_TOLERANCE))


def _assert_traced(proc, span_dir, truth=None):
    """Check a traced run and return its span files."""
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    spans = [json.loads(p.read_text()) for p in sorted(span_dir.glob("spans-*.json"))]
    main = [s for s in spans if s["role"] == "main"]
    assert len(main) == 1
    assert {"cli.load_dataset_from_config", "cli.results_payload"} <= set(main[0]["totals"])
    if truth is None:
        truth = {tuple(k): v for k, v in main[0]["truth"]}
    detections = {tuple(k): v for s in spans for k, v in s["detections"]}
    assert truth and set(detections) == set(truth)
    se = sum(_matched(truth[k], d) for k, d in detections.items()) / sum(
        len(truth[k]) for k in detections)
    ppv = sum(_matched(d, truth[k]) for k, d in detections.items()) / sum(
        len(d) for d in detections.values())
    assert se >= 0.999 and ppv >= 0.999, (se, ppv)
    return spans


def _calls(spans, name) -> int:
    return sum(s["totals"][name][0] for s in spans if name in s["totals"])


def test_bench_tracer_sees_every_layer(dataset, jobs1, tmp_path):
    preset = _write_json(tmp_path / "preset.json", {
        "dataset": {"kind": "synthetic", "preset": "fallacy30", "seed": 0},
        "regime": {"name": "single_cross_session", "setting": "closed"}, "seeds": [0]})
    manifest = json.loads((dataset / "data" / "manifest.json").read_text())
    truth = {}
    for e in manifest["records"]:
        peaks = (dataset / "data" / e["path"]).with_suffix(".peaks.json")
        truth[(e["subject"], e["session"], e["day"], e["record_index"])] = \
            json.loads(peaks.read_text())["peaks"]
    # Both traced runs go in the background while the untraced reference of the
    # preset run happens in this process.
    pool = _traced_run(tmp_path / "pool_spans", [
        "run", "--config", _config(dataset, "base"), "--out", str(tmp_path / "pool"),
        "--jobs", "2"])
    preset_run = _traced_run(
        tmp_path / "preset_spans",
        ["run", "--config", preset, "--out", str(tmp_path / "preset")])
    assert cli.main(["run", "--config", preset, "--out", str(tmp_path / "plain")]) == 0
    pool_spans = _assert_traced(pool, tmp_path / "pool_spans", truth)
    # The pool prepares each record once across all its processes.
    assert _calls(pool_spans, "rpeak.pan_tompkins") == len(truth)
    assert _calls(pool_spans, "dsp.preprocess") == len(truth)
    _assert_traced(preset_run, tmp_path / "preset_spans")
    assert (tmp_path / "pool" / "results.json").read_bytes() == \
        (jobs1 / "results.json").read_bytes()
    assert (tmp_path / "preset" / "results.json").read_bytes() == \
        (tmp_path / "plain" / "results.json").read_bytes()

"""Command-line contract: synth -> run -> report, byte-identity across --jobs,
exit code 2 for bad input and 1 for a failed evaluation, never a traceback."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ecgbench import cli, regimes

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


def _write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = _write_json(root / "spec.json", SPEC)
    assert cli.main(["synth", "--spec", spec, "--seed", "3", "--out", str(root / "data")]) == 0
    return root


def _config(dataset, name, **overrides) -> str:
    raw = {"dataset": str(dataset / "data" / "manifest.json"), "regime": REGIMES,
           "seeds": [0, 1]}
    raw.update(overrides)
    return _write_json(dataset / f"{name}.json", raw)


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


@pytest.mark.parametrize("override", ["abc", "-1", "1.5"])
def test_bad_seed_override_exits_2(dataset, monkeypatch, capsys, override):
    monkeypatch.setenv(cli.SEED_ENV, override)
    out = dataset / "bad_seed"
    code = cli.main(["run", "--config", _config(dataset, "base"), "--out", str(out)])
    _assert_clean_failure(capsys, code, 2)
    assert not out.exists()


@pytest.mark.parametrize("payload", [
    {"schema_version": 1},
    {"schema_version": 1, "results": {"single_session|closed": {"counts": {}}}},
    {"schema_version": 1, "results": {"single_session": {"metrics": {}}}},
    [1, 2],
    {"schema_version": 2, "results": {}},
], ids=["no_results", "no_metrics", "key_without_setting", "not_an_object",
        "schema_version_2"])
def test_report_on_malformed_results_exits_2(tmp_path, capsys, payload):
    path = _write_json(tmp_path / "results.json", payload)
    _assert_clean_failure(capsys, cli.main(["report", path]), 2)


@pytest.mark.parametrize("overrides", [
    {"embedder": {"target_len": 1}},
    {"embedder": {"kind": "mlp", "target_len": 7}},
    {"bogus": 1},
    {"evaluation": {"metric": "cosine", "bogus": True}},
    {"segmentation": {"mode": "blind", "window_s": 4.0, "stride_s": 2.0}},
], ids=["target_len_1", "mlp_target_len_7", "unknown_key", "unknown_nested_key",
        "blind_overlap_single_session"])
def test_bad_config_exits_2(dataset, capsys, overrides):
    config = _config(dataset, "bad", **overrides)
    _assert_clean_failure(capsys, cli.main(["validate", "--config", config]), 2)
    out = dataset / "bad_config"
    code = cli.main(["run", "--config", config, "--out", str(out)])
    _assert_clean_failure(capsys, code, 2)
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    [SPEC],
    dict(SPEC, sessions=["s0"]),
    dict(SPEC, sessions=[{"session_id": "s0", "noise_sgima": 0.03}]),
], ids=["spec_not_an_object", "session_not_an_object", "unknown_session_key"])
def test_bad_synth_spec_exits_2(tmp_path, capsys, spec):
    path = _write_json(tmp_path / "spec.json", spec)
    code = cli.main(["synth", "--spec", path, "--out", str(tmp_path / "data")])
    _assert_clean_failure(capsys, code, 2)
    assert not (tmp_path / "data").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_diverging_mlp_exits_1_without_output(dataset, capsys):
    config = _config(dataset, "diverge", regime="single_cross_session", seeds=[0],
                     embedder={"kind": "mlp", "lr": 1e100, "epochs": 2})
    out = dataset / "diverge"
    code = cli.main(["run", "--config", config, "--out", str(out)])
    assert "NonFiniteModel" in _assert_clean_failure(capsys, code, 1)
    assert os.listdir(out) == []


def test_probe_range_past_record_end_exits_1(dataset, capsys):
    config = _config(dataset, "range", regime={
        "name": "custom_split", "enroll_range": [0.0, 8.0], "probe_range": [10.0, 25.0]})
    out = dataset / "range"
    code = cli.main(["run", "--config", config, "--out", str(out)])
    assert "RangeOutOfBounds" in _assert_clean_failure(capsys, code, 1)
    assert os.listdir(out) == []


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


def _env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def test_entry_point_reports_bad_seed_override_without_traceback(dataset):
    proc = subprocess.run(
        [sys.executable, "-m", "ecgbench", "run", "--config", _config(dataset, "base"),
         "--out", str(dataset / "entry")],
        env=_env(ECGBENCH_SEED_OVERRIDE="abc"), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "ECGBENCH_SEED_OVERRIDE" in proc.stderr
    assert "Traceback" not in proc.stderr


# --- the benchmark's tracer --------------------------------------------------------
# bench/traced.py replaces module attributes by name (cli.load_dataset_from_config,
# cli.results_payload, rpeak.pan_tompkins, ...) and matches each detection to the
# record whose preprocessed samples object it was given. A rename or a copied
# array there leaves the benchmark without spans or detections, so pin both here.

PEAK_TOLERANCE = 0.05 * 250.0  # 50 ms at the 250 Hz of both datasets below


def _traced_run(span_dir, argv, **env):
    span_dir.mkdir()
    return subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "bench", "traced.py"), str(span_dir), *argv],
        env=_env(**env), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def _matched(reference, found) -> int:
    """How many of reference lie within PEAK_TOLERANCE of an entry of found."""
    gaps = np.abs(np.subtract.outer(np.asarray(reference), np.asarray(found)))
    return int(np.sum(gaps.min(axis=1) <= PEAK_TOLERANCE))


def _assert_traced(proc, span_dir, truth=None):
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


def test_bench_tracer_sees_every_layer(dataset, jobs1, tmp_path, monkeypatch):
    preset = _write_json(tmp_path / "preset.json", {
        "dataset": {"kind": "synthetic", "preset": "fallacy30", "seed": 0},
        "regime": {"name": "single_cross_session", "setting": "closed"}, "seeds": [0, 1]})
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
        ["run", "--config", preset, "--out", str(tmp_path / "preset")],
        ECGBENCH_SEED_OVERRIDE="0")
    monkeypatch.setenv(cli.SEED_ENV, "0")
    assert cli.main(["run", "--config", preset, "--out", str(tmp_path / "plain")]) == 0
    _assert_traced(pool, tmp_path / "pool_spans", truth)
    _assert_traced(preset_run, tmp_path / "preset_spans")
    assert (tmp_path / "pool" / "results.json").read_bytes() == \
        (jobs1 / "results.json").read_bytes()
    assert (tmp_path / "preset" / "results.json").read_bytes() == \
        (tmp_path / "plain" / "results.json").read_bytes()

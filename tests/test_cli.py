"""Command-line contract: synth -> run -> report, byte-identity across --jobs,
exit code 2 for bad input and 1 for a failed evaluation, never a traceback."""

import json
import os
import subprocess
import sys

import pytest

from ecgbench import cli, regimes

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
], ids=["no_results", "no_metrics", "key_without_setting", "not_an_object"])
def test_report_on_malformed_results_exits_2(tmp_path, capsys, payload):
    path = _write_json(tmp_path / "results.json", payload)
    _assert_clean_failure(capsys, cli.main(["report", path]), 2)


@pytest.mark.parametrize("overrides", [
    {"embedder": {"target_len": 1}},
    {"embedder": {"kind": "mlp", "target_len": 7}},
    {"bogus": 1},
    {"evaluation": {"metric": "cosine", "bogus": True}},
], ids=["target_len_1", "mlp_target_len_7", "unknown_key", "unknown_nested_key"])
def test_bad_config_exits_2(dataset, capsys, overrides):
    config = _config(dataset, "bad", **overrides)
    _assert_clean_failure(capsys, cli.main(["validate", "--config", config]), 2)
    out = dataset / "bad_config"
    code = cli.main(["run", "--config", config, "--out", str(out)])
    _assert_clean_failure(capsys, code, 2)
    assert not out.exists()


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


def test_entry_point_reports_bad_seed_override_without_traceback(dataset):
    env = dict(os.environ, ECGBENCH_SEED_OVERRIDE="abc")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ecgbench", "run", "--config", _config(dataset, "base"),
         "--out", str(dataset / "entry")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "ECGBENCH_SEED_OVERRIDE" in proc.stderr
    assert "Traceback" not in proc.stderr

"""ecgbench benchmark: end-to-end metrics and a traced per-layer breakdown.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --pin SEED [SEED ...]

Run it from the root of a checkout; it drives ``python -m ecgbench`` from the
checkout's ``src/`` as subprocesses, one at a time, in a scratch directory
under ``.bench_work/`` that it removes on exit.

With ``--trace 0`` it times ``validate`` (setup_s), ``synth`` (synth_s) and
repeated untraced ``run``s of the workload (run_s, cpu_s, peak_rss_mb) for
``--seconds``. With ``--trace 1`` it runs ``synth`` and ``run`` under
``bench/traced.py`` and reports per-layer metrics, next to an untraced run
(for the tracing overhead), import timings and the kernel microbenchmarks of
``bench/kernels.py``. Either way it prints every metric by name with its unit,
then one JSON result line.

Every results.json is checked: against the digest pinned in
``bench/digests.json`` for the workload seed when there is one, else against
the first run of this invocation; a traced run must match the untraced one.
A run that exits nonzero or whose results differ fails all of its
(cell, seed) evaluations; ``failed / attempted`` is the error rate.
``--pin`` records the digests of fresh runs at the given seeds, for a change
that alters results on purpose and says why.
"""

import argparse
import bisect
import collections
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(BENCH, "digests.json")
PY = sys.executable

# One BLAS thread per process: the same results and wall time as the default
# (two threads on two cores) at about half the CPU seconds on fallacy30_mlp,
# and no spinning threads competing with the pool workers of --jobs 2.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ENV = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
ENV.pop("ECGBENCH_SEED_OVERRIDE", None)  # it would replace the evaluation seeds

SHORT_ROUNDS = 2  # validate + synth pairs before the runs, and as many after
IMPORT_REPEATS = 3
EVAL_SEEDS = [0, 1, 2, 3, 4]
FS = 250.0  # every preset samples at 250 Hz
PEAK_TOLERANCE_S = 0.05
MIN_SE = MIN_PPV = 0.999
ALL_SETTINGS = ["closed", "open"]

# Why each workload is here is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "aging4_morph": {
        "preset": "aging4", "jobs": 1, "from_disk": False,
        "embedder": {"kind": "morphology"},
        "evaluation": {"metric": "cosine", "template_fusion": "mean"},
        "regimes": ["single_session", "single_cross_session", "ss_long_term",
                    "llo_long_term"],
    },
    "fallacy30_mlp": {
        "preset": "fallacy30", "jobs": 1, "from_disk": False,
        "embedder": {"kind": "mlp", "epochs": 50},
        "evaluation": {"metric": "cosine", "template_fusion": "mean"},
        "regimes": ["single_session", "single_cross_session"],
    },
    "ablation_medoid_j2": {
        "preset": "ablation", "jobs": 2, "from_disk": True,
        "embedder": {"kind": "morphology"},
        "evaluation": {"metric": "pearson", "template_fusion": "representative",
                       "template_size": 40},
        "regimes": ["single_cross_session"],
    },
}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "synth_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def workload_config(workload: dict, seed: int) -> dict:
    if workload["from_disk"]:
        dataset = {"kind": "manifest", "path": "dataset/manifest.json"}
    else:
        dataset = {"kind": "synthetic", "preset": workload["preset"], "seed": seed}
    return {
        "dataset": dataset,
        "embedder": workload["embedder"],
        "evaluation": workload["evaluation"],
        "regime": [{"names": workload["regimes"], "settings": ALL_SETTINGS}],
        "seeds": EVAL_SEEDS,
    }


def evaluations(workload: dict) -> int:
    return len(workload["regimes"]) * len(ALL_SETTINGS) * len(EVAL_SEEDS)


# --- processes -------------------------------------------------------------------


Sample = collections.namedtuple("Sample", "wall cpu rss_mb code")


def timed(argv, cwd) -> Sample:
    """Run argv to completion; wall clock plus the rusage of its process tree."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def ecgbench(*args) -> list:
    return [PY, "-m", "ecgbench", *args]


def traced(span_dir, *args) -> list:
    return [PY, os.path.join(BENCH, "traced.py"), span_dir, *args]


def file_digest(path) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def tree_digest(directory) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(directory, "*"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def load_pins() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


class OutputGate:
    """Compares each results.json with the pinned or first-seen digest."""

    def __init__(self, pinned: str | None, per_run: int):
        self.reference = pinned
        self.per_run = per_run
        self.attempted = 0
        self.failed = 0

    def check(self, sample: Sample, results_path: str) -> bool:
        self.attempted += self.per_run
        digest = file_digest(results_path) if sample.code == 0 else None
        if self.reference is None and digest is not None:
            self.reference = digest
        ok = digest is not None and digest == self.reference
        if not ok:
            self.failed += self.per_run
            print(f"# output gate: exit {sample.code}, results {digest}, "
                  f"expected {self.reference}", file=sys.stderr)
        return ok


# --- phases ----------------------------------------------------------------------


def write_config(work, workload, seed):
    with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(workload_config(workload, seed), fh, indent=2)


def synth_args(workload, seed, out) -> list:
    return ["synth", "--preset", workload["preset"], "--seed", str(seed), "--out", out]


def short_commands(work, workload, seed, walls, trees):
    """Time SHORT_ROUNDS pairs of validate and synth. The first synth tree
    becomes the workload's dataset; every tree's digest goes into ``trees``."""
    for _ in range(SHORT_ROUNDS):
        for key, args in (("setup_s", ["validate", "--config", "config.json"]),
                          ("synth_s", synth_args(workload, seed, "synth-out"))):
            sample = timed(ecgbench(*args), work)
            if sample.code != 0:
                raise RuntimeError(f"ecgbench {args[0]} exited {sample.code}")
            walls[key].append(sample.wall)
        out = os.path.join(work, "synth-out")
        trees.add(tree_digest(out))
        dataset = os.path.join(work, "dataset")
        if os.path.exists(dataset):
            shutil.rmtree(out)
        else:
            os.rename(out, dataset)


def run_args(workload, out) -> list:
    return ["run", "--config", "config.json", "--out", out, "--jobs", str(workload["jobs"])]


def repeat_within(seconds, step) -> list:
    """Call step(i) once, then again while one more call as long as the last
    still ends within ``seconds`` of the first call's start."""
    results = []
    started = last = time.perf_counter()
    while True:
        results.append(step(len(results)))
        now = time.perf_counter()
        if now - started + (now - last) > seconds:
            return results
        last = now


def untraced_run(work, workload, gate, index) -> Sample:
    out = f"out-{index}"
    sample = timed(ecgbench(*run_args(workload, out)), work)
    gate.check(sample, os.path.join(work, out, "results.json"))
    shutil.rmtree(os.path.join(work, out), ignore_errors=True)
    return sample


def end_to_end(work, workload, seed, seconds, gate):
    """Half of the short validate and synth samples come before the runs and
    half after, so a slow minute of a shared machine weighs on them as it
    does on run_s."""
    samples = {"setup_s": [], "synth_s": []}
    trees = set()
    short_commands(work, workload, seed, samples, trees)
    runs = repeat_within(seconds, lambda i: untraced_run(work, workload, gate, i))
    short_commands(work, workload, seed, samples, trees)
    samples.update({"run_s": [s.wall for s in runs], "cpu_s": [s.cpu for s in runs],
                    "peak_rss_mb": [s.rss_mb for s in runs]})
    metrics = {key: statistics.median(samples[key]) for key in END_TO_END_UNITS}
    for key, value in metrics.items():
        values = ", ".join(f"{v:.4g}" for v in samples[key])
        print(f"{key} {value:.6g} {END_TO_END_UNITS[key]} "
              f"(median of {len(samples[key])}: {values})")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, len(trees) == 1


# --- traced phase ----------------------------------------------------------------


def read_spans(span_dir):
    spans = []
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            spans.append(json.load(fh))
    return spans


def total(spans, name, field=1):
    return sum(s["totals"].get(name, [0, 0.0, 0.0])[field] for s in spans)


def counter(spans, name):
    return sum(s["counters"].get(name, 0) for s in spans)


def match_rate(reference, found, tolerance) -> tuple[int, int]:
    """How many of ``reference`` have an entry of ``found`` within tolerance."""
    found = sorted(found)
    hits = 0
    for r in reference:
        i = bisect.bisect_left(found, r - tolerance)
        if i < len(found) and found[i] <= r + tolerance:
            hits += 1
    return hits, len(reference)


def ground_truth(work, workload, run_spans):
    """Synthetic R peaks: as returned by synth.generate_recordings for in-memory
    datasets, from the .peaks.json files synth wrote for on-disk ones."""
    if not workload["from_disk"]:
        return {tuple(k): v for s in run_spans for k, v in s["truth"]}
    with open(os.path.join(work, "dataset", "manifest.json"), "r", encoding="utf-8") as fh:
        entries = json.load(fh)["records"]
    truth = {}
    for e in entries:
        stem = os.path.join(work, "dataset", e["path"][: -len(".f32")])
        with open(stem + ".peaks.json", "r", encoding="utf-8") as fh:
            key = (e["subject"], e["session"], e["day"], e["record_index"])
            truth[key] = json.load(fh)["peaks"]
    return truth


def detector_quality(truth, run_spans, fs):
    detections = {tuple(k): v for s in run_spans for k, v in s["detections"]}
    tol = PEAK_TOLERANCE_S * fs
    se_hit = se_all = ppv_hit = ppv_all = 0
    for key, found in detections.items():
        h, n = match_rate(truth[key], found, tol)
        se_hit, se_all = se_hit + h, se_all + n
        h, n = match_rate(found, truth[key], tol)
        ppv_hit, ppv_all = ppv_hit + h, ppv_all + n
    return se_hit / max(se_all, 1), ppv_hit / max(ppv_all, 1)


def import_times(work):
    """Fresh-interpreter import of ecgbench.cli: total and scipy's share."""
    totals, scipy_totals = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([PY, "-X", "importtime", "-c", "import ecgbench.cli"],
                              cwd=work, env=ENV, capture_output=True, text=True,
                              check=True)
        all_us = scipy_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _cumulative, module = line[len("import time:"):].split("|")
            all_us += int(self_us)
            if module.strip().split(".")[0] == "scipy":
                scipy_us += int(self_us)
        totals.append(all_us / 1e6)
        scipy_totals.append(scipy_us / 1e6)
    return statistics.median(totals), statistics.median(scipy_totals)


def kernel_metrics(work, seed) -> dict:
    proc = subprocess.run([PY, os.path.join(BENCH, "kernels.py"), str(seed)], cwd=work,
                          env=ENV, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_pair(work, workload, gate, index):
    """One untraced and one traced run of the workload; per-layer numbers."""
    plain = untraced_run(work, workload, gate, f"plain-{index}")
    span_dir = os.path.join(work, f"spans-{index}")
    os.mkdir(span_dir)
    out = f"traced-{index}"
    sample = timed(traced(span_dir, *run_args(workload, out)), work)
    if not gate.check(sample, os.path.join(work, out, "results.json")):
        raise RuntimeError(f"traced run exited {sample.code} or changed results.json")
    spans = read_spans(span_dir)
    main = [s for s in spans if s["role"] == "main"]
    evaluation_by_process = [total([s], "regimes.run_evaluation") for s in spans]
    phase_start = main[0]["totals"]["cli.load_dataset_from_config"][4]
    phase_end = main[0]["totals"]["cli.results_payload"][3]
    feature_calls = total(spans, "dsp.resample_fourier", 0)
    distinct = len(set().union(*(s["beat_digests"] for s in spans)))
    layers = {
        "synth.generate_recordings.s": total(spans, "synth.generate_recordings"),
        "ingest.load_dataset.s": total(spans, "ingest.load_dataset"),
        "ingest.bytes_read": counter(spans, "ingest.bytes_read"),
        "dsp.preprocess.s": total(spans, "dsp.preprocess"),
        "dsp.preprocess.calls": total(spans, "dsp.preprocess", 0),
        "rpeak.pan_tompkins.s": total(spans, "rpeak.pan_tompkins"),
        "rpeak.pan_tompkins.calls": total(spans, "rpeak.pan_tompkins", 0),
        "segment.segment_beats.s": total(spans, "segment.segment_beats"),
        "segment.beats": counter(spans, "segment.beats"),
        "dsp.resample_fourier.s": total(spans, "dsp.resample_fourier"),
        "dsp.resample_fourier.calls": feature_calls,
        "dsp.normalize.s": total(spans, "dsp.normalize"),
        "dsp.features.distinct_ratio": distinct / max(feature_calls, 1),
        "embed.mlp_train.s": total(spans, "embed.mlp_train"),
        "embed.mlp_train.rows": counter(spans, "embed.mlp_train.rows"),
        "embed.mlp_embed.s": total(spans, "embed.mlp_embed"),
        "biometric.similarity.calls": total(spans, "biometric.similarity", 0),
        "biometric.similarity.s": total(spans, "biometric.similarity"),
        "biometric.build_template.s": total(spans, "biometric.build_template"),
        "biometric.fuse_probes.s": total(spans, "biometric.fuse_probes"),
        "biometric.score_matrix.s": total(spans, "biometric.score_matrix"),
        "biometric.generate_pairs.s": total(spans, "biometric.generate_pairs"),
        "metrics.s": sum(total(spans, f"metrics.{m}") for m in
                         ("eer", "auc", "dprime", "tar_at_far", "rank_accuracy")),
        "regimes.evaluate_cell.self_s": total(spans, "regimes.evaluate_cell", 2),
        "regimes.map_regime.s": total(spans, "regimes.map_regime"),
        "regimes.SegmentStore.prepare.calls": total(spans, "regimes.SegmentStore.prepare", 0),
        "regimes.run_evaluation.s": max(evaluation_by_process),
        "cli.pool.util": sum(evaluation_by_process)
        / (workload["jobs"] * (phase_end - phase_start)),
        "trace.overhead_s": sample.wall - plain.wall,
    }
    shutil.rmtree(os.path.join(work, out), ignore_errors=True)
    return layers, spans


def per_layer(work, workload, seed, seconds, gate):
    imports = import_times(work)
    span_dir = os.path.join(work, "spans-synth")
    os.mkdir(span_dir)
    synth = timed(traced(span_dir, *synth_args(workload, seed, "dataset")), work)
    if synth.code != 0:
        raise RuntimeError(f"traced ecgbench synth exited {synth.code}")
    pairs = repeat_within(seconds, lambda i: traced_pair(work, workload, gate, i))
    layers = {key: statistics.median(p[0][key] for p in pairs) for key in pairs[0][0]}
    run_spans = pairs[0][1]
    truth = ground_truth(work, workload, run_spans)
    se, ppv = detector_quality(truth, run_spans, FS)
    layers.update({
        "synth.generate_dataset.s": total(read_spans(span_dir), "synth.generate_dataset"),
        "rpeak.calls_per_record": layers["rpeak.pan_tompkins.calls"] / len(truth),
        "rpeak.se": se,
        "rpeak.ppv": ppv,
        "import.s": imports[0],
        "import.scipy.s": imports[1],
    })
    layers.update(kernel_metrics(work, seed))
    layers["error_rate"] = gate.failed / gate.attempted
    for key in sorted(layers):
        print(f"{key} {layers[key]:.6g} {layer_unit(key)}")
    quality_ok = se >= MIN_SE and ppv >= MIN_PPV
    if not quality_ok:
        print(f"# detector quality below {MIN_SE}: se {se}, ppv {ppv}", file=sys.stderr)
    return {k: (v, layer_unit(k)) for k, v in layers.items()}, quality_ok


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.startswith("kernel.") and name.endswith(".bytes"):
        return "bytes_computed"
    if name == "ingest.bytes_read":
        return "bytes"
    if name.endswith((".calls", ".beats", ".rows")):
        return "count"
    return "ratio"


# --- environment -----------------------------------------------------------------


def environment() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ecgbench", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "blas_threads": THREAD_ENV,
        "loadavg": os.getloadavg(),
    }


# --- entry -----------------------------------------------------------------------


def pin(name, workload, seeds):
    pins = load_pins()
    for seed in seeds:
        with tempfile.TemporaryDirectory(dir=work_root()) as work:
            write_config(work, workload, seed)
            if workload["from_disk"]:
                timed(ecgbench(*synth_args(workload, seed, "dataset")), work)
            gate = OutputGate(None, evaluations(workload))
            untraced_run(work, workload, gate, 0)
            if gate.failed:
                raise RuntimeError(f"{name} seed {seed}: run failed")
            pins.setdefault(name, {})[str(seed)] = gate.reference
            print(f"{name} seed {seed}: {gate.reference}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")


def work_root() -> str:
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--pin", type=int, nargs="+", metavar="SEED",
                        help="record the results digests of these workload seeds")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ecgbench", "cli.py")):
        print(f"bench: no ecgbench sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    name, workload = args.workload, WORKLOADS[args.workload]
    if args.pin:
        pin(name, workload, args.pin)
        return 0
    if args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--seed, --seconds and --trace are required")

    print(json.dumps({"environment": environment()}), flush=True)
    pinned = load_pins().get(name, {}).get(str(args.seed))
    gate = OutputGate(pinned, evaluations(workload))
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root())
    try:
        write_config(work, workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, checks_ok = measure(work, workload, args.seed, args.seconds, gate)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"bench: {name}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"error_rate {gate.failed / gate.attempted:.6g} ratio "
          f"({gate.failed} of {gate.attempted} evaluations, "
          f"{'pinned' if pinned else 'first-run'} reference)")
    print(json.dumps({
        "correct": checks_ok and gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: synth, run, report, validate.

Results are written as a schema-versioned JSON file plus a flat CSV mirroring
the benchmark table layout (one row per regime/setting, metric columns as
"mean±std"). Both encode the same repr-exact numbers, and identical runs
produce byte-identical files regardless of --jobs.

Each command imports only the layers it uses, so validate, report and --version
load neither numpy nor the pipeline. The layer calls that the benchmark's tracer
wraps here (generate_dataset, load_dataset_from_config, run_evaluation,
results_payload) are functions of this module.
"""

import argparse
import errno
import functools
import json
import os
import sys

from . import __version__
from .core import METRIC_FIELDS, PRESET_NAMES, RunConfig, read_text, validate_config
from .errors import (ConfigError, EcgBenchError, FormatMismatch, SchemaError,
                     SchemaVersionMismatch)

SCHEMA_VERSION = 1
CSV_HEADER = "regime,setting," + ",".join(METRIC_FIELDS)
RESULTS_FILE_ERRORS = (OSError, FormatMismatch, SchemaError, SchemaVersionMismatch)


def _fail(message: str, code: int) -> int:
    print(f"ecgbench: error: {message}", file=sys.stderr)
    return code


def _read_json(path: str):
    """The JSON value in a UTF-8 file; FormatMismatch names a file that is not.
    json.loads raises a plain ValueError for an integer past Python's digit
    limit, and a JSONDecodeError (a ValueError too) for the rest."""
    try:
        return json.loads(read_text(path))
    except ValueError as exc:
        raise FormatMismatch(f"{path}: {exc}") from None


def generate_dataset(spec, seed: int, out_dir: str):
    from . import synth
    return synth.generate_dataset(spec, seed, out_dir)


def load_dataset_from_config(ds_cfg):
    from . import regimes
    return regimes.load_dataset_from_config(ds_cfg)


def run_evaluation(cfg: RunConfig, seed: int, store, cells):
    from . import regimes
    return regimes.run_evaluation(cfg, seed, store=store, cells=cells)


def cmd_synth(args) -> int:
    from .synth import preset_spec, spec_from_dict
    try:
        spec = spec_from_dict(_read_json(args.spec)) if args.spec else preset_spec(args.preset)
        index, manifest_path = generate_dataset(spec, args.seed, args.out)
    except (OSError, ValueError, FormatMismatch, ConfigError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", 2)
    print(f"wrote {len(index.records)} records and {manifest_path}")
    return 0


def _select_cells(cfg: RunConfig, regime: str | None, setting: str | None):
    cells = cfg.regimes
    if regime is not None:
        wanted = regime.replace("-", "_")
        cells = tuple(c for c in cells if c.name == wanted)
    if setting is not None:
        cells = tuple(c for c in cells if c.setting == setting)
    return cells


def _float_cell(mean: float, std: float) -> str:
    return f"{mean!r}±{std!r}"


def results_payload(cfg: RunConfig, seeds, per_seed_records) -> dict:
    from .regimes import aggregate_runs
    report = aggregate_runs(list(per_seed_records.values()))
    results = {}
    for key in sorted(report.cells):
        cell = report.cells[key]
        results[key] = {
            "metrics": {name: cell[name] for name in METRIC_FIELDS},
            "counts": cell["counts"],
            "warnings": cell["warnings"],
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "ecgbench",
        "tool_version": __version__,
        "config_digest": cfg.digest(),
        "config": cfg.to_dict(),
        "seeds": list(seeds),
        "results": results,
        "per_seed": {str(seed): per_seed_records[seed] for seed in seeds},
    }


def render_csv(payload: dict) -> str:
    lines = [CSV_HEADER]
    for key in sorted(payload["results"]):
        regime, setting = key.split("|")
        cells = payload["results"][key]["metrics"]
        row = [regime, setting] + [
            _float_cell(cells[name]["mean"], cells[name]["std"])
            for name in METRIC_FIELDS
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


_WORKER_STATE: dict = {}


def _init_worker(store, cells):
    _WORKER_STATE["store"] = store
    _WORKER_STATE["cells"] = cells


def _in_worker(fn, task):
    return fn(_WORKER_STATE["store"], _WORKER_STATE["cells"], task)


def _prepare(store, cells, source):
    try:
        return store.prepare(source)
    except EcgBenchError:
        return None


def _evaluate(store, cells, seed: int):
    return run_evaluation(store.cfg, seed, store=store, cells=cells)


def _run_tasks(fn, tasks: list, jobs: int, store, cells) -> list:
    """[fn(store, cells, task) for task in tasks]: in this process at jobs 1 or
    with fewer than two tasks, else over a pool of min(jobs, len(tasks))
    workers that takes them in batches of len(tasks) // (8 * jobs), at least
    1. concurrent.futures loads only here, so a run that makes no pool loads
    neither it nor its logging. Under fork, Linux's default, the workers
    inherit store and cells instead of unpickling them."""
    if jobs == 1 or len(tasks) < 2:
        return [fn(store, cells, task) for task in tasks]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), initializer=_init_worker,
            initargs=(store, cells)) as pool:
        return list(pool.map(functools.partial(_in_worker, fn), tasks,
                             chunksize=max(1, len(tasks) // (8 * jobs))))


def _warm_store(store, cells, jobs: int):
    """Prepare each (record, time range) the cells name once, in this process
    at jobs 1, else spread over jobs workers, and cache the results in store.
    store.recordings reads a manifest's record, or renders a preset's, at each
    lookup, so the record is read or rendered where it is prepared (in the
    workers at jobs > 1), and no process keeps its samples.

    A source whose preparation fails stays uncached: the seed that needs it
    reads or renders its record again and raises the error again, so a run
    reports the same first error at any --jobs.
    """
    for prepared in _run_tasks(_prepare, store.sources(cells), jobs, store, cells):
        if prepared is not None:
            store.add(prepared)


def cmd_run(args) -> int:
    from . import dsp, regimes, rpeak
    if args.jobs < 1:
        return _fail(f"--jobs must be at least 1, got {args.jobs}", 2)
    try:
        cfg = validate_config(_read_json(args.config))
    except (OSError, FormatMismatch, ConfigError) as exc:
        return _fail(f"config: {exc}", 2)
    cells = _select_cells(cfg, args.regime, args.setting)
    if not cells:
        return _fail(f"no configured regime cell matches "
                     f"--regime {args.regime} --setting {args.setting}", 2)

    try:
        index, recordings = load_dataset_from_config(cfg.dataset)
        for fs in sorted({meta.fs for meta in index.records}):
            dsp.design_filter(cfg.preprocess.filter, fs)
            if cfg.segmentation.mode == "beat":
                rpeak.check_rate(fs)
    except (EcgBenchError, OSError) as exc:
        return _fail(f"dataset: {type(exc).__name__}: {exc}", 2)

    json_path = os.path.join(args.out, "results.json")
    csv_path = os.path.join(args.out, "results.csv")
    try:
        os.makedirs(args.out, exist_ok=True)
        for path in (json_path, csv_path):
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    except OSError as exc:
        return _fail(f"output: {type(exc).__name__}: {exc}", 2)

    written = []  # a failed run removes only the files that it wrote
    try:
        store = regimes.SegmentStore(cfg, index, recordings)
        # The warm-up pools only when the seeds do.
        _warm_store(store, cells, args.jobs if len(cfg.seeds) > 1 else 1)
        per_seed = dict(zip(cfg.seeds, _run_tasks(_evaluate, list(cfg.seeds), args.jobs,
                                                  store, cells)))
        payload = results_payload(cfg, cfg.seeds, per_seed)
        with open(json_path, "w", encoding="utf-8") as fh:
            written.append(json_path)
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        with open(csv_path, "w", encoding="utf-8") as fh:
            written.append(csv_path)
            fh.write(render_csv(payload))
    except (EcgBenchError, OSError) as exc:
        for path in written:
            os.remove(path)
        return _fail(f"evaluation: {type(exc).__name__}: {exc}", 1)
    print(f"wrote {json_path} and {csv_path} "
          f"({len(cells)} cell(s) x {len(cfg.seeds)} seed(s))")
    return 0


def _load_results(path: str) -> dict:
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: results file must be a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{path}: schema_version {version} (this tool reads {SCHEMA_VERSION})")
    results = payload.get("results")
    if not isinstance(results, dict):
        raise SchemaError(f"{path}: 'results' must be an object")
    for key, cell in results.items():
        metrics = cell.get("metrics") if isinstance(cell, dict) else None
        if (key.count("|") != 1 or not isinstance(metrics, dict) or not all(
                isinstance(metrics.get(m), dict)
                and all(isinstance(metrics[m].get(f), (int, float)) for f in ("mean", "std"))
                for m in METRIC_FIELDS)):
            raise SchemaError(f"{path}: results[{key!r}] needs 'metrics' with a "
                              f"mean and std for each of {', '.join(METRIC_FIELDS)}")
    return payload


def _print_table(payloads):
    """One block of rows per (path, payload), in the order given."""
    width = max(len(path) for path, _ in payloads)
    header = f"{'file':{width}} {'regime':22} {'setting':8} " + " ".join(
        f"{name:>18}" for name in METRIC_FIELDS)
    print(header)
    for path, payload in payloads:
        for key in sorted(payload["results"]):
            regime, setting = key.split("|")
            cells = payload["results"][key]["metrics"]
            row = " ".join(
                f"{cells[m]['mean']:10.4f}±{cells[m]['std']:<7.4f}"
                for m in METRIC_FIELDS)
            print(f"{path:{width}} {regime:22} {setting:8} {row}")


def cmd_report(args) -> int:
    try:
        payloads = [(path, _load_results(path)) for path in args.results]
    except RESULTS_FILE_ERRORS as exc:
        return _fail(str(exc), 2)
    _print_table(payloads)
    if args.delta:
        try:
            a = _load_results(args.delta[0])
            b = _load_results(args.delta[1])
        except RESULTS_FILE_ERRORS as exc:
            return _fail(str(exc), 2)
        shared = sorted(set(a["results"]) & set(b["results"]))
        pairs = [(k, k) for k in shared]
        if not pairs and len(a["results"]) == 1 and len(b["results"]) == 1:
            pairs = [(next(iter(a["results"])), next(iter(b["results"])))]
        if not pairs:
            return _fail("delta: no comparable regime cells", 2)
        print(f"\ndelta ({args.delta[1]} - {args.delta[0]}):")
        for ka, kb in pairs:
            deltas = " ".join(
                f"{m}={b['results'][kb]['metrics'][m]['mean'] - a['results'][ka]['metrics'][m]['mean']:+.4f}"
                for m in METRIC_FIELDS)
            print(f"  {ka} vs {kb}: {deltas}")
    return 0


def cmd_validate(args) -> int:
    try:
        cfg = validate_config(_read_json(args.config))
    except (OSError, FormatMismatch, ConfigError) as exc:
        return _fail(f"config: {exc}", 2)
    print(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))
    print(f"digest: {cfg.digest()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgbench",
        description="ECG biometric benchmarking: synthesize data, run "
                    "regime evaluations, and report results.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    group = p_synth.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES)
    group.add_argument("--spec", help="JSON file describing a custom SynthSpec")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run the configured evaluation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--regime", help="restrict to one regime name")
    p_run.add_argument("--setting", choices=["closed", "open"])
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="print tables from results files")
    p_report.add_argument("results", nargs="+")
    p_report.add_argument("--delta", nargs=2, metavar=("A", "B"),
                          help="print metric differences B - A")
    p_report.set_defaults(func=cmd_report)

    p_val = sub.add_parser("validate", help="validate a config and print it")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

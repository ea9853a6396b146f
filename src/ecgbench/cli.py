"""Command-line entry point: synth, run, report, validate.

Results are written as a schema-versioned JSON file plus a flat CSV mirroring
the benchmark table layout (one row per regime/setting, metric columns as
"mean±std"). Both encode the same repr-exact numbers, and identical runs
produce byte-identical files regardless of --jobs.
"""

import argparse
import concurrent.futures
import json
import os
import sys

from . import __version__
from .core import METRIC_FIELDS, RunConfig, validate_config
from .errors import ConfigError, EcgBenchError, SchemaError, SchemaVersionMismatch
from .regimes import SegmentStore, aggregate_runs, load_dataset_from_config, run_evaluation
from .synth import generate_dataset, preset_spec, spec_from_dict

SCHEMA_VERSION = 1
SEED_ENV = "ECGBENCH_SEED_OVERRIDE"
CSV_HEADER = "regime,setting," + ",".join(METRIC_FIELDS)


def _fail(message: str, code: int) -> int:
    print(f"ecgbench: error: {message}", file=sys.stderr)
    return code


def cmd_synth(args) -> int:
    try:
        if args.spec:
            with open(args.spec, "r", encoding="utf-8") as fh:
                spec = spec_from_dict(json.load(fh))
        else:
            spec = preset_spec(args.preset)
        index, manifest_path = generate_dataset(spec, args.seed, args.out)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        return _fail(f"{type(exc).__name__}: {exc}", 2)
    print(f"wrote {len(index.records)} records and {manifest_path}")
    return 0


def _resolve_seeds(cfg: RunConfig) -> tuple:
    override = os.environ.get(SEED_ENV)
    if override is None:
        return cfg.seeds
    if not override.isdecimal():
        raise ConfigError(f"{SEED_ENV} must be a non-negative integer, got {override!r}")
    return (int(override),)


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
    report = aggregate_runs(list(per_seed_records.values()),
                            config_digest=cfg.digest(), seeds=seeds)
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


def _init_worker(cfg, store, cells):
    _WORKER_STATE["cfg"] = cfg
    _WORKER_STATE["store"] = store
    _WORKER_STATE["cells"] = cells


def _worker_seed(seed: int):
    return seed, run_evaluation(_WORKER_STATE["cfg"], seed,
                                store=_WORKER_STATE["store"],
                                cells=_WORKER_STATE["cells"])


def cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = validate_config(raw)
        seeds = _resolve_seeds(cfg)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        return _fail(f"config: {exc}", 2)
    cells = _select_cells(cfg, args.regime, args.setting)
    if not cells:
        return _fail(f"no configured regime cell matches "
                     f"--regime {args.regime} --setting {args.setting}", 2)

    json_path = os.path.join(args.out, "results.json")
    csv_path = os.path.join(args.out, "results.csv")
    try:
        os.makedirs(args.out, exist_ok=True)
        index, recordings = load_dataset_from_config(cfg.dataset)
        store = SegmentStore(cfg, index, recordings)
        per_seed = {}
        if args.jobs <= 1 or len(seeds) == 1:
            for seed in seeds:
                per_seed[seed] = run_evaluation(cfg, seed, store=store, cells=cells)
        else:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=args.jobs, initializer=_init_worker,
                    initargs=(cfg, store, cells)) as pool:
                for seed, record in pool.map(_worker_seed, seeds):
                    per_seed[seed] = record
        payload = results_payload(cfg, seeds, per_seed)
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(render_csv(payload))
    except (EcgBenchError, OSError) as exc:
        for path in (json_path, csv_path):
            if os.path.exists(path):
                os.remove(path)
        return _fail(f"evaluation: {type(exc).__name__}: {exc}", 1)
    print(f"wrote {json_path} and {csv_path} "
          f"({len(cells)} cell(s) x {len(seeds)} seed(s))")
    return 0


def _load_results(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
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


def _print_table(payloads: dict):
    header = f"{'file':24} {'regime':22} {'setting':8} " + " ".join(
        f"{name:>18}" for name in METRIC_FIELDS)
    print(header)
    for name, payload in payloads.items():
        for key in sorted(payload["results"]):
            regime, setting = key.split("|")
            cells = payload["results"][key]["metrics"]
            row = " ".join(
                f"{cells[m]['mean']:10.4f}±{cells[m]['std']:<7.4f}"
                for m in METRIC_FIELDS)
            print(f"{name[:24]:24} {regime:22} {setting:8} {row}")


def cmd_report(args) -> int:
    try:
        payloads = {os.path.basename(p): _load_results(p) for p in args.results}
    except (OSError, json.JSONDecodeError, SchemaError, SchemaVersionMismatch) as exc:
        return _fail(str(exc), 2)
    _print_table(payloads)
    if args.delta:
        try:
            a = _load_results(args.delta[0])
            b = _load_results(args.delta[1])
        except (OSError, json.JSONDecodeError, SchemaError, SchemaVersionMismatch) as exc:
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
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = validate_config(json.load(fh))
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
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
    group.add_argument("--preset", choices=["fallacy30", "aging4", "ablation"])
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

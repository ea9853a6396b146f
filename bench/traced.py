"""Run the ecgbench CLI with a timer around the public function of each layer.

    python3 bench/traced.py SPAN_DIR <ecgbench arguments>

Every wrapped function is replaced at the module attribute where its caller
looks it up (``ecgbench.regimes.mlp_train``, ``ecgbench.dsp.resample_fourier``
and so on), so the program itself is not edited. Each process keeps per-name
totals in memory (calls, inclusive seconds, self seconds, first start, last
end) and writes them to ``SPAN_DIR/spans-<pid>.json`` when it ends. Pool
workers forked after the wrappers are installed start from empty totals and
write theirs from a ``multiprocessing.util.Finalize`` hook at worker exit.
The hook is registered from ``multiprocessing.util.register_after_fork``,
which runs after a new process has cleared the finalizers it inherited.

Self time is a span's duration minus the full cost of the wrapped calls made
inside it, the wrappers' own bookkeeping included, so tracing overhead lands
in no layer's self time.
"""

import functools
import hashlib
import json
import multiprocessing.util
import os
import sys
import time


class Tracer:
    def __init__(self, span_dir: str, role: str):
        self.span_dir = span_dir
        self.role = role
        self.stack = [0.0]  # wrapped-call cost charged to each open span
        self._reset()

    def _reset(self):
        del self.stack[1:]
        self.totals = {}  # name -> [calls, seconds, self seconds, first start, last end]
        self.counters = {}
        self.clean_keys = {}  # id(clean samples) -> (record key, samples)
        self.detections = {}  # record key -> detected R-peak indices
        self.truth = {}  # record key -> ground-truth R-peak indices
        self.beat_digests = set()

    def after_fork_in_child(self):
        self._reset()
        self.role = "worker"
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def count(self, name: str, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Replace owner.attr with a timed wrapper recorded under ``name``."""
        fn = getattr(owner, attr)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            stack.append(0.0)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                inner = stack.pop()
                if ok and observe is not None:
                    observe(self, args, result)
                rec = self.totals.get(name)
                if rec is None:
                    rec = self.totals[name] = [0, 0.0, 0.0, start, end]
                rec[0] += 1
                rec[1] += end - start
                rec[2] += end - start - inner
                rec[4] = end
                stack[-1] += clock() - entered
            return result

        setattr(owner, attr, wrapper)

    def dump(self):
        path = os.path.join(self.span_dir, f"spans-{os.getpid()}.json")
        payload = {
            "role": self.role,
            "totals": self.totals,
            "counters": self.counters,
            "detections": [[list(k), v] for k, v in self.detections.items()],
            "truth": [[list(k), v] for k, v in self.truth.items()],
            "beat_digests": sorted(self.beat_digests),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# --- observers: counts taken where the work happens -------------------------------


def _saw_recordings(tracer, args, result):
    for rec, peaks in result:
        tracer.truth[rec.key] = [int(p) for p in peaks]


def _saw_load(tracer, args, result):
    index, _recordings = result
    tracer.count("ingest.bytes_read", os.path.getsize(args[0]) + sum(
        os.path.getsize(m.path) for m in index.records))


def _saw_preprocess(tracer, args, result):
    tracer.clean_keys[id(result.samples)] = (args[0].key, result.samples)


def _saw_detection(tracer, args, result):
    known = tracer.clean_keys.get(id(args[0]))
    if known is not None and known[1] is args[0]:
        tracer.detections[known[0]] = [int(i) for i in result.indices]


def _saw_beats(tracer, args, result):
    tracer.count("segment.beats", len(result))


def _saw_resample(tracer, args, result):
    tracer.beat_digests.add(hashlib.blake2b(args[0].tobytes(), digest_size=8).hexdigest())


def _saw_mlp_rows(tracer, args, result):
    tracer.count("embed.mlp_train.rows", len(args[0]))


def install(tracer: Tracer):
    """Wrap each layer's public functions where the run path calls them."""
    from ecgbench import biometric, cli, dsp, metrics, regimes, rpeak, segment, synth

    wrap = tracer.wrap
    wrap(synth, "generate_recordings", "synth.generate_recordings", _saw_recordings)
    wrap(cli, "generate_dataset", "synth.generate_dataset")
    wrap(regimes, "load_dataset", "ingest.load_dataset", _saw_load)
    wrap(cli, "load_dataset_from_config", "cli.load_dataset_from_config")
    wrap(cli, "run_evaluation", "regimes.run_evaluation")
    wrap(cli, "results_payload", "cli.results_payload")
    wrap(regimes, "evaluate_cell", "regimes.evaluate_cell")
    wrap(regimes, "map_regime", "regimes.map_regime")
    wrap(regimes.SegmentStore, "prepare", "regimes.SegmentStore.prepare")
    wrap(dsp, "preprocess", "dsp.preprocess", _saw_preprocess)
    wrap(rpeak, "pan_tompkins", "rpeak.pan_tompkins", _saw_detection)
    wrap(segment, "segment_beats", "segment.segment_beats", _saw_beats)
    wrap(dsp, "resample_fourier", "dsp.resample_fourier", _saw_resample)
    wrap(dsp, "normalize", "dsp.normalize")
    wrap(regimes, "mlp_train", "embed.mlp_train", _saw_mlp_rows)
    wrap(regimes, "mlp_embed", "embed.mlp_embed")
    for name in ("similarity", "build_template", "fuse_probes", "score_matrix",
                 "generate_pairs"):
        wrap(biometric, name, f"biometric.{name}")
    for name in ("eer", "auc", "dprime", "tar_at_far", "rank_accuracy"):
        wrap(metrics, name, f"metrics.{name}")


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced.py SPAN_DIR <ecgbench arguments>", file=sys.stderr)
        return 2
    tracer = Tracer(argv[0], "main")
    install(tracer)
    multiprocessing.util.register_after_fork(tracer, Tracer.after_fork_in_child)
    from ecgbench import cli

    code = cli.main(argv[1:])
    tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Evaluation regimes: split planning, leakage guards, and run orchestration.

map_regime turns a dataset index plus a regime cell into a SplitPlan (who
enrolls with what, who probes with what). run_evaluation realizes the plan:
preprocess, detect, segment, embed (training the MLP on enrollment-side data
only), fuse templates and probes, score, and compute metrics. Every piece of
randomness is keyed by (run seed, purpose), so results are bit-identical
regardless of worker scheduling.
"""

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import biometric, dsp, metrics, rpeak, segment, synth
from .core import METRIC_FIELDS, MetricsReport, RegimeCell, RunConfig
from .embed import mlp_embed, mlp_train, morphology_features
from .errors import (
    GranularityWarning,
    KeyMismatch,
    NoPeaksDetected,
    RangeOutOfBounds,
    RegimeUnsatisfiable,
    SampleLeakage,
    TooFewSubjects,
)
from .ingest import DatasetIndex, RecordFiles, RecordMeta, load_dataset, sorted_index
from .util import stable_seed, sub_rng

SINGLE_SESSION_ENROLL_FRACTION = 0.7


@dataclass(frozen=True)
class SegmentSource:
    """One contiguous supply of beats: a record, optionally a time range
    within it, optionally one side of a within-record beat split."""
    record_key: tuple
    time_range: tuple | None = None
    beat_role: str | None = None


@dataclass(frozen=True)
class SubjectSplit:
    subject_id: str
    enroll: tuple[SegmentSource, ...]
    probe: tuple[SegmentSource, ...]


@dataclass(frozen=True)
class SplitPlan:
    subjects: dict
    excluded: tuple[str, ...]


def map_regime(index: DatasetIndex, cell: RegimeCell) -> SplitPlan:
    """Assign enrollment and probe sources per subject under the named regime.

    Subjects that cannot satisfy the regime preconditions are excluded and
    reported; an empty qualifying set raises RegimeUnsatisfiable.
    """
    per_subject = index.by_subject()
    subjects = {}
    excluded = []
    for subject in sorted(per_subject):
        keys = sorted((m.key for m in per_subject[subject]),
                      key=lambda k: (k.day_index, k.record_index, k.session_id))
        split = _plan_subject(cell, subject, keys)
        if split is None:
            excluded.append(subject)
        else:
            subjects[subject] = split
    if not subjects:
        raise RegimeUnsatisfiable(
            f"{cell.name}: none of {len(per_subject)} subjects qualify")
    return SplitPlan(subjects=subjects, excluded=tuple(excluded))


def _plan_subject(cell: RegimeCell, subject: str, keys) -> SubjectSplit | None:
    name = cell.name
    if name == "single_session":
        return SubjectSplit(subject,
                            (SegmentSource(keys[0], beat_role="enroll"),),
                            (SegmentSource(keys[0], beat_role="probe"),))
    if name == "single_cross_session":
        if len(keys) < 2:
            return None
        return SubjectSplit(subject, (SegmentSource(keys[0]),),
                            (SegmentSource(keys[1]),))
    first_day = keys[0].day_index
    day0 = [k for k in keys if k.day_index == first_day]
    later = [k for k in keys if k.day_index > first_day]
    if name == "ss_short_term":
        if len(day0) < 2:
            return None
        return SubjectSplit(subject, (SegmentSource(day0[0]),),
                            tuple(SegmentSource(k) for k in day0[1:]))
    if name == "llo_short_term":
        if len(day0) < 2:
            return None
        return SubjectSplit(subject,
                            tuple(SegmentSource(k) for k in day0[:-1]),
                            (SegmentSource(day0[-1]),))
    if name == "ss_long_term":
        if not later:
            return None
        return SubjectSplit(subject,
                            tuple(SegmentSource(k) for k in day0),
                            tuple(SegmentSource(k) for k in later))
    if name == "llo_long_term":
        last_day = keys[-1].day_index
        if last_day == first_day:
            return None
        past = [k for k in keys if k.day_index < last_day]
        last = [k for k in keys if k.day_index == last_day]
        return SubjectSplit(subject,
                            tuple(SegmentSource(k) for k in past),
                            tuple(SegmentSource(k) for k in last))
    if name == "cross_session":
        enroll = [k for k in keys if k.session_id == cell.enroll_session]
        probe = [k for k in keys if k.session_id == cell.probe_session]
        if not enroll or not probe:
            return None
        return SubjectSplit(subject,
                            tuple(SegmentSource(k) for k in enroll),
                            tuple(SegmentSource(k) for k in probe))
    return SubjectSplit(subject,  # custom_split
                        (SegmentSource(keys[0], time_range=cell.enroll_range),),
                        (SegmentSource(keys[0], time_range=cell.probe_range),))


def _seeded_split(n: int, ratio: float, rng):
    """0..n-1 shuffled by rng, cut at round(ratio * n) clamped so that both
    halves are non-empty (n >= 2), each half sorted and read-only (the store
    shares a beat split)."""
    order = rng.permutation(n)
    cut = min(max(int(round(ratio * n)), 1), n - 1)
    halves = np.sort(order[:cut]), np.sort(order[cut:])
    for half in halves:
        half.flags.writeable = False
    return halves


def subject_partition(subjects, ratio: float, seed: int):
    """Seeded shuffle, then split at round(ratio * N); both halves non-empty.

    Returns (training subjects, evaluation subjects), each sorted.
    """
    subjects = sorted(subjects)
    if len(subjects) < 2:
        raise TooFewSubjects(f"partition needs >= 2 subjects, got {len(subjects)}")
    halves = _seeded_split(len(subjects), ratio, sub_rng(seed, "subject-partition"))
    return tuple([subjects[i] for i in half] for half in halves)


# --- prepared segments -----------------------------------------------------------


@dataclass(frozen=True)
class PreparedSource:
    """The segments of one (record, time range) that have a feature, as arrays
    with row i for segment i: its sample span in record space and its
    morphology feature. A constant segment has no feature and is not kept. The
    samples are not kept."""
    record_key: tuple
    time_range: tuple | None
    spans: np.ndarray  # (n, 2) int: (lo, hi) in original-record sample indices
    features: np.ndarray  # (n, embedder.target_len)


def _cut_range(recording, time_range):
    """The recording cut to time_range (all of it for None), under its own
    key, and the record index of its first sample. A range is cut before it
    is filtered, so no sample outside it reaches its segments."""
    if time_range is None:
        return recording, 0
    lo = int(round(time_range[0] * recording.fs))
    hi = int(round(time_range[1] * recording.fs))
    if lo < 0 or hi > len(recording.channels[0]) or hi <= lo:
        raise RangeOutOfBounds(f"range {time_range} outside record")
    return replace(recording, channels=tuple(c[lo:hi] for c in recording.channels)), lo


class SegmentStore:
    """Caches, per (record, time range), the spans and features of the
    segments that preprocessing, detection and segmentation give, less the
    constant ones; a record's segments are cut from it as one block and
    embedded as one batch. Neither the filtered record nor the segments'
    samples are kept. recordings maps each record key to its Recording; an
    ingest.RecordFiles reads or renders the record at each lookup, so only the
    process that prepares a record holds its samples, and only while it
    prepares it.

    It also keeps, per process, the evaluation products of cfg that no seed
    changes (see reused): each cell's plan, the realization of a plan without
    a beat split, and, for a training-free embedder, each template and fused
    probe block of whole sources. evaluate_cell still runs per (cell, seed),
    but makes each of these once per run; only the beat split, the subject
    partition, the MLP and the impostor draw are made again per seed. A beat
    split is kept too, per (regime, subject, seed), since both sides of a
    subject and both settings of a cell draw the same one."""

    def __init__(self, cfg: RunConfig, index: DatasetIndex, recordings: Mapping):
        self.cfg = cfg
        self.index = index
        self.recordings = recordings
        self._prepared: dict = {}
        self._reused: dict = {}

    def prepare(self, source: SegmentSource) -> PreparedSource:
        """The cached preparation of the source's (record, time range); its
        beat_role is applied later, by _realize_plan."""
        cache_key = (source.record_key, source.time_range)
        if cache_key not in self._prepared:
            self.add(self._segment(*cache_key))
        return self._prepared[cache_key]

    def sources(self, cells) -> list:
        """Each distinct (record, time range) that the cells' plans name, in
        plan order, as a SegmentSource without a beat role. A cell with no
        plan names none; evaluating it raises the error."""
        pairs = {}
        for cell in cells:
            try:
                plan = self.plan(cell)
            except RegimeUnsatisfiable:
                continue
            for split in plan.subjects.values():
                for source in split.enroll + split.probe:
                    pairs[(source.record_key, source.time_range)] = None
        return [SegmentSource(key, time_range) for key, time_range in pairs]

    def reused(self, key, make):
        """make() on the first call with key in this process, and the same
        object on every later call. An error is not kept, so the next call
        raises it again. Whoever shares an array through it makes the array
        read-only."""
        if key not in self._reused:
            self._reused[key] = make()
        return self._reused[key]

    def plan(self, cell: RegimeCell) -> SplitPlan:
        """map_regime's plan for the cell, made once per process. The module
        attribute is looked up at the first call, so a replaced map_regime is
        the one that plans."""
        return self.reused(("plan", cell), lambda: map_regime(self.index, cell))

    def add(self, prepared: PreparedSource):
        """Cache a preparation, made here or by another process's store, with
        its arrays read-only: every cell and seed that selects a segment shares
        them, so an in-place write raises instead of corrupting a later
        evaluation. Pickling drops the flag, so it is set here."""
        for array in (prepared.spans, prepared.features):
            array.flags.writeable = False
        self._prepared[(prepared.record_key, prepared.time_range)] = prepared

    def _segment(self, record_key, time_range) -> PreparedSource:
        recording, offset = _cut_range(self.recordings[record_key], time_range)
        clean = dsp.preprocess(recording, self.cfg.preprocess)
        samples = clean.samples
        seg_cfg = self.cfg.segmentation
        if seg_cfg.mode == "beat":
            try:
                peaks = rpeak.pan_tompkins(samples, clean.fs)
            except NoPeaksDetected:
                spans = np.empty((0, 2), dtype=int)
            else:
                spans = segment.segment_beats(
                    samples, clean.fs, peaks.indices, seg_cfg.pre_s, seg_cfg.post_s,
                    align=seg_cfg.align_peak)
        else:
            spans = segment.segment_blind(
                samples, clean.fs, seg_cfg.window_s, seg_cfg.stride_s)
        if len(spans):
            features, present = morphology_features(
                segment.cut(samples, spans), self.cfg.embedder.target_len,
                self.cfg.preprocess.normalization)
            spans = spans[present]
        else:
            features = np.empty((0, self.cfg.embedder.target_len))
        return PreparedSource(record_key, time_range, spans + offset, features)


def _render(spec, seed: int, meta: RecordMeta):
    """A preset's record, rendered alone through synth.generate_recordings."""
    ((recording, _peaks),) = synth.generate_recordings(spec, seed, keys=(meta.key,))
    return recording


def load_dataset_from_config(ds_cfg):
    """Resolve the dataset config into (index, ingest.RecordFiles), which reads
    a manifest's record from its file, or renders a preset's, at each lookup.
    Apart from a manifest's check, no record is read or rendered here."""
    if ds_cfg.kind == "manifest":
        return load_dataset(ds_cfg.path)
    spec = synth.preset_spec(ds_cfg.preset)
    index = sorted_index(RecordMeta(key=key, path=f"synthetic://{ds_cfg.preset}",
                                    format="f32le", fs=spec.fs)
                         for key in synth.record_keys(spec))
    return index, RecordFiles(index, partial(_render, spec, ds_cfg.seed))


# --- realization ------------------------------------------------------------------


@dataclass(frozen=True)
class _SubjectData:
    """One subject's (prepared source, segment indices) selections per side,
    one for each source that kept segments, and its enrollment sessions. Each
    side holds at least one segment, and so at least one feature row."""
    enroll: list
    probe: list
    sessions: tuple


def _split_beats(n: int, subject: str, cell: RegimeCell, seed: int):
    """Within-record 70/30 split of n beat positions; None below two beats."""
    if n < 2:
        return None
    return _seeded_split(n, SINGLE_SESSION_ENROLL_FRACTION,
                         sub_rng(seed, "beat-split", cell.name, subject))


def _select(split: SubjectSplit, cell: RegimeCell, store: SegmentStore, seed: int,
            empty: set):
    """(prepared, indices) for each source of the split that keeps segments,
    per side; None when a beat split has fewer than two beats. The key of each
    record that kept no segment (none was found, or each was constant) is
    added to empty."""
    sides = ([], [])
    for side, sources in zip(sides, (split.enroll, split.probe)):
        for source in sources:
            prepared = store.prepare(source)
            if not len(prepared.spans):
                empty.add(prepared.record_key)
            idx = np.arange(len(prepared.spans))
            if source.beat_role is not None:
                n, subject = len(idx), split.subject_id
                halves = store.reused(("beat-split", cell.name, subject, seed, n),
                                      lambda: _split_beats(n, subject, cell, seed))
                if halves is None:
                    return None
                idx = halves[0] if source.beat_role == "enroll" else halves[1]
            if len(idx):
                side.append((prepared, idx))
    return sides


def _realize_plan(plan: SplitPlan, cell: RegimeCell, store: SegmentStore,
                  seed: int):
    """Select each subject's segments, enforcing no sample overlap between the
    enrollment and probe sides of any record. Returns the realized subjects,
    the dropped ones (a tuple) and the keys of the selected records without
    segments. This is the one place where a subject drops out for want of
    segments."""
    realized = {}
    dropped = []
    empty = set()
    for subject, split in plan.subjects.items():
        sides = _select(split, cell, store, seed, empty)
        if sides is None or not all(sides):
            dropped.append(subject)
            continue
        enroll_spans, probe_spans = ([(prepared.record_key, prepared.spans[idx])
                                      for prepared, idx in side] for side in sides)
        overlap = _span_overlaps(enroll_spans, probe_spans)
        if overlap:
            raise SampleLeakage(
                f"enrollment/probe sample overlap for {subject}: {overlap[:3]}")
        enroll, probe = sides
        sessions = (prepared.record_key.session_id for prepared, _ in enroll)
        realized[subject] = _SubjectData(enroll, probe, tuple(dict.fromkeys(sessions)))
    return realized, tuple(dropped), empty


def _span_overlaps(enroll, probe):
    """(record key, enroll span, probe span) for each pair of spans that share
    samples across the two sides; each side lists (record key, (n, 2) spans)."""
    by_record: dict = {}
    for key, spans in enroll:
        by_record.setdefault(key, []).append(spans)
    out = []
    for key, spans in probe:
        if key not in by_record:
            continue
        shared = np.concatenate(by_record[key])
        hits = (spans[:, :1] < shared[:, 1]) & (shared[:, 0] < spans[:, 1:])
        for i, j in zip(*np.nonzero(hits)):
            out.append((key, tuple(shared[j].tolist()), tuple(spans[i].tolist())))
    return out


def _splits_beats(plan: SplitPlan) -> bool:
    """Whether a source of the plan is one side of a beat split, the only way
    the seed reaches its realization."""
    return any(source.beat_role is not None for split in plan.subjects.values()
               for source in split.enroll + split.probe)


def _sources(picks) -> tuple:
    """The (record key, time range) of each (prepared, indices) selection."""
    return tuple((prepared.record_key, prepared.time_range) for prepared, _ in picks)


def evaluate_cell(cfg: RunConfig, cell: RegimeCell, store: SegmentStore,
                  seed: int) -> dict:
    """Run one (regime, setting) cell for one seed; returns the metric record."""
    plan = store.plan(cell)
    seeded = _splits_beats(plan)
    if seeded:
        realized, dropped, empty = _realize_plan(plan, cell, store, seed)
    else:
        # Made once per process; nothing below writes into it.
        realized, dropped, empty = store.reused(
            ("realized", cell), lambda: _realize_plan(plan, cell, store, seed))
    if not realized:
        raise RegimeUnsatisfiable(f"{cell.name}: no subject survived realization")
    subjects_used = sorted(realized)
    # A flat or lead-off record keeps no segment; name it rather than drop
    # its subject silently.
    cell_warnings = {f"no segments from record {'/'.join(map(str, key))}"
                     for key in empty}

    if cell.setting == "open":
        part_seed = cell.split_seed if cell.split_seed is not None else \
            stable_seed(seed, "partition", cell.name)
        train_subjects, eval_subjects = subject_partition(
            subjects_used, cell.open_ratio, part_seed)
    else:
        train_subjects = eval_subjects = subjects_used

    if cfg.embedder.kind == "mlp":
        # (label, stored features, rows to take) per enrollment pick; one
        # matrix holds the training rows, pick by pick.
        picks = [(label, prepared.features, idx)
                 for label, subject in enumerate(train_subjects)
                 for prepared, idx in realized[subject].enroll]
        sizes = [len(take) for _, _, take in picks]
        x = np.empty((sum(sizes), cfg.embedder.target_len))
        start = 0
        for _, rows, take in picks:
            np.take(rows, take, axis=0, out=x[start: start + len(take)])
            start += len(take)
        labels = np.repeat([label for label, _, _ in picks], sizes)
        model, _losses = mlp_train(
            x, labels,
            hidden_dim=cfg.embedder.hidden_dim, lr=cfg.embedder.lr,
            epochs=cfg.embedder.epochs, batch=cfg.embedder.batch,
            seed=stable_seed(seed, "mlp", cell.name, cell.setting))
        embed_rows = lambda rows: mlp_embed(model, rows)
    else:
        embed_rows = lambda rows: rows

    evaluation = cfg.evaluation

    def make_template(subject, data):
        rows = np.concatenate([prepared.features[idx] for prepared, idx in data.enroll])
        template = biometric.build_template(
            embed_rows(rows), subject, fusion=evaluation.template_fusion,
            size=evaluation.template_size, metric=evaluation.metric,
            source_sessions=data.sessions)
        template.vector.flags.writeable = False
        return template

    def make_probes(pick):
        prepared, idx = pick
        fused = biometric.fuse_probes(embed_rows(prepared.features[idx]),
                                      evaluation.probe_fusion_k)
        fused.flags.writeable = False
        return fused

    if cfg.embedder.kind != "mlp" and not seeded:
        # A training-free embedder's template and fused probes of whole
        # sources depend on no seed: the store makes each once per process,
        # for every seed and cell that selects the same sources.
        template_of = lambda subject, data: store.reused(
            ("template", evaluation, _sources(data.enroll)),
            lambda: make_template(subject, data))
        probes_of = lambda pick: store.reused(
            ("probes", evaluation.probe_fusion_k, _sources([pick])),
            lambda: make_probes(pick))
    else:
        template_of, probes_of = make_template, make_probes

    gallery = []
    probe_blocks = []
    probe_subjects = []
    for subject in eval_subjects:
        data = realized[subject]
        gallery.append(template_of(subject, data))
        for pick in data.probe:
            fused = probes_of(pick)
            probe_blocks.append(fused)
            probe_subjects.extend([subject] * len(fused))

    if len(eval_subjects) < 2:
        raise RegimeUnsatisfiable(
            f"{cell.name}|{cell.setting}: fewer than two evaluable subjects")

    matrix = biometric.score_matrix(gallery, probe_blocks, probe_subjects,
                                    cfg.evaluation.metric)
    pairs = biometric.generate_pairs(
        matrix, cfg.evaluation.pair_sampling,
        seed=stable_seed(seed, "pairs", cell.name, cell.setting))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GranularityWarning)
        tar = metrics.tar_at_far(pairs)
        for w in caught:
            if issubclass(w.category, GranularityWarning):
                cell_warnings.add(f"tar_at_far granularity: {w.message}")

    total = len(store.index.subjects())
    record = {
        "rank1": metrics.rank_accuracy(matrix, 1),
        "rank5": metrics.rank_accuracy(matrix, 5),
        "eer": metrics.eer(pairs),
        "auc": metrics.auc(pairs),
        "dprime": metrics.dprime(pairs),
        "tar_at_far": tar,
        "counts": {
            "subjects_total": total,
            "subjects_used": len(eval_subjects),
            "subjects_excluded": total - len(eval_subjects),
            "train_subjects": len(train_subjects),
            "gallery_size": len(gallery),
            "probe_count": len(probe_subjects),
            "genuine_pairs": int(pairs.genuine.size),
            "impostor_pairs": int(pairs.impostor.size),
        },
        "warnings": sorted(cell_warnings),
        "diag": {
            "train_subjects": list(train_subjects),
            "eval_subjects": list(eval_subjects),
            "excluded": sorted(plan.excluded + dropped),
        },
    }
    return record


def run_evaluation(cfg: RunConfig, seed: int, store: SegmentStore,
                   cells=None) -> dict:
    """All requested (regime, setting) cells for one seed; the store shares
    preprocessing across cells and seeds."""
    out = {}
    for cell in (cells if cells is not None else cfg.regimes):
        out[cell.key] = evaluate_cell(cfg, cell, store, seed)
    return out


def aggregate_runs(per_seed_records: list) -> MetricsReport:
    """Mean and sample std (n-1; zero for a single seed) per cell and metric."""
    if not per_seed_records:
        raise ValueError("need at least one per-seed record")
    keys = sorted(per_seed_records[0])
    for record in per_seed_records[1:]:
        if sorted(record) != keys:
            raise KeyMismatch(f"per-seed records disagree: {sorted(record)} vs {keys}")
    cells = {}
    for key in keys:
        per_metric = {}
        for name in METRIC_FIELDS:
            values = [float(rec[key][name]) for rec in per_seed_records]
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            per_metric[name] = {"mean": mean, "std": std, "per_seed": values}
        per_metric["counts"] = per_seed_records[0][key]["counts"]
        per_metric["warnings"] = sorted(
            {w for rec in per_seed_records for w in rec[key]["warnings"]})
        cells[key] = per_metric
    return MetricsReport(cells=cells)

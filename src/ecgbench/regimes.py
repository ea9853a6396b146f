"""Evaluation regimes: split planning, leakage guards, and run orchestration.

map_regime turns a dataset index plus a regime cell into a SplitPlan (who
enrolls with what, who probes with what). run_evaluation realizes the plan:
preprocess, detect, segment, embed (training the MLP on enrollment-side data
only), fuse templates and probes, score, and compute metrics. Every piece of
randomness is keyed by (run seed, purpose), so results are bit-identical
regardless of worker scheduling.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import biometric, dsp, metrics, rpeak, segment
from .augment import augment_training_set
from .core import METRIC_FIELDS, MetricsReport, RegimeCell, RunConfig
from .embed import mlp_embed, mlp_train, morphology_embed
from .errors import (
    GranularityWarning,
    KeyMismatch,
    NoPeaksDetected,
    RangeOutOfBounds,
    RegimeUnsatisfiable,
    SampleLeakage,
    TooFewSubjects,
    ZeroVariance,
)
from .ingest import DatasetIndex, RecordMeta, load_dataset, sorted_index
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
    regime: str
    setting: str
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
    return SplitPlan(regime=cell.name, setting=cell.setting,
                     subjects=subjects, excluded=tuple(excluded))


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
    if name == "custom_split":
        return SubjectSplit(subject,
                            (SegmentSource(keys[0], time_range=cell.enroll_range),),
                            (SegmentSource(keys[0], time_range=cell.probe_range),))
    raise ValueError(f"unknown regime {name!r}")


def subject_partition(subjects, ratio: float, seed: int):
    """Seeded shuffle, then split at round(ratio * N); both halves non-empty.

    Returns (training subjects, evaluation subjects), each sorted.
    """
    subjects = sorted(subjects)
    if len(subjects) < 2:
        raise TooFewSubjects(f"partition needs >= 2 subjects, got {len(subjects)}")
    order = sub_rng(seed, "subject-partition").permutation(len(subjects))
    cut = int(round(ratio * len(subjects)))
    cut = min(max(cut, 1), len(subjects) - 1)
    train = sorted(subjects[i] for i in order[:cut])
    evaluate = sorted(subjects[i] for i in order[cut:])
    return train, evaluate


# --- prepared segments -----------------------------------------------------------


@dataclass(frozen=True)
class PreparedSource:
    """Segments of one (record, time range), their sample spans in record space
    and their morphology features."""
    segments: list
    spans: list  # (lo, hi) in original-record sample indices
    features: list  # read-only row per segment; None for a constant segment


def _feature_of(segment, cfg: RunConfig):
    """Read-only morphology feature of one segment, or None if it is constant.

    The row is shared by every cell and seed that selects the segment, so an
    in-place write raises instead of corrupting a later evaluation."""
    try:
        row = morphology_embed(segment.samples, cfg.embedder.target_len,
                               cfg.preprocess.normalization)
    except ZeroVariance:
        return None
    row.flags.writeable = False
    return row


class SegmentStore:
    """Caches preprocess + detection + segmentation + each segment's feature
    per (record, time range)."""

    def __init__(self, cfg: RunConfig, index: DatasetIndex, recordings: dict):
        self.cfg = cfg
        self.index = index
        self.recordings = recordings
        self._clean: dict = {}
        self._prepared: dict = {}

    def clean(self, record_key) -> dsp.CleanSignal:
        if record_key not in self._clean:
            self._clean[record_key] = dsp.preprocess(
                self.recordings[record_key], self.cfg.preprocess)
        return self._clean[record_key]

    def prepare(self, source: SegmentSource) -> PreparedSource:
        """The cached preparation of the source's (record, time range); its
        beat_role is applied later, by _realize_plan."""
        cache_key = (source.record_key, source.time_range)
        if cache_key not in self._prepared:
            self._prepared[cache_key] = self._segment(*cache_key)
        return self._prepared[cache_key]

    def _segment(self, record_key, time_range) -> PreparedSource:
        clean = self.clean(record_key)
        samples, offset = clean.samples, 0
        if time_range is not None:
            offset = int(round(time_range[0] * clean.fs))
            hi = int(round(time_range[1] * clean.fs))
            if offset < 0 or hi > len(samples) or hi <= offset:
                raise RangeOutOfBounds(f"range {time_range} outside record")
            samples = samples[offset:hi]
        seg_cfg = self.cfg.segmentation
        if seg_cfg.mode == "beat":
            try:
                peaks = rpeak.pan_tompkins(samples, clean.fs)
            except NoPeaksDetected:
                return PreparedSource(segments=[], spans=[], features=[])
            segs = segment.segment_beats(
                samples, clean.fs, peaks.indices, seg_cfg.pre_s, seg_cfg.post_s,
                align=seg_cfg.align_peak, key=clean.key)
        else:
            segs = segment.segment_blind(
                samples, clean.fs, seg_cfg.window_s, seg_cfg.stride_s, key=clean.key)
        return PreparedSource(
            segments=segs,
            spans=[(offset + s.start, offset + s.start + len(s.samples)) for s in segs],
            features=[_feature_of(s, self.cfg) for s in segs])


def load_dataset_from_config(ds_cfg):
    """Resolve the dataset config into (index, {record_key: Recording})."""
    if ds_cfg.kind == "manifest":
        return load_dataset(ds_cfg.path)
    from .synth import generate_recordings, preset_spec

    spec = preset_spec(ds_cfg.preset)
    recordings = {}
    metas = []
    for rec, _peaks in generate_recordings(spec, ds_cfg.seed):
        recordings[rec.key] = rec
        metas.append(RecordMeta(key=rec.key, path=f"synthetic://{ds_cfg.preset}",
                                format="f32le", fs=rec.fs))
    return sorted_index(metas), recordings


# --- realization ------------------------------------------------------------------


@dataclass
class _SubjectData:
    subject_id: str
    enroll_segments: list = field(default_factory=list)
    enroll_features: list = field(default_factory=list)  # aligned with segments
    enroll_spans: list = field(default_factory=list)
    probe_groups: list = field(default_factory=list)  # list of segment lists
    probe_features: list = field(default_factory=list)  # aligned with probe_groups
    probe_spans: list = field(default_factory=list)
    sessions: tuple = ()


def _split_beats(n: int, subject: str, cell: RegimeCell, seed: int):
    """Within-record 70/30 split of n beat positions, seeded shuffle."""
    if n < 2:
        return None
    rng = sub_rng(seed, "beat-split", cell.name, subject)
    order = rng.permutation(n)
    cut = int(round(SINGLE_SESSION_ENROLL_FRACTION * n))
    cut = min(max(cut, 1), n - 1)
    enroll_idx = sorted(int(i) for i in order[:cut])
    probe_idx = sorted(int(i) for i in order[cut:])
    return enroll_idx, probe_idx


def _realize_plan(plan: SplitPlan, cell: RegimeCell, store: SegmentStore,
                  seed: int):
    """Turn SegmentSources into concrete segments, enforcing no sample overlap
    between the enrollment and probe sides of any record."""
    realized = {}
    dropped = []
    for subject, split in plan.subjects.items():
        data = _SubjectData(subject_id=subject)
        sessions = []
        ok = True
        for side, sources in (("enroll", split.enroll), ("probe", split.probe)):
            for source in sources:
                prepared = store.prepare(source)
                n = len(prepared.segments)
                idx = range(n)
                if source.beat_role is not None:
                    picked = _split_beats(n, subject, cell, seed)
                    if picked is None:
                        ok = False
                        break
                    idx = picked[0] if source.beat_role == "enroll" else picked[1]
                segs = [prepared.segments[i] for i in idx]
                spans = [(source.record_key, *prepared.spans[i]) for i in idx]
                feats = [prepared.features[i] for i in idx]
                if side == "enroll":
                    data.enroll_segments.extend(segs)
                    data.enroll_features.extend(feats)
                    data.enroll_spans.extend(spans)
                    sessions.extend(s.key.session_id for s in segs)
                else:
                    if segs:
                        data.probe_groups.append(segs)
                        data.probe_features.append(feats)
                        data.probe_spans.extend(spans)
            if not ok:
                break
        data.sessions = tuple(dict.fromkeys(sessions))
        if not ok or not data.enroll_segments or not data.probe_groups:
            dropped.append(subject)
            continue
        overlap = _span_overlaps(data.enroll_spans, data.probe_spans)
        if overlap:
            raise SampleLeakage(
                f"enrollment/probe sample overlap for {subject}: {overlap[:3]}")
        realized[subject] = data
    return realized, dropped


def _span_overlaps(enroll_spans, probe_spans):
    """Pairs of (record-key, range) that share samples across the two sides."""
    out = []
    by_record: dict = {}
    for key, lo, hi in enroll_spans:
        by_record.setdefault(key, []).append((lo, hi))
    for key, lo, hi in probe_spans:
        for elo, ehi in by_record.get(key, ()):
            if lo < ehi and elo < hi:
                out.append((key, (elo, ehi), (lo, hi)))
    return out


def _present(features) -> list:
    """The features of the non-constant segments, in order."""
    return [f for f in features if f is not None]


def evaluate_cell(cfg: RunConfig, cell: RegimeCell, store: SegmentStore,
                  seed: int) -> dict:
    """Run one (regime, setting) cell for one seed; returns the metric record."""
    plan = map_regime(store.index, cell)
    realized, dropped = _realize_plan(plan, cell, store, seed)
    if not realized:
        raise RegimeUnsatisfiable(f"{cell.name}: no subject survived realization")
    subjects_used = sorted(realized)
    cell_warnings = set()

    if cell.setting == "open":
        part_seed = cell.split_seed if cell.split_seed is not None else \
            stable_seed(seed, "partition", cell.name)
        train_subjects, eval_subjects = subject_partition(
            subjects_used, cell.open_ratio, part_seed)
    else:
        train_subjects = eval_subjects = subjects_used

    if cfg.embedder.kind == "mlp":
        label_of = {s: i for i, s in enumerate(train_subjects)}
        rows, labels, originals = [], [], []
        for subject in train_subjects:
            data = realized[subject]
            present = _present(data.enroll_features)
            rows.extend(present)
            labels.extend([label_of[subject]] * len(present))
            originals.extend(data.enroll_segments)
        if cfg.embedder.augment.multiplier > 0:
            # Augmented copies are new segments, so only they need new features.
            augmented = augment_training_set(
                originals, cfg.embedder.augment,
                stable_seed(seed, "augment", cell.name, cell.setting))
            for seg in augmented[len(originals):]:
                row = _feature_of(seg, cfg)
                if row is not None:
                    rows.append(row)
                    labels.append(label_of[seg.key.subject_id])
        model, _losses = mlp_train(
            np.stack(rows), np.asarray(labels), hidden_dim=cfg.embedder.hidden_dim,
            lr=cfg.embedder.lr, epochs=cfg.embedder.epochs, batch=cfg.embedder.batch,
            seed=stable_seed(seed, "mlp", cell.name, cell.setting))
        embed_rows = lambda feats: list(mlp_embed(model, np.stack(feats)))
    else:
        embed_rows = lambda feats: [np.asarray(f, dtype=float) for f in feats]

    gallery = []
    probe_vectors = []
    probe_subjects = []
    final_eval = []
    for subject in eval_subjects:
        data = realized[subject]
        enroll_rows = _present(data.enroll_features)
        probe_rows_by_group = [rows for rows in map(_present, data.probe_features)
                               if rows]
        if not enroll_rows or not probe_rows_by_group:
            dropped.append(subject)
            continue
        final_eval.append(subject)
        enroll_emb = embed_rows(enroll_rows)
        gallery.append(biometric.build_template(
            enroll_emb, subject, fusion=cfg.evaluation.template_fusion,
            size=cfg.evaluation.template_size, metric=cfg.evaluation.metric,
            source_sessions=data.sessions))
        for rows in probe_rows_by_group:
            fused = biometric.fuse_probes(embed_rows(rows),
                                          cfg.evaluation.probe_fusion_k)
            probe_vectors.extend(fused)
            probe_subjects.extend([subject] * len(fused))

    if len(final_eval) < 2:
        raise RegimeUnsatisfiable(
            f"{cell.name}|{cell.setting}: fewer than two evaluable subjects")

    matrix = biometric.score_matrix(gallery, probe_vectors, probe_subjects,
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
            "subjects_used": len(final_eval),
            "subjects_excluded": total - len(final_eval),
            "train_subjects": len(train_subjects),
            "gallery_size": len(gallery),
            "probe_count": len(probe_vectors),
            "genuine_pairs": int(pairs.genuine.size),
            "impostor_pairs": int(pairs.impostor.size),
        },
        "warnings": sorted(cell_warnings),
        "diag": {
            "train_subjects": list(train_subjects),
            "eval_subjects": list(final_eval),
            "excluded": sorted(set(list(plan.excluded) + dropped)),
        },
    }
    return record


def run_evaluation(cfg: RunConfig, seed: int, store: SegmentStore | None = None,
                   cells=None) -> dict:
    """All requested (regime, setting) cells for one seed.

    The optional store lets callers share preprocessing across seeds; results
    are identical either way.
    """
    if store is None:
        index, recordings = load_dataset_from_config(cfg.dataset)
        store = SegmentStore(cfg, index, recordings)
    out = {}
    for cell in (cells if cells is not None else cfg.regimes):
        out[cell.key] = evaluate_cell(cfg, cell, store, seed)
    return out


def aggregate_runs(per_seed_records: list, config_digest: str = "",
                   seeds=()) -> MetricsReport:
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
    return MetricsReport(cells=cells, config_digest=config_digest,
                         seeds=tuple(seeds))

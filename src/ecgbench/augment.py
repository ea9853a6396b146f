"""Training-only augmentation of beat segments.

Per-copy randomness is keyed by (seed, segment provenance, copy index), so the
expanded set is invariant to input ordering and parallel scheduling. The
evaluation path never calls into this module; the regimes orchestrator feeds
augmented data to embedder training only.
"""

from dataclasses import replace

import numpy as np

from .dsp import resample_fourier
from .segment import Segment
from .util import sub_rng


def apply_augmentation(seg: Segment, op, seed: int) -> Segment:
    """One augmentation op on one segment; op is AugmentOpConfig-shaped."""
    rng = sub_rng(seed, op.kind)
    x = np.asarray(seg.samples, dtype=float)
    if op.kind == "amplitude_scale":
        out = x * rng.uniform(op.scale_low, op.scale_high)
    elif op.kind == "gaussian_noise":
        out = x + rng.normal(0.0, op.sigma, size=len(x)) if op.sigma > 0 else x.copy()
    elif op.kind == "time_shift":
        max_k = int(round(op.max_shift_s * seg.fs))
        k = int(rng.integers(-max_k, max_k + 1)) if max_k > 0 else 0
        out = np.zeros_like(x)
        if k > 0:
            out[k:] = x[:-k]
        elif k < 0:
            out[:k] = x[-k:]
        else:
            out = x.copy()
    elif op.kind == "random_crop":
        keep = max(2, int(round(op.crop_fraction * len(x))))
        start = int(rng.integers(0, len(x) - keep + 1))
        out = resample_fourier(x[start: start + keep], len(x))
    else:
        raise ValueError(f"unknown augmentation kind {op.kind!r}")
    return replace(seg, samples=out)


def _provenance_key(seg: Segment) -> tuple:
    # Flat, not (RecordKey(...), position): stable_seed hashes the repr.
    return (*seg.key, seg.position)


def augment_training_set(segments, spec, seed: int) -> list[Segment]:
    """Originals plus spec.multiplier augmented copies per original.

    Each copy applies spec.ops in order, seeded independently per
    (segment, copy), so the output multiset does not depend on input order.
    """
    if not segments:
        raise ValueError("augment_training_set needs a non-empty segment list")
    out = list(segments)
    for seg in segments:
        key = _provenance_key(seg)
        for copy_idx in range(spec.multiplier):
            work = seg
            for op_idx, op in enumerate(spec.ops):
                work = apply_augmentation(
                    work, op, sub_rng(seed, key, copy_idx, op_idx).integers(2**63))
            out.append(work)
    return out

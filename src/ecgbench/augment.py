"""Training-only augmentation of beat segments, given as rows of samples.

Per-copy randomness is keyed by (seed, segment provenance, copy index), where
a segment's provenance is its record key and its position (its row in the
record's preparation), so each copy is invariant to input ordering and
parallel scheduling. The evaluation path never calls into this module; the
regimes orchestrator feeds augmented data to embedder training only.
"""

import numpy as np

from .dsp import resample_fourier
from .util import sub_rng


def apply_augmentation(x, fs: float, op, seed: int) -> np.ndarray:
    """One augmentation op on the samples x of one segment at fs Hz; op is a
    core.AugmentOpConfig, whose kind is checked when it is built."""
    rng = sub_rng(seed, op.kind)
    x = np.asarray(x, dtype=float)
    if op.kind == "amplitude_scale":
        out = x * rng.uniform(op.scale_low, op.scale_high)
    elif op.kind == "gaussian_noise":
        out = x + rng.normal(0.0, op.sigma, size=len(x)) if op.sigma > 0 else x.copy()
    elif op.kind == "time_shift":
        max_k = int(round(op.max_shift_s * fs))
        k = int(rng.integers(-max_k, max_k + 1)) if max_k > 0 else 0
        out = np.zeros_like(x)
        if k > 0:
            out[k:] = x[:-k]
        elif k < 0:
            out[:k] = x[-k:]
        else:
            out = x.copy()
    else:  # random_crop
        keep = max(2, int(round(op.crop_fraction * len(x))))
        start = int(rng.integers(0, len(x) - keep + 1))
        out = resample_fourier(x[start: start + keep], len(x))
    return out


def augment_training_set(rows, fs: float, record_key, positions, spec,
                         seed: int) -> np.ndarray:
    """spec.multiplier augmented copies of each row of an (n, L) block of
    segments at fs Hz, in (row, copy) order; row i is the segment at
    positions[i] of record_key.

    Each copy applies spec.ops in order, seeded independently per
    (segment, copy), so a row's copies do not depend on the other rows.
    """
    out = np.empty((len(rows) * spec.multiplier, rows.shape[1]))
    for i, (row, position) in enumerate(zip(rows, positions)):
        # Flat Python ints, not (RecordKey(...), np.int64(...)): stable_seed
        # hashes the repr.
        key = (*record_key, int(position))
        for copy_idx in range(spec.multiplier):
            work = row
            for op_idx, op in enumerate(spec.ops):
                work = apply_augmentation(
                    work, fs, op, sub_rng(seed, key, copy_idx, op_idx).integers(2**63))
            out[i * spec.multiplier + copy_idx] = work
    return out

"""Beat-based and blind sliding-window segmentation of clean signals."""

from dataclasses import dataclass

import numpy as np

from .core import RecordKey
from .errors import WindowLongerThanSignal, WindowTooShort


@dataclass(frozen=True)
class Segment:
    """A fixed-length window cut from a signal: samples[i] is signal[start + i].

    A beat's R sample is start + round(pre_s * fs); a blind window starts at a
    multiple of round(stride_s * fs).
    """
    samples: np.ndarray
    start: int
    fs: float
    position: int
    key: RecordKey | None = None


def window_argmax(x: np.ndarray, centres: np.ndarray, half: int) -> np.ndarray:
    """Index of the maximum of x within +/- half samples of each centre, the
    earliest on ties; windows are cut at the ends of x."""
    grid = np.clip(centres[:, None] + np.arange(-half, half + 1), 0, len(x) - 1)
    return grid[np.arange(len(grid)), np.argmax(x[grid], axis=1)]


def align_peak(x, peaks, fs: float, half_window_s: float = 0.05):
    """Index of max |x| within +/- half_window_s of each peak; ties go earliest.

    An int peak gives an int, an array of peaks an array. Uses |x| so
    inverted-lead polarity still lands on the QRS extremum. Idempotent:
    realigning an aligned peak returns it unchanged.
    """
    x = np.asarray(x)
    centres = np.asarray(peaks, dtype=int)
    outside = (centres < 0) | (centres >= len(x))
    if outside.any():
        raise ValueError(f"peak {centres[outside].flat[0]} outside signal of "
                         f"{len(x)} samples")
    aligned = window_argmax(np.abs(x), centres.reshape(-1), int(round(half_window_s * fs)))
    return int(aligned[0]) if centres.ndim == 0 else aligned


def segment_beats(x, fs: float, peaks, pre_s: float, post_s: float,
                  align: bool = True, key: RecordKey | None = None) -> list[Segment]:
    """One segment per peak index whose window fits inside the signal.

    Out-of-bounds beats are dropped, never padded; position indices are
    sequential over the kept beats.
    """
    if pre_s <= 0 or post_s <= 0:
        raise ValueError("pre_s and post_s must be positive")
    x = np.asarray(x, dtype=float)
    pre = int(round(pre_s * fs))
    length = int(round((pre_s + post_s) * fs))
    if length < 2:
        raise WindowTooShort(f"beat window of {length} sample(s) at {fs} Hz; "
                             f"a segment needs at least 2")
    peaks = np.asarray(peaks, dtype=int).reshape(-1)
    starts = (align_peak(x, peaks, fs) if align else peaks) - pre
    starts = starts[(starts >= 0) & (starts + length <= len(x))]
    return [Segment(samples=x[start: start + length].copy(), start=start, fs=fs,
                    position=i, key=key)
            for i, start in enumerate(starts.tolist())]


def segment_blind(x, fs: float, window_s: float, stride_s: float,
                  key: RecordKey | None = None) -> list[Segment]:
    """Sliding windows at starts 0, stride, 2*stride, ... while they fit."""
    if not 0 < stride_s <= window_s:
        raise ValueError("need 0 < stride_s <= window_s")
    x = np.asarray(x, dtype=float)
    w = int(round(window_s * fs))
    s = int(round(stride_s * fs))
    if w < 2 or s < 1:
        raise WindowTooShort(f"blind window of {w} and stride of {s} sample(s) at "
                             f"{fs} Hz; need a window of at least 2 and a stride of 1")
    if w > len(x):
        raise WindowLongerThanSignal(f"window of {w} samples on {len(x)}-sample signal")
    count = (len(x) - w) // s + 1
    return [
        Segment(samples=x[i * s: i * s + w].copy(), start=i * s, fs=fs, position=i, key=key)
        for i in range(count)
    ]

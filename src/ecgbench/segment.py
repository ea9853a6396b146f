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


def align_peak(x, peak: int, fs: float, half_window_s: float = 0.05) -> int:
    """Index of max |x| within +/- half_window_s of peak; ties go earliest.

    Uses |x| so inverted-lead polarity still lands on the QRS extremum.
    Idempotent: realigning an aligned peak returns it unchanged.
    """
    x = np.asarray(x)
    if not 0 <= peak < len(x):
        raise ValueError(f"peak {peak} outside signal of {len(x)} samples")
    half = int(round(half_window_s * fs))
    lo = max(0, peak - half)
    hi = min(len(x), peak + half + 1)
    return lo + int(np.argmax(np.abs(x[lo:hi])))


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
    segments = []
    for peak in np.asarray(peaks, dtype=int):
        peak = align_peak(x, int(peak), fs) if align else int(peak)
        start = peak - pre
        if start < 0 or start + length > len(x):
            continue
        segments.append(Segment(samples=x[start: start + length].copy(), start=start,
                                fs=fs, position=len(segments), key=key))
    return segments


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

"""Pan-Tompkins R-peak detection.

The classic stage chain: 5-15 Hz band-pass, five-point derivative, squaring,
150 ms moving-window integration, then dual adaptive thresholds with a 200 ms
refractory period and RR-based search-back. The derivative and integration
kernels are applied centered (zero group delay), so detected events line up
with the QRS and the final +/-50 ms snap to the signal maximum suffices.

The detector runs at the native sampling rate with millisecond-parameterized
windows; thresholds are seeded deterministically from the first two seconds.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import FilterSpec, apply_filter
from .errors import NoPeaksDetected, SamplingRateTooLow, SignalTooShort
from .segment import window_argmax

REFRACTORY_S = 0.2
INTEGRATION_S = 0.15
SEARCHBACK_FACTOR = 1.66
LEVEL_KEEP = 0.875  # exponential threshold update: new = 0.125 peak + 0.875 old
RR_HISTORY = 8
SNAP_S = 0.05
MIN_FS_HZ = 100  # the detector's floor; ecgbench run rejects a record below it
BAND = FilterSpec(kind="butterworth_bandpass", order=2, low_hz=5.0, high_hz=15.0)


@dataclass(frozen=True)
class PeakList:
    indices: np.ndarray
    fs: float
    detector: str = "pan-tompkins"

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        object.__setattr__(self, "indices", idx)
        if np.any(np.diff(idx) <= 0):
            raise ValueError("peak indices must be strictly increasing")
        refr = int(round(REFRACTORY_S * self.fs))
        if np.any(np.diff(idx) < refr):
            raise ValueError("peaks violate the refractory spacing")

    def __len__(self):
        return len(self.indices)


def running_rr(history) -> float | None:
    """Mean of the last RR_HISTORY intervals of increasing int sample indices,
    or None before two. The interval sum telescopes, so this equals the mean
    of the diffs exactly."""
    if len(history) < 2:
        return None
    k = min(len(history), RR_HISTORY + 1)
    return (history[-1] - history[-k]) / (k - 1)


def _searchback_gap(accepted) -> float | None:
    """The gap since the last acceptance past which search-back runs."""
    rr = running_rr(accepted)
    return None if rr is None else SEARCHBACK_FACTOR * rr


def _centered_convolve(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    full = np.convolve(x, kernel, mode="full")
    offset = (len(kernel) - 1) // 2
    return full[offset: offset + len(x)]


def _local_maxima(x: np.ndarray) -> np.ndarray:
    left = x[1:-1] > x[:-2]
    right = x[1:-1] >= x[2:]
    positive = x[1:-1] > 0
    return np.nonzero(left & right & positive)[0] + 1


def check_rate(fs: float):
    """Raise SamplingRateTooLow for a rate below the detector's floor."""
    if fs < MIN_FS_HZ:
        raise SamplingRateTooLow(f"detector needs fs >= {MIN_FS_HZ} Hz, got {fs}")


def pan_tompkins(x, fs: float) -> PeakList:
    """Detect R peaks; raises NoPeaksDetected when fewer than two are found."""
    check_rate(fs)
    x = np.asarray(x, dtype=float)
    if len(x) < 2 * fs:
        raise SignalTooShort("detector needs at least 2 s of signal")

    band = apply_filter(BAND, x, fs)
    derivative = _centered_convolve(band, np.array([2.0, 1.0, 0.0, -1.0, -2.0]) / 8.0)
    squared = derivative**2
    win = max(1, int(round(INTEGRATION_S * fs)))
    integrated = _centered_convolve(squared, np.ones(win) / win)

    candidates = _local_maxima(integrated)
    if candidates.size == 0:
        raise NoPeaksDetected("no candidate maxima in the integrated signal")

    init = integrated[: int(2 * fs)]
    # Signal and noise levels; an acceptance moves spki, a rejection npki.
    spki = 0.25 * float(init.max())
    npki = 0.5 * float(init.mean())
    threshold = npki + 0.25 * (spki - npki)
    refr = int(round(REFRACTORY_S * fs))
    accepted: list[int] = []
    rejected: list[int] = []
    gap = None  # changes only with accepted, so it is recomputed only then

    # Python floats and ints: the same float64 arithmetic as numpy scalars,
    # without a numpy scalar per candidate. Every index the loop reads
    # (idx, best, accepted[-1]) is a candidate, so only candidates are kept.
    # Candidates come in increasing order, so every rejected one precedes idx.
    cands = candidates.tolist()
    values = dict(zip(cands, integrated[candidates].tolist()))
    for idx in cands:
        if gap is not None and idx - accepted[-1] > gap and rejected:
            # Missed-beat search-back: best earlier candidate above half threshold.
            window = [j for j in rejected if j >= accepted[-1] + refr]
            if window:
                best = max(window, key=values.__getitem__)
                if values[best] > 0.5 * threshold:
                    spki = (1.0 - LEVEL_KEEP) * values[best] + LEVEL_KEEP * spki
                    threshold = npki + 0.25 * (spki - npki)
                    accepted.append(best)
                    gap = _searchback_gap(accepted)
        value = values[idx]
        if accepted and idx - accepted[-1] < refr:
            # Within the refractory window only a strictly larger event may
            # replace the previous acceptance (e.g. QRS arriving right after a
            # mistakenly accepted P bump); smaller ones are ignored.
            if value > values[accepted[-1]]:
                accepted[-1] = idx
                spki = (1.0 - LEVEL_KEEP) * value + LEVEL_KEEP * spki
                threshold = npki + 0.25 * (spki - npki)
                gap = _searchback_gap(accepted)
            continue
        if value > threshold:
            spki = (1.0 - LEVEL_KEEP) * value + LEVEL_KEEP * spki
            threshold = npki + 0.25 * (spki - npki)
            accepted.append(idx)
            gap = _searchback_gap(accepted)
            rejected.clear()
        else:
            npki = (1.0 - LEVEL_KEEP) * value + LEVEL_KEEP * npki
            threshold = npki + 0.25 * (spki - npki)
            rejected.append(idx)

    if len(accepted) < 2:
        raise NoPeaksDetected(f"only {len(accepted)} events above threshold")

    # Snap each event to the local signal maximum within +/- SNAP_S.
    snapped = window_argmax(x, np.asarray(accepted), int(round(SNAP_S * fs)))
    snapped = sorted(set(snapped.tolist()))
    final = [snapped[0]]
    for idx in snapped[1:]:
        if idx - final[-1] >= refr:
            final.append(idx)
    if len(final) < 2:
        raise NoPeaksDetected("fewer than two distinct peaks after snapping")
    return PeakList(indices=np.asarray(final, dtype=int), fs=fs)

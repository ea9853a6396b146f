"""Pan-Tompkins R-peak detection.

The classic stage chain: 5-15 Hz band-pass, five-point derivative, squaring,
150 ms moving-window integration, then dual adaptive thresholds with a 200 ms
refractory period and RR-based search-back. The derivative and integration
kernels are applied centered (zero group delay), so detected events line up
with the QRS and the final +/-50 ms snap to the signal maximum suffices.

The detector runs at the native sampling rate with millisecond-parameterized
windows; thresholds are seeded deterministically from the first two seconds.
"""

from dataclasses import dataclass, field

import numpy as np

from .dsp import FilterSpec, apply_filter
from .errors import NoPeaksDetected, SamplingRateTooLow, SignalTooShort

REFRACTORY_S = 0.2
INTEGRATION_S = 0.15
SEARCHBACK_FACTOR = 1.66
LEVEL_KEEP = 0.875  # exponential threshold update: new = 0.125 peak + 0.875 old
RR_HISTORY = 8
SNAP_S = 0.05


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


@dataclass
class _Thresholds:
    spki: float
    npki: float
    history: list = field(default_factory=list)

    @property
    def threshold(self) -> float:
        return self.npki + 0.25 * (self.spki - self.npki)

    def running_rr(self) -> float | None:
        """Mean of the last RR_HISTORY intervals. The interval sum telescopes, and
        the history holds ints, so this equals the mean of the diffs exactly."""
        h = self.history
        if len(h) < 2:
            return None
        k = min(len(h), RR_HISTORY + 1)
        return (h[-1] - h[-k]) / (k - 1)

    def accept(self, value: float, index: int):
        self.spki = (1.0 - LEVEL_KEEP) * value + LEVEL_KEEP * self.spki
        self.history.append(index)

    def reject(self, value: float):
        self.npki = (1.0 - LEVEL_KEEP) * value + LEVEL_KEEP * self.npki


def _centered_convolve(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    full = np.convolve(x, kernel, mode="full")
    offset = (len(kernel) - 1) // 2
    return full[offset: offset + len(x)]


def _local_maxima(x: np.ndarray) -> np.ndarray:
    left = x[1:-1] > x[:-2]
    right = x[1:-1] >= x[2:]
    positive = x[1:-1] > 0
    return np.nonzero(left & right & positive)[0] + 1


def pan_tompkins(x, fs: float) -> PeakList:
    """Detect R peaks; raises NoPeaksDetected when fewer than two are found."""
    if fs < 100:
        raise SamplingRateTooLow(f"detector needs fs >= 100 Hz, got {fs}")
    x = np.asarray(x, dtype=float)
    if len(x) < 2 * fs:
        raise SignalTooShort("detector needs at least 2 s of signal")

    band = apply_filter(
        FilterSpec(kind="butterworth_bandpass", order=2, low_hz=5.0, high_hz=15.0),
        x, fs)
    derivative = _centered_convolve(band, np.array([2.0, 1.0, 0.0, -1.0, -2.0]) / 8.0)
    squared = derivative**2
    win = max(1, int(round(INTEGRATION_S * fs)))
    integrated = _centered_convolve(squared, np.ones(win) / win)

    candidates = _local_maxima(integrated)
    if candidates.size == 0:
        raise NoPeaksDetected("no candidate maxima in the integrated signal")

    init = integrated[: int(2 * fs)]
    levels = _Thresholds(spki=0.25 * float(init.max()), npki=0.5 * float(init.mean()))
    refr = int(round(REFRACTORY_S * fs))
    accepted: list[int] = []
    rejected: list[int] = []

    # Python floats and ints: the same float64 arithmetic as numpy scalars,
    # without a numpy scalar per candidate.
    values = integrated.tolist()
    for idx in candidates.tolist():
        rr = levels.running_rr()
        if (rr is not None and accepted
                and idx - accepted[-1] > SEARCHBACK_FACTOR * rr and rejected):
            # Missed-beat search-back: best earlier candidate above half threshold.
            window = [j for j in rejected if accepted[-1] + refr <= j < idx]
            if window:
                best = max(window, key=values.__getitem__)
                if values[best] > 0.5 * levels.threshold:
                    levels.accept(values[best], best)
                    accepted.append(best)
        value = values[idx]
        if accepted and idx - accepted[-1] < refr:
            # Within the refractory window only a strictly larger event may
            # replace the previous acceptance (e.g. QRS arriving right after a
            # mistakenly accepted P bump); smaller ones are ignored.
            if value > values[accepted[-1]]:
                levels.history.pop()
                accepted[-1] = idx
                levels.accept(value, idx)
            continue
        if value > levels.threshold:
            levels.accept(value, idx)
            accepted.append(idx)
            rejected = [j for j in rejected if j > idx]
        else:
            levels.reject(value)
            rejected.append(idx)

    if len(accepted) < 2:
        raise NoPeaksDetected(f"only {len(accepted)} events above threshold")

    # Snap each event to the local signal maximum within +/- SNAP_S.
    snap = int(round(SNAP_S * fs))
    snapped = []
    for idx in accepted:
        lo = max(0, idx - snap)
        hi = min(len(x), idx + snap + 1)
        snapped.append(lo + int(np.argmax(x[lo:hi])))
    snapped = sorted(set(snapped))
    final = [snapped[0]]
    for idx in snapped[1:]:
        if idx - final[-1] >= refr:
            final.append(idx)
    if len(final) < 2:
        raise NoPeaksDetected("fewer than two distinct peaks after snapping")
    return PeakList(indices=np.asarray(final, dtype=int), fs=fs)

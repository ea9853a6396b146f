"""Filtering, resampling, and normalization primitives plus the preprocessing orchestrator.

The three filter kinds: a Butterworth band-pass, built from the analog
prototype via the bilinear transform with frequency pre-warping and realized
as second-order sections; a Hamming-windowed sinc FIR band-pass; and an RBJ
biquad notch. Each is applied with zero phase: the squared magnitude response
on the DFT grid (forward-backward filtering in circular convolution
semantics), which keeps it exactly linear, length-preserving, and
time-reversal symmetric.

Every filter is built here from numpy alone; nothing in ecgbench imports
scipy. A filter is a core.FilterSpec (core reads configs without this module),
which checks its field and cross-field rules when it is built, so its kind is
one dsp knows. So dsp checks only what depends on fs or the signal: a band
that fs cannot hold, an FIR longer than MAX_FIR_TAPS, a signal too short to
filter.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import FilterSpec
from .errors import BandOutOfRange, ConfigError, FilterTooLong, SignalTooShort, ZeroVariance

# Desk-scale budget of FIR taps (8 MB of float64), far above the ~825 taps of
# a 2 Hz transition at 500 Hz.
MAX_FIR_TAPS = 1_000_000


@dataclass(frozen=True)
class Biquad:
    """Second-order section with a0 normalized to 1."""
    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def is_stable(self) -> bool:
        return abs(self.a2) < 1.0 and abs(self.a1) < 1.0 + self.a2


@dataclass(frozen=True)
class BiquadCascade:
    sections: tuple[Biquad, ...]
    gain: float = 1.0

    def is_stable(self) -> bool:
        return all(s.is_stable() for s in self.sections)

    def response(self, freqs, fs: float) -> np.ndarray:
        """Complex frequency response at the given frequencies in Hz."""
        z1 = np.exp(-2j * np.pi * np.asarray(freqs, dtype=float) / fs)
        h = np.full(z1.shape, self.gain, dtype=complex)
        for s in self.sections:
            h *= (s.b0 + s.b1 * z1 + s.b2 * z1 * z1) / (1.0 + s.a1 * z1 + s.a2 * z1 * z1)
        return h


def _prototype_poles(order: int) -> list[complex]:
    # Left-half-plane poles of the analog Butterworth prototype (wc = 1).
    return [
        np.exp(1j * math.pi * (2 * k + order - 1) / (2 * order))
        for k in range(1, order + 1)
    ]


def _bilinear(poles_s, fs: float) -> list[complex]:
    k = 2.0 * fs
    return [(k + s) / (k - s) for s in poles_s]


def _pair_into_sections(zpoles) -> list[Biquad]:
    """Group digital band-pass poles into real-coefficient biquads, each with
    one zero at z=+1 and one at z=-1.

    The band transform turns each prototype pole into two poles, a conjugate
    pair or two real ones, so the real poles pair up with none left over.
    """
    tol = 1e-10
    complex_poles = [z for z in zpoles if z.imag > tol]
    real_poles = sorted(z.real for z in zpoles if abs(z.imag) <= tol)
    sections = [
        Biquad(1.0, 0.0, -1.0, -2.0 * z.real, abs(z) ** 2) for z in complex_poles
    ]
    for ra, rb in zip(real_poles[0::2], real_poles[1::2]):
        sections.append(Biquad(1.0, 0.0, -1.0, -(ra + rb), ra * rb))
    return sections


def design_butterworth(order: int, fs: float, low_hz: float, high_hz: float) -> BiquadCascade:
    """Butterworth band-pass (low_hz..high_hz) cascade of ``order`` sections.

    Analog prototype poles are mapped with the band transform, then the
    bilinear transform with pre-warped edges. The gain is normalized to
    exactly 1 at the geometric band center.
    """
    if not 1 <= order <= 8:
        raise ValueError(f"order must be in [1, 8], got {order}")
    nyq = fs / 2.0
    if not 0.0 < low_hz < high_hz < nyq:
        raise BandOutOfRange(f"band {low_hz}-{high_hz} Hz outside (0, {nyq}) Hz")
    warp = lambda f: 2.0 * fs * math.tan(math.pi * f / fs)
    w1, w2 = warp(low_hz), warp(high_hz)
    w0sq, bw = w1 * w2, w2 - w1
    poles_s = []
    for p in _prototype_poles(order):
        half = p * bw / 2.0
        disc = np.sqrt(half * half - w0sq + 0j)
        poles_s.extend([half + disc, half - disc])
    # Where 2 fs overflows, the pre-warped edges are inf and the poles NaN; the
    # bilinear map would warn on them and pair none into a section.
    if not all(cmath.isfinite(s) for s in poles_s):
        raise BandOutOfRange(f"design produced non-finite poles at {fs} Hz")
    cascade = BiquadCascade(tuple(_pair_into_sections(_bilinear(poles_s, fs))))
    if len(cascade.sections) != order:
        raise BandOutOfRange(f"design produced {len(cascade.sections)} sections, "
                             f"not {order}")
    # Checked before the reference response, which an unstable design can
    # overflow; the gain does not change stability.
    if not cascade.is_stable():
        raise BandOutOfRange("design produced an unstable section (band too extreme)")
    ref = abs(cascade.response([math.sqrt(low_hz * high_hz)], fs)[0])
    if ref == 0.0:
        raise BandOutOfRange("degenerate design: zero response at reference frequency")
    return BiquadCascade(cascade.sections, gain=1.0 / ref)


def design_notch(notch_hz: float, q: float, fs: float) -> BiquadCascade:
    """Second-order IIR notch (RBJ biquad), unity gain away from the notch."""
    if not 0.0 < notch_hz < fs / 2.0:
        raise BandOutOfRange(f"notch {notch_hz} Hz outside (0, {fs / 2}) Hz")
    w0 = 2.0 * math.pi * notch_hz / fs
    alpha = math.sin(w0) / (2.0 * q)
    a0 = 1.0 + alpha
    section = Biquad(
        1.0 / a0, -2.0 * math.cos(w0) / a0, 1.0 / a0,
        -2.0 * math.cos(w0) / a0, (1.0 - alpha) / a0,
    )
    return BiquadCascade((section,), gain=1.0)


def design_fir_bandpass(
    low_hz: float, high_hz: float, fs: float, transition_hz: float = 2.0
) -> np.ndarray:
    """Hamming-windowed sinc band-pass taps, odd length round(3.3 fs / transition).

    FilterTooLong names a length past MAX_FIR_TAPS, checked before any array
    is made.
    """
    if not 0.0 < low_hz < high_hz < fs / 2.0:
        raise BandOutOfRange(f"band {low_hz}-{high_hz} Hz outside (0, {fs / 2}) Hz")
    length = 3.3 * fs / transition_hz
    if not length <= MAX_FIR_TAPS:
        raise FilterTooLong(f"fir_bandpass of transition_hz {transition_hz} at {fs} Hz "
                            f"needs {length:.3g} taps, past the budget of {MAX_FIR_TAPS}")
    n = int(round(length))
    if n % 2 == 0:
        n += 1
    m = (n - 1) // 2
    t = np.arange(n) - m
    fl, fh = low_hz / fs, high_hz / fs
    taps = 2.0 * fh * np.sinc(2.0 * fh * t) - 2.0 * fl * np.sinc(2.0 * fl * t)
    taps *= np.hamming(n)
    fc = math.sqrt(low_hz * high_hz)
    ref = abs(np.sum(taps * np.exp(-2j * np.pi * fc / fs * np.arange(n))))
    return taps / ref


@functools.cache
def design_filter(spec: FilterSpec, fs: float):
    """The design of a spec at fs: (cascade or None, taps or None, effective
    filter length). BandOutOfRange names a band that fs cannot hold, and
    FilterTooLong an FIR past MAX_FIR_TAPS.

    Each (spec, fs) is designed once and shared, so FIR taps are read-only. A
    design that raises is not kept, so it raises again.
    """
    if spec.kind == "butterworth_bandpass":
        casc = design_butterworth(spec.order, fs, low_hz=spec.low_hz, high_hz=spec.high_hz)
        return casc, None, 4 * spec.order + 1
    if spec.kind == "notch":
        return design_notch(spec.notch_hz, spec.q, fs), None, 3
    taps = design_fir_bandpass(spec.low_hz, spec.high_hz, fs, spec.transition_hz)
    taps.flags.writeable = False
    return None, taps, len(taps)


@functools.lru_cache(maxsize=2)
def _zero_phase_gain(spec: FilterSpec, n: int, fs: float) -> np.ndarray:
    """|H|^2 of a spec on the rfft grid of an n-sample signal.

    Preprocessing and the detector's band-pass alternate on records of one
    length, so two entries serve both. The array is read-only because every
    caller shares it.
    """
    cascade, taps, _ = design_filter(spec, fs)
    if cascade is not None:
        h = cascade.response(np.fft.rfftfreq(n, d=1.0 / fs), fs)
    else:
        h = np.fft.rfft(taps, n=n)
    gain = (h * np.conj(h)).real
    gain.flags.writeable = False
    return gain


def apply_filter(spec: FilterSpec, x, fs: float) -> np.ndarray:
    """Apply one filter with zero phase; output has the same length as the input."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("apply_filter expects a 1-D signal")
    _, _, flen = design_filter(spec, fs)
    if len(x) <= 3 * flen:
        raise SignalTooShort(f"zero_phase needs more than {3 * flen} samples, got {len(x)}")
    gain = _zero_phase_gain(spec, len(x), fs)
    return np.fft.irfft(np.fft.rfft(x) * gain, n=len(x))


def resample_fourier(x, target_len: int) -> np.ndarray:
    """Fourier-domain resampling of each row (last axis) to target_len samples.

    Forward DFT, symmetric truncation/zero-padding of the spectrum (with
    Nyquist-bin splitting so real input stays real), inverse DFT, and
    target_len/len(row) amplitude correction. A row of a batch gets the same
    bits as the row on its own.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    m = int(target_len)
    if n < 2 or m < 2:
        raise ValueError("resample_fourier needs rows of >= 2 samples and target_len >= 2")
    if m == n:
        return x.copy()
    spec = np.fft.fft(x)
    out = np.zeros(x.shape[:-1] + (m,), dtype=complex)
    keep = min(n, m)
    pos = (keep - 1) // 2  # strictly positive bins kept
    out[..., : pos + 1] = spec[..., : pos + 1]
    if pos > 0:
        out[..., m - pos:] = spec[..., n - pos:]
    if keep % 2 == 0:
        if m > n:  # split the input Nyquist bin across +/- frequencies
            out[..., n // 2] = spec[..., n // 2] / 2.0
            out[..., m - n // 2] = spec[..., n // 2] / 2.0
        else:  # fold the two aliasing input bins onto the output Nyquist bin
            out[..., m // 2] = (spec[..., m // 2] + spec[..., n - m // 2]) / 2.0
    y = np.fft.ifft(out) * (m / n)
    residue = np.max(np.abs(y.imag), axis=-1)
    scale = np.max(np.abs(y.real), axis=-1) + 1e-30
    if np.any(residue > 1e-9 * np.maximum(scale, 1.0)):
        raise AssertionError("resample produced a non-negligible imaginary part")
    return y.real


def normalize(x, method: str = "zscore") -> np.ndarray:
    """Per-segment scaling of each row (last axis): zscore (population std) or
    minmax to [0, 1]. Raises ZeroVariance if any row is constant."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise ValueError("normalize needs at least 2 samples")
    span = np.ptp(x, axis=-1, keepdims=True)
    if np.any(span == 0.0):
        raise ZeroVariance("constant segment cannot be normalized")
    if method == "zscore":
        return (x - x.mean(axis=-1, keepdims=True)) / x.std(axis=-1, keepdims=True)
    if method == "minmax":
        return (x - x.min(axis=-1, keepdims=True)) / span
    raise ConfigError(f"unknown normalization {method!r}")


@dataclass(frozen=True)
class CleanSignal:
    """Filtered single-channel signal."""
    samples: np.ndarray
    fs: float


def preprocess(rec, cfg) -> CleanSignal:
    """Channel select then filter; segmentation happens downstream.

    ``rec`` needs Recording-shaped attributes (channels, fs);
    ``cfg`` needs a PreprocessConfig-shaped ``filter`` attribute.
    """
    channel = np.asarray(rec.channels[0], dtype=float)
    return CleanSignal(samples=apply_filter(cfg.filter, channel, rec.fs),
                       fs=rec.fs)

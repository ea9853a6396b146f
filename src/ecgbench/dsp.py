"""Filtering, resampling, and normalization primitives plus the preprocessing orchestrator.

IIR designs are built from the analog Butterworth prototype via the bilinear
transform with frequency pre-warping and realized as second-order sections.
Zero-phase application evaluates the squared magnitude response on the DFT
grid (forward-backward filtering in circular convolution semantics), which
keeps it exactly linear, length-preserving, and time-reversal symmetric.

scipy.signal is imported only by the Savitzky-Golay and causal branches of
apply_filter, the only code that uses it, so the default pipeline never loads
scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandOutOfRange, ConfigError, SignalTooShort, ZeroVariance

WINDOW_KINDS = ("moving_average", "median", "savitzky_golay")
IIR_KINDS = ("butterworth_bandpass", "butterworth_highpass", "notch")
FILTER_KINDS = IIR_KINDS + ("fir_bandpass",) + WINDOW_KINDS


@dataclass(frozen=True)
class FilterSpec:
    """One filtering step. Only the parameters of ``kind`` are consulted.

    phase_mode applies to the LTI kinds; the window kinds (moving_average,
    median, savitzky_golay) are symmetric by construction and ignore it.
    """
    kind: str = "butterworth_bandpass"
    phase_mode: str = "zero_phase"
    order: int = 3
    low_hz: float | None = 0.5
    high_hz: float | None = 40.0
    cut_hz: float | None = None
    notch_hz: float | None = None
    q: float = 30.0
    window_len: int | None = None
    poly_order: int | None = None
    transition_hz: float = 2.0


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

    def sos(self) -> np.ndarray:
        """scipy-style (n, 6) array; the overall gain is folded into section 0."""
        rows = np.array(
            [[s.b0, s.b1, s.b2, 1.0, s.a1, s.a2] for s in self.sections], dtype=float
        )
        rows[0, :3] *= self.gain
        return rows

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


def _pair_into_sections(zpoles, numerator) -> list[Biquad]:
    """Group digital poles into real-coefficient biquads with the given numerator."""
    b0, b1, b2 = numerator
    tol = 1e-10
    complex_poles = [z for z in zpoles if z.imag > tol]
    real_poles = sorted(z.real for z in zpoles if abs(z.imag) <= tol)
    sections = [
        Biquad(b0, b1, b2, -2.0 * z.real, abs(z) ** 2) for z in complex_poles
    ]
    for ra, rb in zip(real_poles[0::2], real_poles[1::2]):
        sections.append(Biquad(b0, b1, b2, -(ra + rb), ra * rb))
    if len(real_poles) % 2 == 1:
        # First-order leftover: drop the z^-2 terms.
        r = real_poles[-1]
        sections.append(Biquad(b0, b1, 0.0, -r, 0.0))
    return sections


def design_butterworth(
    order: int,
    fs: float,
    low_hz: float | None = None,
    high_hz: float | None = None,
    cut_hz: float | None = None,
) -> BiquadCascade:
    """Butterworth band-pass (low_hz..high_hz) or high-pass (cut_hz) cascade.

    Analog prototype poles are mapped with the band transform, then the
    bilinear transform with pre-warped edges. Band-pass gain is normalized to
    exactly 1 at the geometric band center; high-pass at the Nyquist frequency.
    """
    if not 1 <= order <= 8:
        raise ValueError(f"order must be in [1, 8], got {order}")
    nyq = fs / 2.0
    warp = lambda f: 2.0 * fs * math.tan(math.pi * f / fs)
    proto = _prototype_poles(order)

    if cut_hz is not None:
        if not 0.0 < cut_hz < nyq:
            raise BandOutOfRange(f"cut {cut_hz} Hz outside (0, {nyq}) Hz")
        w0 = warp(cut_hz)
        poles_s = [w0 / p for p in proto]
        zpoles = _bilinear(poles_s, fs)
        # One zero at DC (z = +1) per pole; first-order leftovers handled below.
        sections = _pair_into_sections(zpoles, (1.0, -2.0, 1.0))
        sections = [
            Biquad(1.0, -1.0, 0.0, s.a1, s.a2) if s.b2 == 0.0 else s for s in sections
        ]
        ref_hz = nyq
    else:
        if low_hz is None or high_hz is None:
            raise ValueError("bandpass needs low_hz and high_hz")
        if not 0.0 < low_hz < high_hz < nyq:
            raise BandOutOfRange(f"band {low_hz}-{high_hz} Hz outside (0, {nyq}) Hz")
        w1, w2 = warp(low_hz), warp(high_hz)
        w0sq, bw = w1 * w2, w2 - w1
        poles_s = []
        for p in proto:
            half = p * bw / 2.0
            disc = np.sqrt(half * half - w0sq + 0j)
            poles_s.extend([half + disc, half - disc])
        zpoles = _bilinear(poles_s, fs)
        # Each of the `order` sections carries one zero at z=+1 and one at z=-1.
        sections = _pair_into_sections(zpoles, (1.0, 0.0, -1.0))
        ref_hz = math.sqrt(low_hz * high_hz)

    cascade = BiquadCascade(tuple(sections), gain=1.0)
    ref = abs(cascade.response([ref_hz], fs)[0])
    if ref == 0.0:
        raise BandOutOfRange("degenerate design: zero response at reference frequency")
    cascade = BiquadCascade(cascade.sections, gain=1.0 / ref)
    if not cascade.is_stable():
        raise BandOutOfRange("design produced an unstable section (band too extreme)")
    return cascade


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
    """Hamming-windowed sinc band-pass taps, odd length round(3.3 fs / transition)."""
    if not 0.0 < low_hz < high_hz < fs / 2.0:
        raise BandOutOfRange(f"band {low_hz}-{high_hz} Hz outside (0, {fs / 2}) Hz")
    n = int(round(3.3 * fs / transition_hz))
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


def _lti_realization(spec: FilterSpec, fs: float):
    """Returns (cascade_or_None, taps_or_None, effective_filter_length)."""
    if spec.kind == "butterworth_bandpass":
        casc = design_butterworth(spec.order, fs, low_hz=spec.low_hz, high_hz=spec.high_hz)
        return casc, None, 4 * spec.order + 1
    if spec.kind == "butterworth_highpass":
        cut = spec.cut_hz if spec.cut_hz is not None else spec.low_hz
        casc = design_butterworth(spec.order, fs, cut_hz=cut)
        return casc, None, 2 * spec.order + 1
    if spec.kind == "notch":
        if spec.notch_hz is None:
            raise ConfigError("notch filter needs notch_hz")
        return design_notch(spec.notch_hz, spec.q, fs), None, 3
    if spec.kind == "fir_bandpass":
        taps = design_fir_bandpass(spec.low_hz, spec.high_hz, fs, spec.transition_hz)
        return None, taps, len(taps)
    raise ConfigError(f"unknown LTI filter kind {spec.kind!r}")


def _require_window(spec: FilterSpec) -> int:
    w = spec.window_len
    if w is None or w < 1 or w % 2 == 0:
        raise ConfigError(f"{spec.kind} needs an odd window_len, got {w}")
    return w


def apply_filter(spec: FilterSpec, x, fs: float) -> np.ndarray:
    """Apply one filter; output has the same length as the input.

    moving_average / median / savitzky_golay use symmetric windows (replicate
    padding for the first two, polynomial-fit edges for Savitzky-Golay so that
    low-order polynomials are reproduced exactly).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("apply_filter expects a 1-D signal")

    if spec.kind in WINDOW_KINDS:
        w = _require_window(spec)
        if len(x) < w:
            raise SignalTooShort(f"signal of {len(x)} samples shorter than window {w}")
        if spec.kind == "savitzky_golay":
            p = spec.poly_order if spec.poly_order is not None else 2
            if p >= w:
                raise ConfigError(f"poly_order {p} must be < window_len {w}")
            import scipy.signal

            return scipy.signal.savgol_filter(x, w, p, mode="interp")
        half = w // 2
        padded = np.pad(x, half, mode="edge")
        if spec.kind == "median":
            frames = np.lib.stride_tricks.sliding_window_view(padded, w)
            return np.median(frames, axis=1)
        return np.convolve(padded, np.ones(w) / w, mode="valid")

    cascade, taps, flen = _lti_realization(spec, fs)
    if spec.phase_mode == "zero_phase":
        if len(x) <= 3 * flen:
            raise SignalTooShort(
                f"zero_phase needs more than {3 * flen} samples, got {len(x)}"
            )
        freqs = np.fft.rfftfreq(len(x), d=1.0 / fs)
        if cascade is not None:
            h = cascade.response(freqs, fs)
        else:
            h = np.fft.rfft(taps, n=len(x))
        return np.fft.irfft(np.fft.rfft(x) * (h * np.conj(h)).real, n=len(x))
    if spec.phase_mode == "causal":
        import scipy.signal

        if cascade is not None:
            return scipy.signal.sosfilt(cascade.sos(), x)
        return scipy.signal.lfilter(taps, [1.0], x)
    raise ConfigError(f"unknown phase_mode {spec.phase_mode!r}")


def resample_fourier(x, target_len: int) -> np.ndarray:
    """Fourier-domain resampling to target_len samples.

    Forward DFT, symmetric truncation/zero-padding of the spectrum (with
    Nyquist-bin splitting so real input stays real), inverse DFT, and
    target_len/len(x) amplitude correction.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    m = int(target_len)
    if n < 2 or m < 2:
        raise ValueError("resample_fourier needs len(x) >= 2 and target_len >= 2")
    if m == n:
        return x.copy()
    spec = np.fft.fft(x)
    out = np.zeros(m, dtype=complex)
    keep = min(n, m)
    pos = (keep - 1) // 2  # strictly positive bins kept
    out[: pos + 1] = spec[: pos + 1]
    if pos > 0:
        out[m - pos:] = spec[n - pos:]
    if keep % 2 == 0:
        if m > n:  # split the input Nyquist bin across +/- frequencies
            out[n // 2] = spec[n // 2] / 2.0
            out[m - n // 2] = spec[n // 2] / 2.0
        else:  # fold the two aliasing input bins onto the output Nyquist bin
            out[m // 2] = (spec[m // 2] + spec[n - m // 2]) / 2.0
    y = np.fft.ifft(out) * (m / n)
    residue = float(np.max(np.abs(y.imag))) if m else 0.0
    scale = float(np.max(np.abs(y.real))) + 1e-30
    if residue > 1e-9 * max(scale, 1.0):
        raise AssertionError("resample produced a non-negligible imaginary part")
    return y.real


def normalize(x, method: str = "zscore") -> np.ndarray:
    """Per-segment scaling: zscore (population std) or minmax to [0, 1]."""
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise ValueError("normalize needs at least 2 samples")
    if np.ptp(x) == 0.0:
        raise ZeroVariance("constant segment cannot be normalized")
    if method == "zscore":
        return (x - x.mean()) / x.std()
    if method == "minmax":
        return (x - x.min()) / np.ptp(x)
    raise ConfigError(f"unknown normalization {method!r}")


@dataclass(frozen=True)
class CleanSignal:
    """Filtered single-channel signal with its record key carried along."""
    samples: np.ndarray
    fs: float
    key: tuple | None = None  # core.RecordKey; core imports this module


def preprocess(rec, cfg) -> CleanSignal:
    """Channel select then filter; segmentation happens downstream.

    ``rec`` needs Recording-shaped attributes (key, channels, fs);
    ``cfg`` needs a PreprocessConfig-shaped ``filter`` attribute.
    """
    channel = np.asarray(rec.channels[0], dtype=float)
    return CleanSignal(samples=apply_filter(cfg.filter, channel, rec.fs),
                       fs=rec.fs, key=rec.key)

import os
import subprocess
import sys

import numpy as np
import pytest

from ecgbench import dsp
from ecgbench.dsp import FilterSpec, apply_filter, design_butterworth, design_notch
from ecgbench.errors import BandOutOfRange, SignalTooShort, ZeroVariance

from .oracles import cascade_magnitude

FS = 500.0


# --- Butterworth design -------------------------------------------------------

def test_bandpass_gain_near_unity_in_band():
    casc = design_butterworth(3, FS, low_hz=0.5, high_hz=40.0)
    mag = cascade_magnitude(casc, 10.0, FS)
    assert 0.89 <= mag <= 1.0 + 1e-9


def test_bandpass_stopband_attenuation():
    casc = design_butterworth(3, FS, low_hz=0.5, high_hz=40.0)
    assert cascade_magnitude(casc, 0.05, FS) <= 0.0316


def test_bandpass_dc_null():
    casc = design_butterworth(3, FS, low_hz=0.5, high_hz=40.0)
    assert cascade_magnitude(casc, 0.0, FS) < 1e-12


def test_highpass_dc_null():
    casc = design_butterworth(3, FS, cut_hz=0.5)
    assert cascade_magnitude(casc, 0.0, FS) == pytest.approx(0.0, abs=1e-12)
    assert cascade_magnitude(casc, FS / 2.0, FS) == pytest.approx(1.0, rel=1e-9)


def test_band_center_exactly_unity():
    casc = design_butterworth(3, FS, low_hz=0.5, high_hz=40.0)
    center = np.sqrt(0.5 * 40.0)
    assert cascade_magnitude(casc, center, FS) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7, 8])
def test_all_designed_sections_stable(order):
    for casc in (
        design_butterworth(order, FS, low_hz=0.5, high_hz=40.0),
        design_butterworth(order, FS, cut_hz=2.0),
        design_butterworth(order, 360.0, low_hz=5.0, high_hz=15.0),
        design_notch(50.0, 30.0, FS),
    ):
        assert casc.is_stable()
        for s in casc.sections:
            assert abs(s.a2) < 1.0 and abs(s.a1) < 1.0 + s.a2


def test_band_out_of_range():
    with pytest.raises(BandOutOfRange):
        design_butterworth(3, FS, low_hz=0.5, high_hz=250.0)
    with pytest.raises(BandOutOfRange):
        design_butterworth(3, FS, cut_hz=0.0)


# --- filter application -------------------------------------------------------

def test_median_rejects_impulse():
    spec = FilterSpec(kind="median", window_len=3)
    out = apply_filter(spec, [0.0, 0.0, 10.0, 0.0, 0.0], FS)
    assert np.allclose(out, 0.0)


def test_moving_average_preserves_dc():
    spec = FilterSpec(kind="moving_average", window_len=3)
    out = apply_filter(spec, np.full(20, 4.2), FS)
    assert np.allclose(out, 4.2)


def test_savitzky_golay_reproduces_quadratic_exactly():
    t = np.arange(10, dtype=float)
    spec = FilterSpec(kind="savitzky_golay", window_len=5, poly_order=2)
    out = apply_filter(spec, t**2, FS)
    assert np.allclose(out, t**2, atol=1e-9)


def test_zero_phase_preserves_length_and_removes_tone():
    n = int(10 * FS)
    t = np.arange(n) / FS
    tone = np.sin(2 * np.pi * 50.0 * t)  # integer number of cycles
    spec = FilterSpec(kind="notch", notch_hz=50.0, q=30.0)
    out = apply_filter(spec, tone, FS)
    assert len(out) == n
    assert np.sqrt(np.mean(out**2)) < 0.1 * np.sqrt(np.mean(tone**2))


def test_zero_phase_signal_too_short():
    spec = FilterSpec(kind="butterworth_bandpass", order=3, low_hz=0.5, high_hz=40.0)
    with pytest.raises(SignalTooShort):
        apply_filter(spec, np.zeros(10), FS)


def test_linearity_of_linear_filters(rng):
    x = rng.normal(size=4000)
    y = rng.normal(size=4000)
    a, b = 2.5, -1.25
    specs = [
        FilterSpec(kind="butterworth_bandpass", order=3, low_hz=0.5, high_hz=40.0),
        FilterSpec(kind="notch", notch_hz=50.0),
        FilterSpec(kind="fir_bandpass", low_hz=1.0, high_hz=40.0, transition_hz=5.0),
        FilterSpec(kind="moving_average", window_len=5),
        FilterSpec(kind="savitzky_golay", window_len=7, poly_order=2),
    ]
    for spec in specs:
        lhs = apply_filter(spec, a * x + b * y, FS)
        rhs = a * apply_filter(spec, x, FS) + b * apply_filter(spec, y, FS)
        assert np.max(np.abs(lhs - rhs)) < 1e-9, spec.kind


def test_zero_phase_time_reversal_symmetry(rng):
    x = rng.normal(size=3000)
    specs = [
        FilterSpec(kind="butterworth_bandpass", order=3, low_hz=0.5, high_hz=40.0),
        FilterSpec(kind="notch", notch_hz=50.0),
        FilterSpec(kind="moving_average", window_len=5),
        FilterSpec(kind="median", window_len=5),
        FilterSpec(kind="savitzky_golay", window_len=7, poly_order=2),
    ]
    for spec in specs:
        fwd = apply_filter(spec, x, FS)
        rev = apply_filter(spec, x[::-1], FS)
        assert np.max(np.abs(rev[::-1] - fwd)) < 1e-9, spec.kind


def test_causal_mode_runs():
    spec = FilterSpec(kind="butterworth_bandpass", order=2, low_hz=1.0,
                      high_hz=40.0, phase_mode="causal")
    t = np.arange(int(4 * FS)) / FS
    out = apply_filter(spec, np.sin(2 * np.pi * 10 * t), FS)
    assert len(out) == len(t)
    assert np.std(out[int(FS):]) > 0.1


# --- Fourier resampling -------------------------------------------------------

def test_resample_constant_invariance():
    out = dsp.resample_fourier([5.0, 5.0, 5.0, 5.0], 7)
    assert out.shape == (7,)
    assert np.allclose(out, 5.0, atol=1e-12)


def test_resample_single_cycle_sine():
    n_in, n_out = 500, 360
    x = np.sin(2 * np.pi * np.arange(n_in) / n_in)
    out = dsp.resample_fourier(x, n_out)
    expected = np.sin(2 * np.pi * np.arange(n_out) / n_out)
    assert np.max(np.abs(out - expected)) < 1e-6


def test_resample_identity():
    x = np.random.default_rng(0).normal(size=33)
    assert np.max(np.abs(dsp.resample_fourier(x, 33) - x)) < 1e-9


def test_resample_round_trip_band_limited():
    rng = np.random.default_rng(5)
    spec = np.zeros(100, dtype=complex)
    spec[1:10] = rng.normal(size=9) + 1j * rng.normal(size=9)
    x = np.fft.irfft(np.concatenate([spec[:51]]), n=100)
    up = dsp.resample_fourier(x, 250)
    back = dsp.resample_fourier(up, 100)
    assert np.max(np.abs(back - x)) < 1e-9


# --- normalization ------------------------------------------------------------

def test_zscore_population_sigma():
    out = dsp.normalize([1.0, 2.0, 3.0], "zscore")
    assert np.allclose(out, [-1.224744871391589, 0.0, 1.224744871391589])


def test_minmax():
    assert np.allclose(dsp.normalize([2.0, 4.0], "minmax"), [0.0, 1.0])


def test_zero_variance():
    with pytest.raises(ZeroVariance):
        dsp.normalize([3.0, 3.0, 3.0], "zscore")


def test_zscore_moments_property(rng):
    for _ in range(20):
        x = rng.normal(size=rng.integers(5, 300))
        out = dsp.normalize(x, "zscore")
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9


# --- preprocess orchestrator ---------------------------------------------------

def _record(samples, fs=FS):
    from ecgbench.core import RecordKey, Recording
    return Recording(RecordKey("subA", "s0", 0, 0), fs, (np.asarray(samples, dtype=float),))


def test_preprocess_preserves_length():
    from ecgbench.core import PreprocessConfig
    rec = _record(np.random.default_rng(2).normal(size=int(8 * FS)))
    out = dsp.preprocess(rec, PreprocessConfig())
    assert len(out.samples) == len(rec.channels[0])
    assert out.key == rec.key


def test_preprocess_notch_kills_tone():
    from ecgbench.core import PreprocessConfig
    t = np.arange(int(10 * FS)) / FS
    rec = _record(np.sin(2 * np.pi * 50.0 * t))
    cfg = PreprocessConfig(filter=FilterSpec(kind="notch", notch_hz=50.0))
    out = dsp.preprocess(rec, cfg)
    assert np.sqrt(np.mean(out.samples**2)) < 0.1 * np.sqrt(np.mean(rec.channels[0] ** 2))


def test_preprocess_band_edge_out_of_range():
    from ecgbench.core import PreprocessConfig
    rec = _record(np.zeros(int(8 * FS)))
    cfg = PreprocessConfig(filter=FilterSpec(kind="butterworth_bandpass",
                                             low_hz=0.5, high_hz=FS / 2))
    with pytest.raises(BandOutOfRange):
        dsp.preprocess(rec, cfg)


def test_cli_import_leaves_scipy_unloaded():
    # scipy is loaded only by the Savitzky-Golay and causal filter branches.
    code = "import sys, ecgbench.cli; print('scipy' in sys.modules)"
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(dsp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"

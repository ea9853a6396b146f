import numpy as np
import pytest

from ecgbench.errors import WindowLongerThanSignal
from ecgbench.segment import align_peak, cut, segment_beats, segment_blind, window_argmax

from .oracles import align_peak_loop, snap_loop

FS = 500.0


def test_align_recovers_shifted_peak():
    x = np.zeros(200)
    x[100] = 5.0
    assert align_peak(x, 97, FS) == 100


def test_align_idempotent_on_dominant_peaks():
    from ecgbench import synth
    rec, peaks = synth.synthesize_record(
        synth.make_subject_params(2), synth.SessionEffects("s0", noise_sigma=0.03),
        20.0, FS, seed=4)
    x = rec.channels[0]
    for p in peaks[1:-1]:
        q = align_peak(x, int(p) + 3, FS)
        assert align_peak(x, q, FS) == q


def test_align_plateau_takes_earliest():
    x = np.zeros(100)
    x[40:44] = 2.0
    assert align_peak(x, 42, FS) == 40


def test_align_uses_absolute_value():
    x = np.zeros(100)
    x[50] = -3.0
    x[53] = 1.0
    assert align_peak(x, 52, FS) == 50


def _plateau_signals(rng):
    """Short integer-valued signals, so windows hold plateaus and ties between
    positive and negative extremes, and one smooth synthetic record."""
    for n in (1, 2, 3, 7, 40, 300):
        for _ in range(5):
            yield rng.integers(-3, 4, size=n).astype(float)
    x = np.repeat(rng.normal(size=60), 5)
    x[100:110] = -x[100:110].max() - 1.0
    yield x


def _centres(n, rng):
    return np.unique(np.concatenate([[0, 1, n - 2, n - 1], rng.integers(0, n, size=20)])
                     .clip(0, n - 1))


def test_window_argmax_matches_the_per_window_loop(rng):
    for x in _plateau_signals(rng):
        for half in (0, 1, 3, 12, len(x) + 2):
            centres = _centres(len(x), rng)
            got = window_argmax(x, centres, half)
            assert got.tolist() == snap_loop(x, centres.tolist(), half)
            assert window_argmax(x, centres[:0], half).tolist() == []


@pytest.mark.parametrize("half_window_s", [0.0, 0.002, 0.05])
def test_align_peak_matches_the_per_peak_loop(rng, half_window_s):
    for x in _plateau_signals(rng):
        centres = _centres(len(x), rng)
        got = align_peak(x, centres, FS, half_window_s)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [align_peak_loop(x, c, FS, half_window_s)
                                for c in centres.tolist()]
        one = align_peak(x, int(centres[-1]), FS, half_window_s)
        assert type(one) is int and one == got[-1]
        assert align_peak(x, [], FS, half_window_s).tolist() == []


@pytest.mark.parametrize("peak", [-1, 100, 250])
def test_align_peak_rejects_a_peak_outside_the_signal(peak):
    x = np.zeros(100)
    with pytest.raises(ValueError) as want:
        align_peak_loop(x, peak, FS)
    for peaks in (peak, [3, peak, 50], np.array([peak, -7])):
        with pytest.raises(ValueError) as got:
            align_peak(x, peaks, FS)
        assert str(got.value) == str(want.value)


def test_segment_beats_matches_the_per_peak_loop(rng):
    from ecgbench import synth
    rec, peaks = synth.synthesize_record(
        synth.make_subject_params(5), synth.SessionEffects("s0", noise_sigma=0.05),
        6.0, FS, seed=2)
    x = rec.channels[0]
    jittered = np.concatenate([[0, 2], peaks + rng.integers(-20, 21, size=len(peaks)),
                               [len(x) - 3, len(x) - 1]]).clip(0, len(x) - 1)
    for align in (True, False):
        spans = segment_beats(x, FS, jittered, 0.2, 0.4, align=align)
        starts = [(align_peak_loop(x, p, FS) if align else p) - 100
                  for p in jittered.tolist()]
        starts = [s for s in starts if 0 <= s and s + 300 <= len(x)]
        assert isinstance(spans, np.ndarray) and spans.dtype == int
        assert spans.tolist() == [[s, s + 300] for s in starts]
        beats = cut(x, spans)
        assert beats.shape == (len(starts), 300)
        assert beats.tobytes() == b"".join(x[s: s + 300].tobytes() for s in starts)


def test_beat_shape_and_r_position():
    x = np.zeros(5000)
    peaks = [500, 1500, 2500]
    for p in peaks:
        x[p] = 1.0
    beats = cut(x, segment_beats(x, FS, peaks, 0.2, 0.4, align=False))
    assert beats.shape == (3, 300)
    assert beats[:, 100].tolist() == [1.0] * 3


def test_out_of_bounds_beats_dropped():
    x = np.zeros(1000)
    spans = segment_beats(x, FS, [10, 500], 0.2, 0.4, align=False)
    assert len(spans) == 1
    assert spans[0, 0] + round(0.2 * FS) == 500
    tail = segment_beats(x, FS, [500, 900], 0.2, 0.4, align=False)
    assert len(tail) == 1  # 900 + 0.4 s does not fit


def test_positions_sequential():
    # A beat's position is its row: the kept beats in peak order.
    x = np.zeros(20000)
    peaks = [500 + 400 * i for i in range(10)]
    spans = segment_beats(x, FS, peaks, 0.2, 0.4, align=False)
    assert (spans[:, 0] + 100).tolist() == peaks


def test_cut_of_no_spans_has_no_rows():
    x = np.arange(50.0)
    for spans in (segment_beats(x, FS, [], 0.2, 0.4), np.empty((0, 2), dtype=int)):
        assert spans.shape == (0, 2)
        assert len(cut(x, spans)) == 0


def test_blind_window_counts():
    x = np.zeros(int(10 * FS))
    spans = segment_blind(x, FS, 5.0, 2.5)
    assert spans.tolist() == [[0, 2500], [1250, 3750], [2500, 5000]]


def test_blind_single_window():
    x = np.zeros(int(5 * FS))
    assert len(segment_blind(x, FS, 5.0, 5.0)) == 1


def test_blind_window_too_long():
    with pytest.raises(WindowLongerThanSignal):
        segment_blind(np.zeros(int(10 * FS)), FS, 11.0, 1.0)


def test_blind_overlap_tiling():
    x = np.arange(int(12 * FS), dtype=float)
    windows = cut(x, segment_blind(x, FS, 4.0, 1.5))
    w, s = round(4.0 * FS), round(1.5 * FS)
    for a, b in zip(windows, windows[1:]):
        assert b[0] - a[0] == s
        assert np.array_equal(a[s:], b[: w - s])


def test_blind_spans_match_the_per_window_loop():
    for fs in (250.0, 360.0, 7.0):
        for n in (14, 100, 1001):
            x = np.arange(float(n))
            for window_s, stride_s in ((2.0, 1.0), (2.0, 2.0), (1.0, 0.3), (0.3, 0.3)):
                w, s = round(window_s * fs), round(stride_s * fs)
                if w > n:
                    continue
                want = []
                start = 0
                while start + w <= n:
                    want.append([start, start + w])
                    start += s
                spans = segment_blind(x, fs, window_s, stride_s)
                assert spans.tolist() == want
                assert cut(x, spans).tobytes() == b"".join(
                    x[lo:hi].tobytes() for lo, hi in want)

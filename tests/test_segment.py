import numpy as np
import pytest

from ecgbench.core import RecordKey
from ecgbench.errors import WindowLongerThanSignal
from ecgbench.segment import align_peak, segment_beats, segment_blind

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


def test_beat_shape_and_r_position():
    x = np.zeros(5000)
    peaks = [500, 1500, 2500]
    for p in peaks:
        x[p] = 1.0
    segs = segment_beats(x, FS, peaks, 0.2, 0.4, align=False)
    assert len(segs) == 3
    for seg in segs:
        assert len(seg.samples) == 300
        assert seg.samples[100] == 1.0


def test_out_of_bounds_beats_dropped():
    x = np.zeros(1000)
    segs = segment_beats(x, FS, [10, 500], 0.2, 0.4, align=False)
    assert len(segs) == 1
    assert segs[0].start + round(0.2 * FS) == 500
    tail = segment_beats(x, FS, [500, 900], 0.2, 0.4, align=False)
    assert len(tail) == 1  # 900 + 0.4 s does not fit


def test_positions_sequential():
    x = np.zeros(20000)
    peaks = [500 + 400 * i for i in range(10)]
    segs = segment_beats(x, FS, peaks, 0.2, 0.4, align=False)
    assert [s.position for s in segs] == list(range(10))


def test_provenance_carried():
    x = np.zeros(1000)
    segs = segment_beats(x, FS, [500], 0.2, 0.4, align=False,
                         key=RecordKey("a", "s1", 2, 1))
    assert segs[0].key == RecordKey("a", "s1", 2, 1)


def test_blind_window_counts():
    x = np.zeros(int(10 * FS))
    segs = segment_blind(x, FS, 5.0, 2.5)
    assert len(segs) == 3
    assert [s.start for s in segs] == [0, 1250, 2500]


def test_blind_single_window():
    x = np.zeros(int(5 * FS))
    assert len(segment_blind(x, FS, 5.0, 5.0)) == 1


def test_blind_window_too_long():
    with pytest.raises(WindowLongerThanSignal):
        segment_blind(np.zeros(int(10 * FS)), FS, 11.0, 1.0)


def test_blind_overlap_tiling():
    x = np.arange(int(12 * FS), dtype=float)
    segs = segment_blind(x, FS, 4.0, 1.5)
    w, s = round(4.0 * FS), round(1.5 * FS)
    for a, b in zip(segs, segs[1:]):
        assert b.start - a.start == s
        overlap = a.samples[s:]
        assert np.array_equal(overlap, b.samples[: w - s])

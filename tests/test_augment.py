import numpy as np
import pytest

from ecgbench.augment import apply_augmentation, augment_training_set
from ecgbench.core import AugmentConfig, AugmentOpConfig, RecordKey
from ecgbench.segment import Segment


def _seg(samples, position=0, subject="a"):
    return Segment(samples=np.asarray(samples, dtype=float), start=50,
                   fs=250.0, position=position, key=RecordKey(subject, "s0", 0, 0))


def test_amplitude_scale_fixed_factor():
    seg = _seg(np.arange(10.0))
    op = AugmentOpConfig(kind="amplitude_scale", scale_low=2.0, scale_high=2.0)
    out = apply_augmentation(seg, op, seed=1)
    assert np.allclose(out.samples, 2.0 * seg.samples)


def test_gaussian_noise_zero_sigma_is_identity():
    seg = _seg(np.arange(10.0))
    op = AugmentOpConfig(kind="gaussian_noise", sigma=0.0)
    out = apply_augmentation(seg, op, seed=1)
    assert np.array_equal(out.samples, seg.samples)


def test_time_shift_semantics():
    seg = _seg(np.arange(1.0, 11.0))
    op = AugmentOpConfig(kind="time_shift", max_shift_s=5.0 / 250.0)
    # seeds 10 and 5 draw k = +5 and k = -3 respectively (frozen)
    plus5 = apply_augmentation(seg, op, seed=10).samples
    assert np.array_equal(plus5[5:], seg.samples[:-5])
    assert np.all(plus5[:5] == 0.0)
    minus3 = apply_augmentation(seg, op, seed=5).samples
    assert np.array_equal(minus3[:-3], seg.samples[3:])
    assert np.all(minus3[-3:] == 0.0)
    fixed = apply_augmentation(
        seg, AugmentOpConfig(kind="time_shift", max_shift_s=0.0), seed=3).samples
    assert np.array_equal(fixed, seg.samples)


def test_random_crop_preserves_length():
    seg = _seg(np.sin(np.linspace(0, 6, 100)))
    op = AugmentOpConfig(kind="random_crop", crop_fraction=0.8)
    out = apply_augmentation(seg, op, seed=5)
    assert len(out.samples) == 100
    assert not np.array_equal(out.samples, seg.samples)


def test_multiplier_counts():
    segs = [_seg(np.arange(8.0) + i, position=i) for i in range(10)]
    spec0 = AugmentConfig(multiplier=0, ops=())
    assert augment_training_set(segs, spec0, seed=1) == segs
    spec2 = AugmentConfig(multiplier=2, ops=(
        AugmentOpConfig(kind="gaussian_noise", sigma=0.1),))
    out = augment_training_set(segs, spec2, seed=1)
    assert len(out) == 30
    assert out[:10] == segs


def test_order_independence():
    segs = [_seg(np.arange(8.0) * (i + 1), position=i) for i in range(6)]
    spec = AugmentConfig(multiplier=3, ops=(
        AugmentOpConfig(kind="amplitude_scale"),
        AugmentOpConfig(kind="gaussian_noise", sigma=0.05),
    ))
    fwd = augment_training_set(segs, spec, seed=9)
    rev = augment_training_set(segs[::-1], spec, seed=9)
    canon = lambda items: sorted(tuple(np.round(s.samples, 12)) for s in items)
    assert canon(fwd) == canon(rev)


def test_different_copies_differ():
    segs = [_seg(np.arange(32.0))]
    spec = AugmentConfig(multiplier=2, ops=(
        AugmentOpConfig(kind="gaussian_noise", sigma=0.1),))
    out = augment_training_set(segs, spec, seed=2)
    assert not np.array_equal(out[1].samples, out[2].samples)


def test_unknown_kind_rejected():
    seg = _seg(np.arange(8.0))
    with pytest.raises(ValueError):
        apply_augmentation(seg, AugmentOpConfig(kind="mystery"), seed=0)

import numpy as np
import pytest

from ecgbench.augment import apply_augmentation, augment_training_set
from ecgbench.core import AugmentConfig, AugmentOpConfig, RecordKey
from ecgbench.errors import ConfigError
from ecgbench.util import stable_seed, sub_rng

FS = 250.0
KEY = RecordKey("a", "s0", 0, 0)


def test_stable_seed_hashes_a_numpy_integer_as_its_int():
    # Augmentation seeds are numpy integers, whose repr depends on numpy's version.
    k = sub_rng(0, "copy").integers(2**63)
    assert isinstance(k, np.integer)
    assert stable_seed(k, "x") == stable_seed(int(k), "x")
    assert stable_seed(np.int64(7), "x") == stable_seed(7, "x")


def test_amplitude_scale_fixed_factor():
    x = np.arange(10.0)
    op = AugmentOpConfig(kind="amplitude_scale", scale_low=2.0, scale_high=2.0)
    assert np.allclose(apply_augmentation(x, FS, op, seed=1), 2.0 * x)


def test_gaussian_noise_zero_sigma_is_identity():
    x = np.arange(10.0)
    op = AugmentOpConfig(kind="gaussian_noise", sigma=0.0)
    assert np.array_equal(apply_augmentation(x, FS, op, seed=1), x)


def test_time_shift_semantics():
    x = np.arange(1.0, 11.0)
    op = AugmentOpConfig(kind="time_shift", max_shift_s=5.0 / FS)
    # seeds 10 and 5 draw k = +5 and k = -3 respectively (frozen)
    plus5 = apply_augmentation(x, FS, op, seed=10)
    assert np.array_equal(plus5[5:], x[:-5])
    assert np.all(plus5[:5] == 0.0)
    minus3 = apply_augmentation(x, FS, op, seed=5)
    assert np.array_equal(minus3[:-3], x[3:])
    assert np.all(minus3[-3:] == 0.0)
    fixed = apply_augmentation(
        x, FS, AugmentOpConfig(kind="time_shift", max_shift_s=0.0), seed=3)
    assert np.array_equal(fixed, x)


def test_random_crop_preserves_length():
    x = np.sin(np.linspace(0, 6, 100))
    op = AugmentOpConfig(kind="random_crop", crop_fraction=0.8)
    out = apply_augmentation(x, FS, op, seed=5)
    assert len(out) == 100
    assert not np.array_equal(out, x)


def test_multiplier_counts():
    rows = np.arange(8.0) + np.arange(10.0)[:, None]
    spec0 = AugmentConfig(multiplier=0, ops=())
    assert augment_training_set(rows, FS, KEY, range(10), spec0, seed=1).shape == (0, 8)
    spec2 = AugmentConfig(multiplier=2, ops=(
        AugmentOpConfig(kind="gaussian_noise", sigma=0.1),))
    out = augment_training_set(rows, FS, KEY, range(10), spec2, seed=1)
    assert out.shape == (20, 8)
    # Copies only, in (row, copy) order: each copy stays near its own row.
    assert np.abs(out - np.repeat(rows, 2, axis=0)).max() < 1.0


def test_order_independence():
    rows = np.arange(8.0) * np.arange(1.0, 7.0)[:, None]
    spec = AugmentConfig(multiplier=3, ops=(
        AugmentOpConfig(kind="amplitude_scale"),
        AugmentOpConfig(kind="gaussian_noise", sigma=0.05),
    ))
    fwd = augment_training_set(rows, FS, KEY, list(range(6)), spec, seed=9)
    rev = augment_training_set(rows[::-1], FS, KEY, list(range(6))[::-1], spec, seed=9)
    assert fwd.tobytes() == rev.reshape(6, 3, 8)[::-1].tobytes()
    # Each copy is seeded by (seed, record key and position as flat Python
    # ints, copy, op); a numpy position must seed as the same int.
    as_numpy = augment_training_set(rows, FS, KEY, np.arange(6), spec, seed=9)
    assert as_numpy.tobytes() == fwd.tobytes()
    work = rows[4]
    for op_idx, op in enumerate(spec.ops):
        work = apply_augmentation(
            work, FS, op, sub_rng(9, ("a", "s0", 0, 0, 4), 2, op_idx).integers(2**63))
    assert fwd[4 * 3 + 2].tobytes() == work.tobytes()


def test_copies_do_not_depend_on_other_rows():
    rows = np.sin(np.linspace(0, 6, 40)) * np.arange(1.0, 6.0)[:, None]
    spec = AugmentConfig(multiplier=2, ops=(
        AugmentOpConfig(kind="time_shift", max_shift_s=0.02),
        AugmentOpConfig(kind="random_crop", crop_fraction=0.7),
        AugmentOpConfig(kind="gaussian_noise", sigma=0.05),
    ))
    together = augment_training_set(rows, FS, KEY, range(5), spec, seed=4)
    for i in range(5):
        alone = augment_training_set(rows[i: i + 1], FS, KEY, [i], spec, seed=4)
        assert alone.tobytes() == together[2 * i: 2 * i + 2].tobytes()


def test_different_copies_differ():
    spec = AugmentConfig(multiplier=2, ops=(
        AugmentOpConfig(kind="gaussian_noise", sigma=0.1),))
    out = augment_training_set(np.arange(32.0)[None], FS, KEY, [0], spec, seed=2)
    assert not np.array_equal(out[0], out[1])


def test_unknown_kind_rejected():
    # The op rejects it when it is built, so apply_augmentation never sees it.
    with pytest.raises(ConfigError, match="^AugmentOpConfig.kind must be one of "):
        AugmentOpConfig(kind="mystery")

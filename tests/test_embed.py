from dataclasses import replace

import numpy as np
import pytest

from ecgbench import embed, synth
from ecgbench.errors import DimensionMismatch, SingleClass
from ecgbench.segment import segment_beats


def _beat(seed=1, fs=250.0):
    theta = synth.make_subject_params(seed)
    return synth.synthesize_beat(theta, fs, 0.8)


def test_morphology_deterministic_and_scale_invariant():
    beat = _beat()
    a = embed.morphology_embed(beat, 128)
    b = embed.morphology_embed(beat.copy(), 128)
    assert np.array_equal(a, b)
    doubled = embed.morphology_embed(2.0 * beat, 128)
    assert np.allclose(a, doubled, atol=1e-12)
    assert a.shape == (128,)


def test_morphology_minimum_target_len():
    with pytest.raises(ValueError):
        embed.morphology_embed(_beat(), 4)


def _subject_beats(seed, n_records=2, noise=0.01, target=64):
    theta = synth.make_subject_params(seed)
    rows = []
    for r in range(n_records):
        rec, peaks = synth.synthesize_record(
            theta, synth.SessionEffects("s0", noise_sigma=noise),
            35.0, 250.0, seed=1000 * seed + r)
        for seg in segment_beats(rec.channels[0], rec.fs, peaks, 0.2, 0.4, align=False):
            rows.append(embed.morphology_embed(seg.samples, target))
    return np.stack(rows)


def test_mlp_learns_two_subjects():
    a = _subject_beats(1)[:100]
    b = _subject_beats(2)[:100]
    x = np.concatenate([a, b])
    y = np.array([0] * len(a) + [1] * len(b))
    model, losses = embed.mlp_train(x, y, hidden_dim=32, epochs=50, seed=0)
    assert len(losses) == 50
    assert losses[-1] < losses[0]
    acc = float(np.mean(embed.mlp_predict(model, x) == y))
    assert acc >= 0.95


def test_mlp_zero_epochs_returns_init():
    x = np.random.default_rng(0).normal(size=(20, 16))
    y = np.arange(20) % 2
    model, losses = embed.mlp_train(x, y, hidden_dim=8, epochs=0, seed=42)
    expected = embed.mlp_init(16, 8, 2, np.random.default_rng(42))
    assert losses == []
    assert np.array_equal(model.w1, expected.w1)
    assert np.array_equal(model.w2, expected.w2)


def test_mlp_single_class_rejected():
    x = np.zeros((10, 8))
    with pytest.raises(SingleClass):
        embed.mlp_train(x, np.zeros(10, dtype=int))


def test_mlp_train_deterministic():
    x = np.random.default_rng(3).normal(size=(60, 12))
    y = np.random.default_rng(4).integers(0, 3, size=60)
    m1, l1 = embed.mlp_train(x, y, hidden_dim=6, epochs=20, seed=9)
    m2, l2 = embed.mlp_train(x, y, hidden_dim=6, epochs=20, seed=9)
    assert np.array_equal(m1.w1, m2.w1) and np.array_equal(m1.w2, m2.w2)
    assert l1 == l2


def test_embed_zero_input_zero_bias():
    model = embed.mlp_init(8, 5, 2, np.random.default_rng(0))
    out = embed.mlp_embed(model, np.zeros(8))
    assert np.array_equal(out, np.zeros(5))


def test_embed_dimension():
    model = embed.mlp_init(8, 5, 2, np.random.default_rng(0))
    assert embed.mlp_embed(model, np.ones(8)).shape == (5,)
    with pytest.raises(DimensionMismatch):
        embed.mlp_embed(model, np.ones(9))


def test_embeddings_separate_subjects():
    a = _subject_beats(5)[:80]
    b = _subject_beats(6)[:80]
    x = np.concatenate([a, b])
    y = np.array([0] * len(a) + [1] * len(b))
    model, _ = embed.mlp_train(x, y, hidden_dim=32, epochs=60, seed=1)

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    ea = embed.mlp_embed(model, a[: 40])
    eb = embed.mlp_embed(model, b[: 40])
    same = np.mean([cos(ea[i], ea[i + 20]) for i in range(20)])
    cross = np.mean([cos(ea[i], eb[i]) for i in range(20)])
    assert same > cross


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(scale=50.0, size=(40, 7))
    probs = embed.softmax(logits)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(probs >= 0)


def test_gradient_check_random_models():
    rng = np.random.default_rng(100)
    for trial in range(5):
        model = embed.mlp_init(10, 7, 4, rng)
        x = rng.normal(size=10)
        err = embed.gradient_check(model, x, label=int(trial % 4), fd_step=1e-5)
        assert err < 1e-5


def test_gradient_check_linear_passthrough():
    # Identity hidden layer with the rectifier held strictly active and small,
    # well-spread logits: truncation and roundoff both stay below 1e-9.
    d = 6
    w2 = np.array([[0.11, -0.07, 0.05, -0.13, 0.09, -0.03],
                   [-0.05, 0.12, -0.09, 0.06, -0.11, 0.08],
                   [0.03, -0.06, 0.10, -0.04, 0.07, -0.12]])
    model = embed.MlpModel(w1=np.eye(d), b1=np.full(d, 2.0), w2=w2,
                           b2=np.array([0.1, -0.2, 0.05]))
    err = embed.gradient_check(model, np.linspace(1.0, 2.0, d), label=1, fd_step=1e-5)
    assert err < 1e-9


def test_gradient_check_step_sensitivity():
    rng = np.random.default_rng(11)
    model = embed.mlp_init(6, 4, 3, rng)
    x = rng.normal(size=6)
    small = embed.gradient_check(model, x, label=0, fd_step=1e-5)
    large = embed.gradient_check(model, x, label=0, fd_step=1e-1)
    assert large > small

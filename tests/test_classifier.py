import tracemalloc

import numpy as np
import pytest

from ggsignal import classifier
from ggsignal.classifier import (LinearModel, TrainConfig, accuracy,
                                 decision_direction, train)
from ggsignal.errors import DataError, NumericError
from ggsignal.seeding import rng_for
from ggsignal.synthetic import SynthConfig, generate


def clusters(separation=5.0, spread=0.5, n=50, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal([separation, 0.0], spread, (n, 2))
    neg = rng.normal([-separation, 0.0], spread, (n, 2))
    return pos, neg


def test_separable_clusters_reach_perfect_holdout(training_split):
    pos, neg = clusters()
    model = train(pos, neg, TrainConfig(seed=1))
    assert model.holdout_accuracy == 1.0
    assert accuracy(model, *training_split(pos, neg, TrainConfig(seed=1))) == 1.0


def test_identical_classes_sit_at_chance():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(60, 3))
    model = train(points, points, TrainConfig(seed=2))
    assert model.holdout_accuracy == pytest.approx(0.5, abs=0.15)


def test_decision_direction_normalizes():
    model = LinearModel(weights=np.array([3.0, 4.0]), bias=0.0, holdout_accuracy=1.0)
    direction = decision_direction(model)
    assert np.allclose(direction, [0.6, 0.8])
    assert abs(np.linalg.norm(direction) - 1.0) <= 1e-12


def test_decision_direction_zero_weights_error():
    model = LinearModel(weights=np.zeros(2), bias=0.0, holdout_accuracy=0.0)
    with pytest.raises(NumericError):
        decision_direction(model)


def test_accuracy_trivial_and_flipped():
    model = LinearModel(weights=np.array([1.0, 0.0]), bias=0.0, holdout_accuracy=0.0)
    samples = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert accuracy(model, samples, [1, -1]) == 1.0
    assert accuracy(model, samples, [-1, 1]) == 0.0


def test_accuracy_tie_counts_as_negative():
    model = LinearModel(weights=np.array([1.0, 0.0]), bias=0.0, holdout_accuracy=0.0)
    on_plane = np.array([[0.0, 1.0]])
    assert accuracy(model, on_plane, [-1]) == 1.0
    assert accuracy(model, on_plane, [1]) == 0.0


def test_accuracy_chance_level_on_random_labels():
    rng = np.random.default_rng(9)
    samples = rng.normal(size=(2000, 10))
    labels = rng.choice([-1.0, 1.0], size=2000)
    model = LinearModel(weights=rng.normal(size=10), bias=0.0, holdout_accuracy=0.0)
    assert accuracy(model, samples, labels) == pytest.approx(0.5, abs=0.05)


def test_accuracy_rejects_empty_and_mismatched():
    model = LinearModel(weights=np.array([1.0, 0.0]), bias=0.0, holdout_accuracy=0.0)
    with pytest.raises(DataError):
        accuracy(model, np.zeros((0, 2)), [])
    with pytest.raises(DataError):
        accuracy(model, np.zeros((2, 3)), [1, -1])


def test_training_is_bit_deterministic():
    pos, neg = clusters(seed=3)
    a = train(pos, neg, TrainConfig(seed=11))
    b = train(pos, neg, TrainConfig(seed=11))
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert a.holdout_accuracy == b.holdout_accuracy
    c = train(pos, neg, TrainConfig(seed=12))
    assert not np.array_equal(a.weights, c.weights)


@pytest.mark.parametrize("scale", [4.0, 0.25, 3.0])
def test_direction_invariant_under_uniform_scaling(scale):
    pos, neg = clusters(seed=4)
    base = decision_direction(train(pos, neg, TrainConfig(seed=5)))
    scaled = decision_direction(train(pos * scale, neg * scale, TrainConfig(seed=5)))
    assert np.max(np.abs(base - scaled)) <= 1e-6


def test_separable_data_reaches_zero_training_error(training_split):
    pos, neg = clusters(separation=3.0, spread=0.3, seed=6)
    model = train(pos, neg, TrainConfig(seed=7))
    assert accuracy(model, *training_split(pos, neg, TrainConfig(seed=7))) == 1.0


def test_planted_direction_recovery():
    table, lexicon, planted, _ = generate(SynthConfig(
        dimension=50, per_class=300, signal_strength=5.0, noise_scale=0.5, seed=21))
    model = train(table.rows(lexicon.feminine), table.rows(lexicon.masculine),
                  TrainConfig(regularization_strength=0.1, epochs=30, seed=21))
    direction = decision_direction(model)
    assert abs(float(direction @ planted)) >= 0.95


def test_positive_side_is_first_class():
    table, lexicon, planted, _ = generate(SynthConfig(
        dimension=30, per_class=100, signal_strength=6.0, noise_scale=0.1, seed=2))
    model = train(table.rows(lexicon.feminine), table.rows(lexicon.masculine),
                  TrainConfig(regularization_strength=0.1, epochs=30, seed=2))
    direction = decision_direction(model)
    # feminine words were planted at +strength along the direction
    assert float(direction @ planted) > 0.9


def test_dimension_mismatch_and_degenerate_inputs():
    with pytest.raises(DataError):
        train(np.zeros((5, 2)), np.zeros((5, 3)), TrainConfig())
    with pytest.raises(DataError):
        train(np.zeros((0, 2)), np.zeros((5, 2)), TrainConfig())
    with pytest.raises(DataError):
        train(np.ones((1, 2)), np.ones((5, 2)), TrainConfig())
    with pytest.raises(NumericError):
        train(np.zeros((5, 2)), np.zeros((5, 2)), TrainConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(regularization_strength=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(holdout_fraction=1.0)
    with pytest.raises(ValueError, match="regularization_strength must be positive"):
        TrainConfig(regularization_strength=float("nan"))
    with pytest.raises(ValueError, match="holdout_fraction"):
        TrainConfig(holdout_fraction=float("nan"))


# ------------------------------------------------------------ reference oracle
#
# The per-sample loop over (x, y) pairs that `train` replaced with one dot
# product per step over pre-signed rows. The two must agree bit for bit.

def reference_train(pos, neg, config):
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    scale = float(np.sqrt(np.mean(np.concatenate([
        np.einsum("ij,ij->i", pos, pos), np.einsum("ij,ij->i", neg, neg)]))))
    rng_split = rng_for(config.seed, "holdout")
    pos_train_idx, pos_hold_idx = classifier._stratified_split(
        pos.shape[0], config.holdout_fraction, rng_split)
    neg_train_idx, neg_hold_idx = classifier._stratified_split(
        neg.shape[0], config.holdout_fraction, rng_split)

    def augmented(matrix):
        return np.hstack([matrix / scale, np.ones((matrix.shape[0], 1))])

    x_train = np.ascontiguousarray(np.vstack([augmented(pos[pos_train_idx]),
                                              augmented(neg[neg_train_idx])]))
    y_train = np.concatenate([np.ones(len(pos_train_idx)), -np.ones(len(neg_train_idx))])
    lam = config.regularization_strength
    u = np.zeros(x_train.shape[1])
    t = 0
    rng_epochs = rng_for(config.seed, "epochs")
    for _ in range(config.epochs):
        for i in rng_epochs.permutation(x_train.shape[0]):
            t += 1
            margin = 0.0 if t == 1 else y_train[i] * float(u @ x_train[i]) / (lam * (t - 1))
            if margin < 1.0:
                u += y_train[i] * x_train[i]
    w_aug = u / (lam * t)
    model = LinearModel(weights=w_aug[:-1] / scale, bias=float(w_aug[-1]), holdout_accuracy=0.0)
    hold_labels = np.concatenate([np.ones(len(pos_hold_idx)), -np.ones(len(neg_hold_idx))])
    return LinearModel(
        weights=model.weights, bias=model.bias,
        holdout_accuracy=accuracy(model, np.vstack([pos[pos_hold_idx], neg[neg_hold_idx]]),
                                  hold_labels))


def _case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "separable":
        return clusters(separation=3.0, spread=0.5, n=40, seed=1) + (TrainConfig(seed=3),)
    if name == "chance":
        points = rng.normal(size=(50, 6))
        return points[:25], points[25:], TrainConfig(seed=4)
    if name == "imbalanced":
        return (rng.normal(size=(90, 5)) + 0.4, rng.normal(size=(7, 5)) - 0.4,
                TrainConfig(regularization_strength=0.05, seed=5))
    if name == "odd-sizes":
        return (rng.normal(size=(13, 7)) + 0.3, rng.normal(size=(29, 7)) - 0.3,
                TrainConfig(holdout_fraction=0.37, seed=6))
    if name == "two-per-class":
        return rng.normal(size=(2, 3)) + 1.0, rng.normal(size=(2, 3)) - 1.0, TrainConfig(seed=7)
    if name == "one-epoch":
        return (rng.normal(size=(40, 8)) + 0.2, rng.normal(size=(40, 8)) - 0.2,
                TrainConfig(epochs=1, seed=8))
    if name == "zero-column":
        pos, neg = rng.normal(size=(30, 5)) + 0.5, rng.normal(size=(30, 5)) - 0.5
        pos[:, 2] = 0.0
        neg[:, 2] = 0.0
        return pos, neg, TrainConfig(seed=9)
    scale = {"tiny": 1e-150, "huge": 1e150}[name]
    return (scale * (rng.normal(size=(30, 6)) + 0.5), scale * (rng.normal(size=(30, 6)) - 0.5),
            TrainConfig(regularization_strength=0.01, seed=10))


@pytest.mark.parametrize("name", ["separable", "chance", "imbalanced", "odd-sizes",
                                  "two-per-class", "one-epoch", "zero-column", "tiny", "huge"])
def test_train_matches_per_sample_reference_bitwise(name, training_split):
    pos, neg, config = _case(name)
    expected = reference_train(pos, neg, config)
    model = train(pos, neg, config)
    assert np.array_equal(model.weights, expected.weights)
    assert model.bias == expected.bias
    rows, labels = training_split(pos, neg, config)
    assert accuracy(model, rows, labels) == accuracy(expected, rows, labels)
    assert model.holdout_accuracy == expected.holdout_accuracy


def test_train_peak_memory_is_one_training_matrix(monkeypatch):
    # 64-row gathers: the training rows span many blocks, so a gathered copy
    # of either class would exceed the bound.
    monkeypatch.setattr(classifier, "_GATHER_ROWS", 64)
    rng = np.random.default_rng(12)
    pos = rng.normal(size=(500, 300)) + 0.05
    neg = rng.normal(size=(500, 300)) - 0.05
    config = TrainConfig(epochs=1, seed=1)
    n_train = 2 * (500 - round(500 * config.holdout_fraction))
    tracemalloc.start()
    try:
        train(pos, neg, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * n_train * 301 * pos.itemsize

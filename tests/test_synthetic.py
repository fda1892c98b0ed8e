import numpy as np
import pytest

from ggsignal.classifier import TrainConfig, decision_direction, train
from ggsignal.disentangler import DisentangleConfig, run
from ggsignal.synthetic import SynthConfig, generate


def strong_trainer(seed=0):
    return TrainConfig(regularization_strength=0.1, epochs=30, seed=seed)


def test_deterministic_per_seed():
    a_table, a_lex, a_dir, a_base = generate(SynthConfig(dimension=20, per_class=30, seed=5))
    b_table, b_lex, b_dir, b_base = generate(SynthConfig(dimension=20, per_class=30, seed=5))
    assert np.array_equal(a_table.matrix, b_table.matrix)
    assert np.array_equal(a_dir, b_dir)
    assert np.array_equal(a_base.matrix, b_base.matrix)
    c_table, *_ = generate(SynthConfig(dimension=20, per_class=30, seed=6))
    assert not np.array_equal(a_table.matrix, c_table.matrix)


def test_composite_minus_gender_free_is_the_planted_signal():
    config = SynthConfig(dimension=25, per_class=40, signal_strength=3.0,
                         noise_scale=0.7, seed=8)
    table, lexicon, direction, base = generate(config)
    delta = table.matrix - base.matrix
    signs = np.array([1.0] * 40 + [-1.0] * 40)
    expected = signs[:, None] * 3.0 * direction[None, :]
    assert np.allclose(delta, expected, atol=1e-12)


def test_zero_signal_gives_chance_accuracy():
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=50, per_class=300, signal_strength=0.0, noise_scale=0.5, seed=3))
    model = train(table.rows(lexicon.feminine), table.rows(lexicon.masculine),
                  strong_trainer(seed=3))
    assert model.holdout_accuracy == pytest.approx(0.5, abs=0.07)


def test_clean_strong_signal_fully_recovered():
    table, lexicon, planted, _ = generate(SynthConfig(
        dimension=50, per_class=300, signal_strength=5.0, noise_scale=0.0, seed=4))
    model = train(table.rows(lexicon.feminine), table.rows(lexicon.masculine),
                  strong_trainer(seed=4))
    assert model.holdout_accuracy == 1.0
    assert abs(float(decision_direction(model) @ planted)) >= 0.99


def test_accuracy_monotone_in_signal_strength():
    accuracies = []
    for strength in (0.0, 1.0, 2.0, 5.0):
        table, lexicon, _, _ = generate(SynthConfig(
            dimension=50, per_class=200, signal_strength=strength,
            noise_scale=0.5, seed=12))
        model = train(table.rows(lexicon.feminine), table.rows(lexicon.masculine),
                      strong_trainer(seed=12))
        accuracies.append(model.holdout_accuracy)
    assert accuracies == sorted(accuracies)
    assert accuracies[-1] > accuracies[0]


def test_class_imbalance_counts():
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=10, per_class=40, class_imbalance=0.5, seed=1))
    assert len(lexicon.feminine) == 40
    assert len(lexicon.masculine) == 20
    assert len(table) == 60


def test_two_direction_mode_needs_at_least_two_rounds():
    table, lexicon, planted, _ = generate(SynthConfig(
        dimension=40, per_class=150, signal_strength=5.0, noise_scale=0.2,
        second_direction_strength=5.0, seed=10))
    config = DisentangleConfig(per_class=150, seed=10, classifier=strong_trainer(seed=10))
    _, stack = run(table, lexicon, config)
    assert len(stack) >= 2
    assert stack.final_accuracy <= 0.52


def test_two_direction_signal_spans_both_axes():
    config = SynthConfig(dimension=25, per_class=45, signal_strength=4.0,
                         noise_scale=0.0, second_direction_strength=2.0, seed=3)
    table, lexicon, primary, base = generate(config)
    delta = table.matrix - base.matrix
    on_primary = np.isclose(np.abs(delta @ primary), 4.0, atol=1e-9)
    assert on_primary.sum() == 2 * 30            # two of every three words
    off = delta[~on_primary]
    assert np.allclose(np.abs(np.linalg.norm(off, axis=1)), 2.0, atol=1e-9)
    assert np.allclose(off @ primary, 0.0, atol=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(dimension=1)
    with pytest.raises(ValueError):
        SynthConfig(per_class=8)
    with pytest.raises(ValueError):
        SynthConfig(signal_strength=-1.0)
    with pytest.raises(ValueError):
        SynthConfig(class_imbalance=0.0)
    with pytest.raises(ValueError):
        SynthConfig(per_class=20, class_imbalance=0.5)
    # NaN fails every range check, instead of passing as a comparison would.
    for field, message in [("signal_strength", "signal_strength and noise_scale"),
                           ("noise_scale", "signal_strength and noise_scale"),
                           ("class_imbalance", "class_imbalance must be positive"),
                           ("second_direction_strength", "second_direction_strength")]:
        with pytest.raises(ValueError, match=message):
            SynthConfig(**{field: float("nan")})

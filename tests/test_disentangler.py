import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ggsignal import disentangler, embeddings
from ggsignal.classifier import TrainConfig
from ggsignal.disentangler import (DisentangleConfig, HyperplaneStack, apply_stack,
                                   load_stack, run, save_stack)
from ggsignal.embeddings import EmbeddingTable
from ggsignal.errors import DataError, FormatError
from ggsignal.synthetic import SynthConfig, generate

finite_vectors = arrays(np.float64, 6,
                        elements=st.floats(min_value=-100, max_value=100,
                                           allow_nan=False, allow_infinity=False))


def unit(v):
    return v / np.linalg.norm(v)


def project(v, d):
    """`v` with the unit direction `d` removed, by a one-direction stack."""
    table = EmbeddingTable(["v"], v[None, :])
    return apply_stack(table, HyperplaneStack(directions=d[None, :])).matrix[0]


def small_config(**overrides):
    base = dict(per_class=100, seed=3,
                classifier=TrainConfig(regularization_strength=0.1, epochs=30, seed=3))
    base.update(overrides)
    return DisentangleConfig(**base)


def test_projection_annihilates_parallel_component():
    assert np.allclose(project(np.array([1.0, 0.0]), np.array([1.0, 0.0])), [0.0, 0.0])
    assert np.allclose(project(np.array([3.0, 4.0]), np.array([0.6, 0.8])),
                       [0.0, 0.0], atol=1e-12)


def test_projection_leaves_orthogonal_untouched():
    out = project(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.array_equal(out, [0.0, 1.0])


@settings(max_examples=80, deadline=None)
@given(v=finite_vectors, d_raw=finite_vectors)
def test_projection_properties(v, d_raw):
    norm = np.linalg.norm(d_raw)
    if norm < 1e-6:
        return
    d = d_raw / norm
    once = project(v, d)
    twice = project(once, d)
    assert abs(float(once @ d)) <= 1e-9 * max(1.0, np.linalg.norm(v))
    assert np.max(np.abs(twice - once)) <= 1e-9 * max(1.0, np.linalg.norm(v))
    assert np.linalg.norm(once) <= np.linalg.norm(v) + 1e-12


def test_apply_stack_empty_is_identity(fixture_table):
    stack = HyperplaneStack(directions=np.zeros((0, 2)))
    assert apply_stack(fixture_table, stack) is fixture_table


def test_apply_stack_idempotent():
    rng = np.random.default_rng(4)
    table = EmbeddingTable([f"w{i}" for i in range(20)], rng.normal(size=(20, 8)))
    # stacks are orthonormal, so idempotence holds
    directions, _ = np.linalg.qr(rng.normal(size=(8, 3)))
    stack = HyperplaneStack(directions=directions.T)
    once = apply_stack(table, stack)
    twice = apply_stack(once, stack)
    assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-9


def test_apply_stack_idempotent_on_run_product():
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=30, per_class=100, signal_strength=6.0, noise_scale=0.3, seed=14))
    out, stack = run(table, lexicon, small_config())
    assert len(stack) >= 1
    again = apply_stack(out, stack)
    assert np.max(np.abs(again.matrix - out.matrix)) <= 1e-6


def test_apply_stack_orthogonal_complement_preserved():
    rng = np.random.default_rng(5)
    d1, d2 = unit(rng.normal(size=10)), None
    d2 = unit(project(rng.normal(size=10), d1))
    stack = HyperplaneStack(directions=np.vstack([d1, d2]))
    v = rng.normal(size=10)
    v = project(project(v, d1), d2)
    table = EmbeddingTable(["v", "pad", "pad2"], np.vstack([v, rng.normal(size=(2, 10))]))
    out = apply_stack(table, stack)
    assert np.max(np.abs(out.rows(["v"])[0] - v)) <= 1e-9


def test_blocked_projection_matches_unblocked_reference(monkeypatch):
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=30, per_class=100, signal_strength=6.0, noise_scale=0.3,
        second_direction_strength=4.0, seed=21))
    _, stack = run(table, lexicon, small_config())
    assert len(stack) >= 2
    unblocked = apply_stack(table, stack).matrix
    # 7-row blocks: the table spans many blocks and ends in a ragged tail.
    monkeypatch.setattr(disentangler, "_PROJECT_ROWS", 7)
    assert len(table) % 7
    blocked = apply_stack(table, stack).matrix
    reference = np.array(table.matrix)
    for d in stack.directions:
        reference -= np.outer(reference @ d, d)
    # Each row's products are summed in one order, whatever the block edges.
    assert np.array_equal(blocked, unblocked)
    assert np.max(np.abs(blocked - reference)) <= 1e-12


def test_apply_stack_peak_memory_is_one_copy(monkeypatch):
    monkeypatch.setattr(disentangler, "_PROJECT_ROWS", 64)
    monkeypatch.setattr(embeddings, "_BLOCK_ROWS", 64)
    rng = np.random.default_rng(8)
    table = EmbeddingTable([f"w{i}" for i in range(2000)], rng.normal(size=(2000, 300)))
    directions, _ = np.linalg.qr(rng.normal(size=(300, 3)))
    stack = HyperplaneStack(directions=directions.T)
    assert len(table) >= 20 * disentangler._PROJECT_ROWS
    tracemalloc.start()
    try:
        out = apply_stack(table, stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.matrix.shape == table.matrix.shape
    assert peak <= 1.1 * table.matrix.nbytes


def test_apply_stack_dimension_mismatch():
    table = EmbeddingTable(["a"], [[1.0, 0.0]])
    stack = HyperplaneStack(directions=np.eye(3)[:1])
    with pytest.raises(DataError):
        apply_stack(table, stack)


def test_run_on_planted_synthetic_stops_quickly():
    table, lexicon, planted, _ = generate(SynthConfig(
        dimension=30, per_class=100, signal_strength=8.0, noise_scale=0.1, seed=3))
    out, stack = run(table, lexicon, small_config())
    assert len(stack) <= 3
    assert stack.final_accuracy <= 0.52
    assert abs(float(stack.directions[0] @ planted)) >= 0.95
    # every accuracy paired with a direction exceeded the stop threshold
    assert all(a > 0.52 for a in stack.per_iteration_accuracy)


def test_run_records_trace_and_respects_cap():
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=30, per_class=100, signal_strength=8.0, noise_scale=0.1, seed=4))
    out, stack = run(table, lexicon, small_config(max_iterations=1, stop_accuracy=0.5))
    assert len(stack) <= 1
    assert len(stack.accuracy_trace) == len(stack) + 1


def test_run_immediate_stop_leaves_table_unchanged():
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=20, per_class=50, signal_strength=5.0, noise_scale=0.0, seed=5))
    out, stack = run(table, lexicon, small_config(per_class=50, stop_accuracy=1.0))
    assert len(stack) == 0
    assert np.array_equal(out.matrix, table.matrix)
    assert stack.final_accuracy <= 1.0
    assert stack.accuracy_trace == (stack.final_accuracy,)


def test_run_zero_iterations_measures_only():
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=20, per_class=50, signal_strength=5.0, noise_scale=0.0, seed=6))
    out, stack = run(table, lexicon, small_config(per_class=50, max_iterations=0))
    assert len(stack) == 0
    assert np.array_equal(out.matrix, table.matrix)
    assert stack.final_accuracy > 0.9


def test_vector_norms_never_increase_across_rounds():
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=25, per_class=60, signal_strength=4.0, noise_scale=0.3, seed=7))
    out, stack = run(table, lexicon, small_config(per_class=60))
    before = np.linalg.norm(table.matrix, axis=1)
    after = np.linalg.norm(out.matrix, axis=1)
    assert np.all(after <= before + 1e-12)


def orthonormality_error(directions):
    return np.max(np.abs(directions @ directions.T - np.eye(len(directions))))


def test_consecutive_directions_near_orthogonal():
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=40, per_class=150, signal_strength=5.0, noise_scale=0.5, seed=8))
    out, stack = run(table, lexicon, small_config(per_class=150))
    assert len(stack) >= 2
    assert orthonormality_error(stack.directions) <= 1e-12


# Two-direction 20-d oracles, where a stack whose directions were not
# re-orthogonalized drifted to max |D D^T - I| of 7.5e-3, 2.0e-5 and 6.6e-6.
@pytest.mark.parametrize("table_seed", [11, 0, 2])
def test_run_stack_is_orthonormal_and_its_replay_moves_nothing(table_seed):
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=20, per_class=300, signal_strength=5.0, noise_scale=0.5,
        second_direction_strength=4.0, seed=table_seed))
    out, stack = run(table, lexicon, DisentangleConfig(
        per_class=300, seed=0, classifier=TrainConfig(seed=0)))
    assert len(stack) >= 7
    assert orthonormality_error(stack.directions) <= 1e-12
    again = apply_stack(out, stack).matrix
    moved = np.linalg.norm(again - out.matrix, axis=1)
    assert np.all(moved <= 1e-12 * np.linalg.norm(out.matrix, axis=1))


@settings(max_examples=60, deadline=None)
@given(dimension=st.integers(1, 12), count=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_apply_stack_is_idempotent_on_orthonormal_stacks(dimension, count, seed, scale):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dimension, min(count, dimension))))
    stack = HyperplaneStack(directions=q.T)
    table = EmbeddingTable([f"w{i}" for i in range(9)], scale * rng.normal(size=(9, dimension)))
    once = apply_stack(table, stack).matrix
    twice = apply_stack(table.with_matrix(once), stack).matrix
    assert np.all(np.linalg.norm(twice - once, axis=1)
                  <= 1e-12 * np.linalg.norm(table.matrix, axis=1))


def test_run_is_deterministic():
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=25, per_class=60, signal_strength=5.0, noise_scale=0.3, seed=9))
    out_a, stack_a = run(table, lexicon, small_config(per_class=60))
    out_b, stack_b = run(table, lexicon, small_config(per_class=60))
    assert np.array_equal(out_a.matrix, out_b.matrix)
    assert np.array_equal(stack_a.directions, stack_b.directions)
    assert stack_a.accuracy_trace == stack_b.accuracy_trace


def test_run_excludes_lexicon_words_missing_from_table(caplog):
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=25, per_class=60, signal_strength=5.0, noise_scale=0.3, seed=13))
    from ggsignal.lexicon import GenderLexicon
    padded = GenderLexicon(lexicon.language,
                           lexicon.feminine + ("ghost_f",),
                           lexicon.masculine + ("ghost_m",))
    with caplog.at_level("WARNING"):
        out, stack = run(table, padded, small_config(per_class=60))
    assert any("not in the embedding table" in r.message for r in caplog.records)
    assert stack.final_accuracy <= 0.52 or len(stack) == 15


def test_stack_applied_to_held_back_words_is_orthogonal():
    table, lexicon, _, _ = generate(SynthConfig(
        dimension=30, per_class=120, signal_strength=6.0, noise_scale=0.2, seed=11))
    held_back = list(table.words[::7])
    training_words = [w for w in table.words if w not in set(held_back)]
    train_table = EmbeddingTable(training_words, table.rows(training_words))
    train_lex = lexicon.restricted_to(training_words)
    _, stack = run(train_table, train_lex, small_config(per_class=80))
    assert len(stack) >= 1
    held_table = EmbeddingTable(held_back, table.rows(held_back))
    projected = apply_stack(held_table, stack)
    for direction in stack.directions:
        cos = projected.matrix @ direction / np.linalg.norm(projected.matrix, axis=1)
        assert np.max(np.abs(cos)) <= 1e-6


def test_stack_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    directions = np.linalg.qr(rng.normal(size=(7, 4)))[0].T
    stack = HyperplaneStack(directions=directions)
    path = tmp_path / "stack.txt"
    save_stack(stack, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "4 7"
    loaded = load_stack(path)
    assert np.array_equal(loaded.directions, directions)
    assert loaded.per_iteration_accuracy is None


def test_stack_round_trip_empty(tmp_path):
    stack = HyperplaneStack(directions=np.zeros((0, 5)))
    path = tmp_path / "stack.txt"
    save_stack(stack, path)
    loaded = load_stack(path)
    assert len(loaded) == 0
    assert loaded.dimension == 5


def test_load_stack_validates(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n3.0 4.0\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_stack(path)
    path.write_text("2 2\n1.0 0.0\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_stack(path)
    path.write_text("1 3\nnan nan nan\n", encoding="utf-8")
    with pytest.raises(FormatError, match="finite"):
        load_stack(path)
    path.write_text("0 -2\n", encoding="utf-8")
    with pytest.raises(FormatError, match="header"):
        load_stack(path)
    path.write_text("1 2\nzebra 1\n", encoding="utf-8")
    with pytest.raises(FormatError, match="non-numeric"):
        load_stack(path)


def test_stack_rejects_directions_that_are_not_orthogonal(tmp_path):
    directions = np.array([[1.0, 0.0, 0.0], [2**-0.5, 2**-0.5, 0.0]])
    with pytest.raises(ValueError, match="orthonormal within 1e-9: rows 0 and 1 "):
        HyperplaneStack(directions=directions)
    path = tmp_path / "skew.txt"
    path.write_text("2 3\n1 0 0\n0.70710678118654757 0.70710678118654757 0\n",
                    encoding="utf-8")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*rows 0 and 1 have dot"):
        load_stack(path)


def test_stack_requires_unit_directions():
    with pytest.raises(ValueError):
        HyperplaneStack(directions=np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        HyperplaneStack(directions=np.array([[np.nan, np.nan]]))
    with pytest.raises(ValueError):
        HyperplaneStack(directions=np.array([[1.0, 0.0]]),
                        per_iteration_accuracy=(0.9, 0.8))


def test_config_validation():
    with pytest.raises(ValueError):
        DisentangleConfig(stop_accuracy=0.4)
    with pytest.raises(ValueError):
        DisentangleConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        DisentangleConfig(per_class=0)

"""Association statistics against hand-computed and brute-force oracles.

The frozen constants below were produced by a spreadsheet-style pure-python
enumeration over the shipped 2-d fixture before the library existed; the
same enumeration is re-run here (math + itertools only, no numpy) so the
implementation is checked against a fully independent route.
"""

import math
import tracemalloc
from functools import lru_cache
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggsignal import association
from ggsignal.association import (_CHUNK, PermutationConfig, PValueMethod, _index_dtype,
                                  _monte_carlo_masks, _subset_rows, permutation_p,
                                  sc_effect_sizes, sc_weat, weat)
from ggsignal.embeddings import EmbeddingTable
from ggsignal.errors import (DataError, MissingWordsError, NumericError, UndersizedSetError,
                             ZeroVectorError)
from ggsignal.lexicon import StimulusSet
from ggsignal.seeding import rng_for

# Frozen from the pre-build oracle run over tests/data/fixture_2d.vec.
FIXTURE_WEAT_D = 1.0524982847198139
FIXTURE_WEAT_STAT = 6.100689586710459
FIXTURE_WEAT_P = 250 / 12870
FIXTURE_SC_D = 1.9034882109072848
FIXTURE_SC_STAT = 1.3542601604841518
FIXTURE_SC_P = 0.0


# --- independent pure-python oracle -----------------------------------------

def _cos(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    return dot / (math.sqrt(sum(a * a for a in u)) * math.sqrt(sum(b * b for b in v)))


def _mean(xs):
    return sum(xs) / len(xs)


def _pstd(xs):
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))


def oracle_weat(xx, yy, aa, bb):
    s = lambda w: _mean([_cos(w, a) for a in aa]) - _mean([_cos(w, b) for b in bb])
    sx = [s(x) for x in xx]
    sy = [s(y) for y in yy]
    d = (_mean(sx) - _mean(sy)) / _pstd(sx + sy)
    stat = sum(sx) - sum(sy)
    pooled = sx + sy
    greater = total = 0
    for chosen in combinations(range(len(pooled)), len(xx)):
        inside = set(chosen)
        si = sum(pooled[i] for i in inside) - sum(
            pooled[i] for i in range(len(pooled)) if i not in inside)
        total += 1
        greater += si > stat
    return d, stat, greater / total


def oracle_sc(w, aa, bb):
    ca = [_cos(w, a) for a in aa]
    cb = [_cos(w, b) for b in bb]
    d = (_mean(ca) - _mean(cb)) / _pstd(ca + cb)
    stat = _mean(ca) - _mean(cb)
    pooled = ca + cb
    greater = total = 0
    for chosen in combinations(range(len(pooled)), len(aa)):
        inside = set(chosen)
        ai = [pooled[i] for i in inside]
        bi = [pooled[i] for i in range(len(pooled)) if i not in inside]
        total += 1
        greater += (_mean(ai) - _mean(bi)) > stat
    return d, stat, greater / total


def fixture_vectors(table, prefix, count):
    return [tuple(table.rows([f"{prefix}{i}"])[0]) for i in range(1, count + 1)]


# --- single-category effect sizes -------------------------------------------

def test_sc_effect_sizes_identical_attribute_sets_is_zero(fixture_table, fixture_stimuli):
    a = fixture_stimuli["fixture.sc.a"]
    effects = sc_effect_sizes(fixture_table, ["x1", "y3", "w0"], a, a, min_words=5)
    assert np.all(effects == 0.0)


def test_sc_effect_sizes_trivial_values():
    table = EmbeddingTable(["u", "v", "a", "b"],
                           np.array([[3.0, 0.0], [0.0, 0.5], [1.0, 0.0], [0.0, 1.0]]))
    a, b = StimulusSet("a", ("a",)), StimulusSet("b", ("b",))
    # Cosines (1, 0) and (0, 1): difference +-1 over population std-dev 0.5.
    effects = sc_effect_sizes(table, ["u", "v"], a, b, min_words=1)
    assert effects == pytest.approx([2.0, -2.0], abs=1e-12)


def test_sc_effect_sizes_antisymmetric_in_attribute_sets(fixture_table, fixture_stimuli):
    a, b = fixture_stimuli["fixture.sc.a"], fixture_stimuli["fixture.sc.b"]
    words = ["x1", "y3", "w0", "a5"]
    forward = sc_effect_sizes(fixture_table, words, a, b, min_words=5)
    backward = sc_effect_sizes(fixture_table, words, b, a, min_words=5)
    assert forward == pytest.approx(-backward, abs=1e-15)


def test_sc_effect_sizes_zero_vector_rejected(fixture_table, fixture_stimuli):
    words = list(fixture_table.words)
    matrix = fixture_table.matrix.copy()
    matrix[words.index("w0")] = 0.0
    table = EmbeddingTable(words, matrix)
    with pytest.raises(ZeroVectorError, match="w0"):
        sc_effect_sizes(table, ["x1", "w0"], fixture_stimuli["fixture.sc.a"],
                        fixture_stimuli["fixture.sc.b"], min_words=5)


# --- fixture oracle ----------------------------------------------------------

def test_weat_matches_frozen_fixture_oracle(fixture_table, fixture_stimuli):
    result = weat(fixture_stimuli["fixture.targets.x"], fixture_stimuli["fixture.targets.y"],
                  fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"],
                  fixture_table)
    assert result.effect_size == pytest.approx(FIXTURE_WEAT_D, abs=1e-9)
    assert result.statistic == pytest.approx(FIXTURE_WEAT_STAT, abs=1e-9)
    assert result.p_value == pytest.approx(FIXTURE_WEAT_P, abs=1e-12)
    assert result.p_method.kind == "exact"
    assert result.p_method.partitions == 12870
    assert result.set_sizes == (8, 8, 8, 8)


def test_weat_matches_live_pure_python_oracle(fixture_table, fixture_stimuli):
    xx = fixture_vectors(fixture_table, "x", 8)
    yy = fixture_vectors(fixture_table, "y", 8)
    aa = fixture_vectors(fixture_table, "a", 8)
    bb = fixture_vectors(fixture_table, "b", 8)
    d, stat, p = oracle_weat(xx, yy, aa, bb)
    assert d == pytest.approx(FIXTURE_WEAT_D, abs=1e-12)
    result = weat(fixture_stimuli["fixture.targets.x"], fixture_stimuli["fixture.targets.y"],
                  fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"],
                  fixture_table)
    assert result.effect_size == pytest.approx(d, abs=1e-12)
    assert result.statistic == pytest.approx(stat, abs=1e-12)
    assert result.p_value == pytest.approx(p, abs=1e-12)


def test_sc_weat_matches_frozen_fixture_oracle(fixture_table, fixture_stimuli):
    result = sc_weat("w0", fixture_stimuli["fixture.sc.a"], fixture_stimuli["fixture.sc.b"],
                     fixture_table, min_words=5)
    assert result.effect_size == pytest.approx(FIXTURE_SC_D, abs=1e-9)
    assert result.statistic == pytest.approx(FIXTURE_SC_STAT, abs=1e-9)
    assert result.p_value == FIXTURE_SC_P
    live_d, live_stat, live_p = oracle_sc(
        tuple(fixture_table.rows(["w0"])[0]),
        fixture_vectors(fixture_table, "sa", 5), fixture_vectors(fixture_table, "sb", 5))
    assert result.effect_size == pytest.approx(live_d, abs=1e-12)
    assert result.p_value == live_p


def test_sc_weat_enforces_min_words_by_default(fixture_table, fixture_stimuli):
    with pytest.raises(UndersizedSetError):
        sc_weat("w0", fixture_stimuli["fixture.sc.a"], fixture_stimuli["fixture.sc.b"],
                fixture_table)


# --- invariances -------------------------------------------------------------

def test_weat_antisymmetry_is_exact(fixture_table, fixture_stimuli):
    x, y = fixture_stimuli["fixture.targets.x"], fixture_stimuli["fixture.targets.y"]
    a, b = fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"]
    base = weat(x, y, a, b, fixture_table)
    swapped_targets = weat(y, x, a, b, fixture_table)
    swapped_attrs = weat(x, y, b, a, fixture_table)
    assert swapped_targets.effect_size == -base.effect_size
    assert swapped_targets.statistic == -base.statistic
    assert swapped_attrs.effect_size == -base.effect_size
    assert swapped_attrs.statistic == -base.statistic


def test_weat_order_invariance(fixture_table, fixture_stimuli):
    x, y = fixture_stimuli["fixture.targets.x"], fixture_stimuli["fixture.targets.y"]
    a, b = fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"]
    base = weat(x, y, a, b, fixture_table)
    rng = np.random.default_rng(13)
    shuffle = lambda s: StimulusSet(s.name, tuple(rng.permutation(list(s.words))))
    shuffled = weat(shuffle(x), shuffle(y), shuffle(a), shuffle(b), fixture_table)
    assert shuffled.effect_size == pytest.approx(base.effect_size, abs=1e-12)
    assert shuffled.p_value == pytest.approx(base.p_value, abs=1e-12)


def test_weat_scaling_invariance(fixture_table, fixture_stimuli):
    x, y = fixture_stimuli["fixture.targets.x"], fixture_stimuli["fixture.targets.y"]
    a, b = fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"]
    base = weat(x, y, a, b, fixture_table)
    for scale in (0.001, 7.3, 4096.0):
        scaled_table = EmbeddingTable(fixture_table.words, fixture_table.matrix * scale)
        scaled = weat(x, y, a, b, scaled_table)
        assert scaled.effect_size == pytest.approx(base.effect_size, abs=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, abs=1e-12)


# --- permutation machinery ---------------------------------------------------

def test_permutation_p_exact_strict_count():
    p, method = permutation_p(np.array([10.0, 9.0, 1.0, 0.5]))
    assert method.kind == "exact"
    assert method.partitions == 6
    assert p == 0.0


def test_permutation_p_identity_at_minimum():
    # The identity partition (scores 1 and 2) has the unique smallest sum, so
    # every other partition counts and the identity itself does not.
    p, method = permutation_p(np.array([1.0, 2.0, 3.0, 4.0]))
    assert p == (method.partitions - 1) / method.partitions == 5 / 6


def test_permutation_p_empty_space_rejected():
    # No partition into two equal halves: too few scores, or an odd count.
    for scores in ([], [1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(DataError):
            permutation_p(np.array(scores))


@lru_cache(maxsize=4)
def _all_partitions(n_items, group_size):
    """Every `group_size`-subset of `n_items`, one per row in lexicographic order."""
    return np.array(list(combinations(range(n_items), group_size)),
                    dtype=np.uint8).reshape(math.comb(n_items, group_size), group_size)


# Reference oracle: exact mode by enumeration, gathering and summing every
# partition's sorted index row.
def _enumerated_p(scores):
    group = len(scores) // 2
    rows = _all_partitions(len(scores), group)
    observed = scores.take(np.arange(group)[None, :]).sum(axis=1)[0]
    count = sum(int(np.sum(scores.take(rows[start:start + 65536]).sum(axis=1) > observed))
                for start in range(0, len(rows), 65536))
    return count / len(rows), PValueMethod("exact", partitions=len(rows))


@st.composite
def pooled_scores(draw, max_items=20):
    """Pooled scores of every even size up to `max_items`, drawn from a small
    pool of values so that ties and duplicates are common, in one of several
    styles."""
    n_items = draw(st.sampled_from(range(2, max_items + 1, 2)))
    element = draw(st.sampled_from([
        st.floats(-10, 10),
        st.integers(-3, 3).map(float),                      # integer ties
        st.integers(-20, 20).map(lambda i: i * 0.1),        # decimals: inexact ties
        st.sampled_from([0.0, -0.0, 0.5, -0.5]),            # signed zeros
        st.integers(-40, 40).map(lambda i: i * 5e-324),     # subnormals
        st.floats(-1, 1).map(lambda x: x * 1e300),
        st.floats(-1, 1).map(lambda x: x * 1e306),          # the bound overflows
        st.floats(-1, 1).map(lambda x: x * 1e308),          # and the sums too
    ]))
    pool = draw(st.lists(element, min_size=1, max_size=n_items))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_items,
                          max_size=n_items))
    return np.array([pool[i] for i in picks])


@settings(max_examples=300, deadline=None)
@given(scores=pooled_scores())
# Subset sums that overflow: the half sum of items 0-2 is -inf, while the
# pairwise sum that the rule takes over some of its partitions is finite.
@example(scores=np.array([-.75, -.75, -1, 1, 1, .6, 0, 0, 1, .85, .85, 0, 0, 0, 0, 0]) * 1e308)
def test_exact_counting_matches_enumeration(scores):
    with np.errstate(over="ignore", invalid="ignore"):
        assert permutation_p(scores) == _enumerated_p(scores)


def test_all_tied_scores_are_summed_a_chunk_at_a_time():
    # Every partition ties the identity within the rounding bound, so each of
    # the C(20, 10) is summed by the rule; all at once would take 14.8 MB.
    scores = np.full(20, 0.1)
    expected = _enumerated_p(scores)
    permutation_p(scores)  # builds the subset tables
    tracemalloc.start()
    try:
        result = permutation_p(scores)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == expected
    assert peak < 1.5 * _CHUNK * 10 * np.dtype(np.float64).itemsize


@pytest.mark.parametrize("chunk", [3, 1000])
def test_undecided_pairs_split_across_chunks(monkeypatch, chunk):
    # Small chunks split the undecided pairs of one size, and one left
    # subset's run of them, across chunks.
    monkeypatch.setattr(association, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for n_items in (8, 12, 16):
        for scores in (rng.integers(-3, 4, n_items) * 0.1, np.full(n_items, 0.3),
                       rng.choice([0.1, 0.2, 0.3], n_items)):
            assert permutation_p(scores) == _enumerated_p(scores)
    # So do the undecided samples of Monte Carlo mode.
    for n_items in (10, 24, 70):
        for scores in (rng.integers(-3, 4, n_items) * 0.1, np.full(n_items, 0.3),
                       rng.normal(size=n_items)):
            config = PermutationConfig(samples=500, seed=n_items)
            with _sampling():
                assert permutation_p(scores, config) == _summed_p(scores, config)


@pytest.mark.parametrize("n_items, size", [(20, 0), (20, 4), (20, 10), (2, 1), (300, 2)])
def test_subset_tables_are_compact_and_read_only(n_items, size):
    half = n_items // 2
    for first in (0, half):
        rows = _subset_rows(n_items, first, size)
        assert rows.dtype == _index_dtype(n_items)
        assert rows.shape == (math.comb(half, size), size)
        assert not rows.flags.writeable
        assert _subset_rows(n_items, first, size) is rows
        assert rows.tolist() == [list(c) for c in combinations(range(first, first + half), size)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_permutation_p_rejects_non_finite_scores(bad):
    with pytest.raises(NumericError, match="1 of 4 pooled scores are not finite"):
        permutation_p(np.array([bad, 1.0, 2.0, 3.0]))
    scores = np.random.default_rng(0).normal(size=24)
    scores[[3, 17]] = bad
    with pytest.raises(NumericError, match="2 of 24 pooled scores are not finite"):
        permutation_p(scores, PermutationConfig(samples=100))


def _sampling():
    """Inside its with-block, `permutation_p` samples at every size. A
    context manager, not a fixture, so that hypothesis tests can use it."""
    return patch.object(association, "_EXACT_MAX_ITEMS", 0)


def _first_halves(keys, group_size):
    """Each row's items with the `group_size` smallest keys, tied keys taken
    in ascending item order, as a sorted index row."""
    return np.sort(np.argsort(keys, axis=1, kind="stable")[:, :group_size], axis=1)


# Reference oracle: the earlier callback form of `permutation_p`, kept here
# only to check the pooled-score form against it. Every partition is summed
# over its sorted index row.
def _callback_permutation_p(statistic_fn, observed, n_items, group_size, config):
    total = math.comb(n_items, group_size)
    if n_items <= association._EXACT_MAX_ITEMS:
        idx = _all_partitions(n_items, group_size)
        count = 0
        for start in range(0, total, 65536):
            stats = statistic_fn(idx[start:start + 65536])
            count += int(np.sum(stats > observed))
        return count / total, PValueMethod("exact", partitions=total)
    rng = rng_for(config.seed, "permutation")
    count = 0
    remaining = config.samples
    while remaining > 0:
        batch = min(remaining, 4096)
        idx = _first_halves(rng.random((batch, n_items)), group_size)
        stats = statistic_fn(idx)
        count += int(np.sum(stats > observed))
        remaining -= batch
    p = (count + 1) / (config.samples + 1)
    return p, PValueMethod("monte-carlo", samples=config.samples, seed=config.seed)


def _summed_p(scores, config):
    """`_callback_permutation_p` over the first-set sum: in Monte Carlo mode
    it gathers and sums every sample, redrawing the seeded stream each call."""
    group = len(scores) // 2

    def first_sum(idx):
        return scores[idx].sum(axis=1)
    observed = first_sum(np.arange(group)[None, :])[0]
    return _callback_permutation_p(first_sum, observed, len(scores), group, config)


def _weat_statistic(pooled):
    total = float(pooled.sum())

    def permuted(idx):
        return 2.0 * pooled[idx].sum(axis=1) - total
    return permuted


def _sc_weat_statistic(pooled):
    total = float(pooled.sum())
    group = len(pooled) // 2

    def permuted(idx):
        first = pooled[idx].sum(axis=1)
        return first / group - (total - first) / (len(pooled) - group)
    return permuted


@pytest.mark.parametrize("n_items", [16, 20, 24, 32])
@pytest.mark.parametrize("statistic", [_weat_statistic, _sc_weat_statistic])
def test_permutation_p_matches_callback_reference(n_items, statistic):
    config = PermutationConfig(samples=20_000, seed=7)
    for seed in range(3):
        pooled = np.random.default_rng([n_items, seed]).normal(size=n_items)
        fn = statistic(pooled)
        group = n_items // 2
        observed = float(fn(np.arange(group)[None, :])[0])
        expected = _callback_permutation_p(fn, observed, n_items, group, config)
        assert permutation_p(pooled, config) == expected
        assert expected[1].kind == ("exact" if n_items <= 20 else "monte-carlo")


def test_interleaved_calls_match_uncached_reference():
    # The reference redraws its stream on every call, so it sees no cache;
    # seed A, then seed B, then A again must not change what A counts over.
    calls = [(24, 20_000, 3), (24, 20_000, 4), (24, 20_000, 3), (32, 5_000, 3),
             (24, 5_000, 3), (32, 5_000, 4), (24, 20_000, 4), (32, 5_000, 3)]
    for n_items, samples, seed in calls:
        config = PermutationConfig(samples=samples, seed=seed)
        pooled = np.random.default_rng([n_items, samples]).normal(size=n_items)
        fn = _weat_statistic(pooled)
        group = n_items // 2
        observed = float(fn(np.arange(group)[None, :])[0])
        assert permutation_p(pooled, config) == _callback_permutation_p(
            fn, observed, n_items, group, config)


@pytest.mark.parametrize("n_items", [24, 256, 300])
def test_cached_monte_carlo_masks_are_compact_and_read_only(n_items):
    samples = 5_000
    masks = _monte_carlo_masks(n_items, samples, 11)
    assert masks.dtype == np.uint8
    assert masks.nbytes == samples * -(-n_items // 8)
    assert not masks.flags.writeable
    assert _monte_carlo_masks(n_items, samples, 11) is masks
    # Every sample marks half of the items, and no bit past the last item.
    bits = np.unpackbits(masks, axis=0, bitorder="little")
    assert (bits.sum(axis=0) == n_items // 2).all()
    assert not bits[n_items:].any()


@settings(max_examples=150, deadline=None)
@given(scores=pooled_scores(max_items=70), samples=st.integers(1, 5_000),
       seed=st.integers(0, 1_000))
# All equal: every sample ties the identity within the bound and is summed.
@example(scores=np.full(24, 0.1), samples=5_000, seed=0)
# Pairs of duplicate scores, within a half and across the halves.
@example(scores=np.repeat([0.3, -1.2, 0.7, 2.5, 0.1, -0.4], 2), samples=3_000, seed=1)
@example(scores=np.tile([0.3, -1.2, 0.7, 2.5, 0.1, -0.4, 0.9], 2), samples=3_000, seed=2)
# The bound overflows, so every sample is summed.
@example(scores=np.linspace(-1, 1, 70) * 1e306, samples=2_000, seed=3)
def test_monte_carlo_counting_matches_summing_every_sample(scores, samples, seed):
    config = PermutationConfig(samples=samples, seed=seed)
    with _sampling(), np.errstate(over="ignore", invalid="ignore"):
        assert permutation_p(scores, config) == _summed_p(scores, config)


def test_monte_carlo_counting_at_every_size():
    # Sizes that are not a multiple of 8 leave part of the last byte unused.
    rng = np.random.default_rng(26)
    for n_items in range(2, 71, 2):
        for scores in (rng.normal(size=n_items), rng.integers(-3, 4, n_items) * 0.1):
            config = PermutationConfig(samples=1_000, seed=n_items)
            with _sampling():
                assert permutation_p(scores, config) == _summed_p(scores, config)


# Frozen from the earlier Monte Carlo loop, which gathered and summed every
# sample's index row; `count` is the number of samples above the identity.
# The decimals case sums its rows in ascending item order: in another order
# its 0.1-step scores can round above the identity's sum of the same items.
@pytest.mark.parametrize("n_items, style, samples, seed, count", [
    (22, "normal", 100_000, 1, 75563),
    (24, "normal", 100_000, 2, 14940),
    (40, "normal", 100_000, 3, 66653),
    (64, "decimals", 100_000, 4, 60107),
    (70, "normal", 100_000, 5, 75352),
    (300, "normal", 5_000, 6, 1388),
])
def test_monte_carlo_p_values_are_pinned(n_items, style, samples, seed, count):
    rng = np.random.default_rng([n_items, 26])
    scores = rng.normal(size=n_items) if style == "normal" else rng.integers(-3, 4, n_items) * 0.1
    config = PermutationConfig(samples=samples, seed=seed)
    assert permutation_p(scores, config) == (
        (count + 1) / (samples + 1), PValueMethod("monte-carlo", samples=samples, seed=seed))


@pytest.mark.parametrize("seed, samples, count", [(0, 100_000, 2021), (5, 100_000, 1907),
                                                  (9, 20_000, 413)])
def test_fixture_weat_monte_carlo_p_values_are_pinned(fixture_table, fixture_stimuli, seed,
                                                      samples, count):
    x, y = fixture_stimuli["fixture.targets.x"], fixture_stimuli["fixture.targets.y"]
    a, b = fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"]
    with _sampling():
        result = weat(x, y, a, b, fixture_table, PermutationConfig(samples=samples, seed=seed))
    assert result.p_value == (count + 1) / (samples + 1)


@pytest.mark.parametrize("n_items, samples, seed", [(2, 7, 0), (22, 5_000, 1), (24, 4_097, 2),
                                                    (70, 3_000, 3), (300, 500, 4)])
def test_monte_carlo_masks_mark_the_index_rows(n_items, samples, seed):
    masks = _monte_carlo_masks(n_items, samples, seed)
    assert masks.shape == (-(-n_items // 8), samples)
    rng = rng_for(seed, "permutation")
    rows = np.vstack([_first_halves(rng.random((min(4096, samples - start), n_items)),
                                    n_items // 2) for start in range(0, samples, 4096)])
    member = np.zeros((samples, n_items), dtype=bool)
    np.put_along_axis(member, rows, True, axis=1)
    assert (np.packbits(member, axis=1, bitorder="little").T == masks).all()


def test_decided_samples_build_no_index_matrix(monkeypatch):
    unpacked = []
    unpackbits = np.unpackbits
    monkeypatch.setattr(association.np, "unpackbits",
                        lambda *args, **kwargs: unpacked.append(1) or unpackbits(*args, **kwargs))
    config = PermutationConfig(samples=20_000, seed=13)
    scores = np.random.default_rng(5).normal(size=26)
    assert permutation_p(scores, config) == _summed_p(scores, config)
    assert not unpacked
    # All-equal scores leave every sample undecided.
    scores = np.full(26, 0.1)
    assert permutation_p(scores, config) == _summed_p(scores, config)
    assert len(unpacked) == 1


def test_identity_sample_never_counts_itself():
    # The first set holds the four largest scores, so only the identity
    # partition can reach its sum; n = 8 draws it about once in 70 samples.
    # Summed in another order its items can round above the identity's sum,
    # which counted up to 21 of 2,000 samples for 15 of these 40 seeds.
    rng = np.random.default_rng(3)
    for seed in range(40):
        scores = np.concatenate([rng.uniform(10, 11, 4), rng.uniform(0, 1, 4)])
        with _sampling():
            assert permutation_p(scores, PermutationConfig(samples=2_000, seed=seed))[0] == \
                1 / 2_001
        assert permutation_p(scores)[0] == 0.0


class _QuarterKeys:
    """Uniform keys rounded down to quarters, so that a row's keys often tie."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, shape):
        return np.floor(self.rng.random(shape) * 4) / 4


def test_tied_keys_are_summed_over_their_index_rows(monkeypatch):
    monkeypatch.setattr(association, "rng_for",
                        lambda seed, name: _QuarterKeys(rng_for(seed, name)))
    n_items, samples = 12, 3_000
    _monte_carlo_masks.cache_clear()
    try:
        masks = _monte_carlo_masks(n_items, samples, 0)
        keys = _QuarterKeys(rng_for(0, "permutation")).random((samples, n_items))
        kth = np.sort(keys, axis=1)[:, n_items // 2 - 1:n_items // 2]
        assert 0 < np.count_nonzero((keys <= kth).sum(axis=1) > n_items // 2) < samples
        # Of tied keys, the lowest items are members.
        rows = _first_halves(keys, n_items // 2)
        member = np.zeros((samples, n_items), dtype=bool)
        np.put_along_axis(member, rows, True, axis=1)
        assert (np.packbits(member, axis=1, bitorder="little").T == masks).all()
        rng = np.random.default_rng(12)
        for scores in (rng.normal(size=n_items), rng.integers(-3, 4, n_items) * 0.1):
            observed = scores[np.arange(n_items // 2)[None, :]].sum(axis=1)[0]
            count = int(np.count_nonzero(scores[rows].sum(axis=1) > observed))
            with _sampling():
                assert permutation_p(scores, PermutationConfig(samples=samples))[0] == \
                    (count + 1) / (samples + 1)
    finally:
        _monte_carlo_masks.cache_clear()


def test_permutation_p_ties_never_count():
    # Identity partition {0, 1} sums to 1. Of the six partitions only {1, 2}
    # (sum 2) is strictly greater; the tied {0, 2}, {1, 3}, {2, 3} are not.
    p, method = permutation_p(np.array([0.0, 1.0, 1.0, 0.0]))
    assert (p, method.partitions) == (1 / 6, 6)
    p, _ = permutation_p(np.full(16, 0.25))
    assert p == 0.0
    p, _ = permutation_p(np.full(24, 0.25), PermutationConfig(samples=100))
    assert p == 1 / 101


def test_p_values_are_exact_up_to_20_scores():
    rng = np.random.default_rng(20)
    assert permutation_p(rng.normal(size=20))[1] == PValueMethod("exact", partitions=184_756)
    assert permutation_p(rng.normal(size=22))[1] == PValueMethod("monte-carlo",
                                                                 samples=100_000, seed=0)


@pytest.mark.parametrize("fields", [{"samples": 0}, {"samples": -5}])
def test_permutation_config_rejects_impossible_values(fields):
    with pytest.raises(ValueError, match="samples"):
        PermutationConfig(**fields)


def test_exact_and_monte_carlo_agree(fixture_table, fixture_stimuli):
    x, y = fixture_stimuli["fixture.targets.x"], fixture_stimuli["fixture.targets.y"]
    a, b = fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"]
    exact = weat(x, y, a, b, fixture_table, PermutationConfig())
    with _sampling():
        monte = weat(x, y, a, b, fixture_table, PermutationConfig(samples=100_000, seed=5))
    assert monte.p_method.kind == "monte-carlo"
    assert abs(exact.p_value - monte.p_value) <= 0.01


def test_monte_carlo_p_deterministic_per_seed(fixture_table, fixture_stimuli):
    x, y = fixture_stimuli["fixture.targets.x"], fixture_stimuli["fixture.targets.y"]
    a, b = fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"]
    config = PermutationConfig(samples=20_000, seed=9)
    with _sampling():
        first = weat(x, y, a, b, fixture_table, config)
        second = weat(x, y, a, b, fixture_table, config)
        other = weat(x, y, a, b, fixture_table, PermutationConfig(samples=20_000, seed=10))
    assert first.p_value == second.p_value
    assert first.p_value != other.p_value


# --- null calibration ---------------------------------------------------------

def _random_test_sets(rng, dim=20, size=8):
    words = [f"t{i}" for i in range(4 * size)]
    table = EmbeddingTable(words, rng.normal(size=(4 * size, dim)))
    quarters = [words[i * size:(i + 1) * size] for i in range(4)]
    sets = [StimulusSet(name, tuple(part))
            for name, part in zip(("x", "y", "a", "b"), quarters)]
    return table, sets


def test_null_calibration_rejection_rate():
    rng = np.random.default_rng(2024)
    rejections = 0
    effect_sizes = []
    trials = 200
    for _ in range(trials):
        table, (x, y, a, b) = _random_test_sets(rng)
        result = weat(x, y, a, b, table)
        rejections += result.p_value < 0.05
        effect_sizes.append(result.effect_size)
    assert rejections / trials == pytest.approx(0.05, abs=0.03)
    assert abs(float(np.median(effect_sizes))) < 0.3


# --- input validation ---------------------------------------------------------

def test_weat_rejects_overlapping_targets(fixture_table, fixture_stimuli):
    overlapping = StimulusSet("overlap", fixture_stimuli["fixture.targets.x"].words[:7] + ("y1",))
    with pytest.raises(DataError, match="overlap"):
        weat(overlapping, fixture_stimuli["fixture.targets.y"],
             fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"],
             fixture_table)


def test_weat_rejects_undersized_set(fixture_table, fixture_stimuli):
    small = StimulusSet("small", fixture_stimuli["fixture.attributes.a"].words[:7])
    with pytest.raises(UndersizedSetError, match="small"):
        weat(fixture_stimuli["fixture.targets.x"], fixture_stimuli["fixture.targets.y"],
             small, fixture_stimuli["fixture.attributes.b"], fixture_table)


def test_weat_missing_word_aborts_with_name(fixture_table, fixture_stimuli):
    ghost = StimulusSet("ghosted", fixture_stimuli["fixture.targets.x"].words[:7] + ("spectre",))
    with pytest.raises(MissingWordsError, match="spectre"):
        weat(ghost, fixture_stimuli["fixture.targets.y"],
             fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"],
             fixture_table)


def test_weat_permissive_mode_drops_missing(fixture_table, fixture_stimuli):
    ghost = StimulusSet("ghosted", fixture_stimuli["fixture.targets.x"].words + ("spectre",))
    result = weat(ghost, fixture_stimuli["fixture.targets.y"],
                  fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"],
                  fixture_table, on_missing="drop")
    assert result.set_sizes[0] == 8


def test_weat_unequal_targets_need_trim_flag(fixture_table, fixture_stimuli):
    nine = StimulusSet("nine", fixture_stimuli["fixture.targets.x"].words + ("w0",))
    with pytest.raises(DataError, match="same size"):
        weat(nine, fixture_stimuli["fixture.targets.y"],
             fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"],
             fixture_table)
    result = weat(nine, fixture_stimuli["fixture.targets.y"],
                  fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"],
                  fixture_table, trim_to_equal=True)
    assert result.set_sizes[0] == result.set_sizes[1] == 8


def test_zero_vector_word_named(fixture_stimuli):
    words = [f"x{i}" for i in range(1, 9)] + [f"y{i}" for i in range(1, 9)] + \
            [f"a{i}" for i in range(1, 9)] + [f"b{i}" for i in range(1, 9)]
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(32, 4))
    matrix[0] = 0.0
    table = EmbeddingTable(words, matrix)
    with pytest.raises(ZeroVectorError, match="x1"):
        weat(fixture_stimuli["fixture.targets.x"], fixture_stimuli["fixture.targets.y"],
             fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"],
             table)


# --- bulk path consistency -----------------------------------------------------

def test_bulk_sc_effects_match_single_route(fixture_table, fixture_stimuli):
    a = fixture_stimuli["fixture.sc.a"]
    b = fixture_stimuli["fixture.sc.b"]
    targets = ["x1", "y3", "w0", "a5"]
    bulk = sc_effect_sizes(fixture_table, targets, a, b, min_words=5)
    for word, expected in zip(targets, bulk):
        single = sc_weat(word, a, b, fixture_table, min_words=5)
        assert single.effect_size == pytest.approx(float(expected), abs=1e-12)


def _one_word_route(word, a_words, b_words, table, p_config):
    """sc_weat's statistic and p-value by an independent route: the word's
    cosines as 1-d matrix-vector products."""
    unit = table.unit_rows([word])[0]
    cos_a = table.unit_rows(a_words) @ unit
    cos_b = table.unit_rows(b_words) @ unit
    p, _ = permutation_p(np.concatenate([cos_a, cos_b]), p_config)
    return float(cos_a.mean() - cos_b.mean()), p


@pytest.mark.parametrize("set_size, kind", [(8, "exact"), (12, "monte-carlo")])
def test_sc_weat_shares_the_single_category_statistic(set_size, kind):
    rng = np.random.default_rng(set_size)
    words = [f"w{i}" for i in range(300)]
    matrix = rng.normal(size=(len(words), 50))
    matrix[-1] = 0.0
    table = EmbeddingTable(words, matrix)
    a_words, b_words = words[:set_size], words[set_size:2 * set_size]
    a, b = StimulusSet("a", tuple(a_words)), StimulusSet("b", tuple(b_words))
    config = PermutationConfig(samples=2000, seed=5)
    for word in words[2 * set_size:2 * set_size + 100]:
        result = sc_weat(word, a, b, table, config)
        assert result.p_method.kind == kind
        # Bitwise: sweep and valnorm compute this per-word value in batches.
        assert result.effect_size == float(sc_effect_sizes(table, [word], a, b)[0])
        assert (result.statistic, result.p_value) == _one_word_route(
            word, a_words, b_words, table, config)
    # An unusable word is reported before any problem with the sets.
    small, absent = StimulusSet("small", ("w0", "w1")), StimulusSet("absent", ("ghost",))
    with pytest.raises(MissingWordsError, match="nothing"):
        sc_weat("nothing", small, absent, table)
    with pytest.raises(ZeroVectorError, match="w299"):
        sc_weat("w299", small, absent, table)
    with pytest.raises(UndersizedSetError, match="small"):
        sc_weat("w100", small, b, table)
    with pytest.raises(DataError, match="same size"):
        sc_weat("w100", a, StimulusSet("b", tuple(words[50:50 + set_size + 1])), table)

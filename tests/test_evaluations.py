import math

import numpy as np
import pytest

from ggsignal import evaluations
from ggsignal.classifier import TrainConfig, accuracy, train
from ggsignal.disentangler import DisentangleConfig, HyperplaneStack, apply_stack, run
from ggsignal.embeddings import EmbeddingTable
from ggsignal.errors import DataError, NumericError, ZeroVectorError
from ggsignal.evaluations import (GgWeatSpec, analogy_accuracy, build_gg_targets,
                                  gg_weat, pairwise_gap, principal_coordinates,
                                  sc_gg_sweep, valnorm)
from ggsignal.lexicon import (AnalogyQuestion, GenderLexicon, SimilarityPair,
                              StimulusSet, ValenceNorm)
from ggsignal.synthetic import SynthConfig, generate


def pair(a, b, score, ga=None, gb=None):
    return SimilarityPair(a, b, score, ga, gb)


def with_tiny(table):
    """`table` plus a word "tiny" whose non-zero values have squares that
    underflow, so that its norm is zero."""
    return EmbeddingTable([*table.words, "tiny"],
                          np.vstack([table.matrix, np.full(table.dimension, 1e-170)]))


LEXICON = GenderLexicon(
    "it",
    ("molecola", "casa", "luna", "pietra", "sedia", "porta", "strada", "nave",
     "penna", "torre"),
    ("atomo", "tavolo", "sole", "sasso", "muro", "ponte", "fiume", "treno",
     "libro", "faro"),
)

OPPOSITE_PAIRS = [
    pair("molecola", "atomo", 8.2),
    pair("casa", "tavolo", 7.9),
    pair("luna", "sole", 7.7),
    pair("pietra", "sasso", 7.5),
    pair("sedia", "muro", 7.2),
    pair("porta", "ponte", 7.0),
    pair("strada", "fiume", 6.8),
    pair("nave", "treno", 6.6),
    pair("penna", "libro", 6.4),
    pair("torre", "faro", 6.2),
]


# --- target construction -------------------------------------------------------

def test_build_gg_targets_places_pair_members_by_gender():
    fem, masc = build_gg_targets(OPPOSITE_PAIRS, LEXICON, min_score=6.0)
    assert "molecola" in fem.words and "atomo" in masc.words
    assert fem.words[0] == "molecola" and masc.words[0] == "atomo"  # score order
    assert len(fem) == len(masc) == 10


def test_build_gg_targets_excludes_same_gender_and_unknown_words():
    pairs = OPPOSITE_PAIRS + [
        pair("luna", "casa", 9.9),          # same gender, highest score
        pair("madre", "padre", 9.8),        # not in (inanimate) lexicon
    ]
    fem, masc = build_gg_targets(pairs, LEXICON, min_score=6.0)
    assert "madre" not in fem.words
    assert len(fem) == len(masc) == 10
    assert fem.words[0] == "molecola"


def test_build_gg_targets_threshold_and_cap():
    fem, masc = build_gg_targets(OPPOSITE_PAIRS, LEXICON, min_score=6.5,
                                 max_per_set=8)
    assert len(fem) == len(masc) == 8
    with pytest.raises(DataError):
        build_gg_targets(OPPOSITE_PAIRS, LEXICON, min_score=7.6)


def test_build_gg_targets_deduplicates():
    pairs = OPPOSITE_PAIRS + [pair("molecola", "tavolo", 9.0)]
    fem, masc = build_gg_targets(pairs, LEXICON, min_score=6.0)
    assert fem.words.count("molecola") == 1
    assert set(fem.words).isdisjoint(masc.words)
    for w in fem.words:
        assert LEXICON.gender_of(w) == "F"
    for w in masc.words:
        assert LEXICON.gender_of(w) == "M"


def test_build_gg_targets_label_disagreeing_with_lexicon_wins(caplog):
    # "luna" is feminine in the lexicon; the pair labels it masculine.
    pairs = OPPOSITE_PAIRS + [pair("luna", "casa", 9.9, "M", "F")]
    with caplog.at_level("WARNING", logger="ggsignal.evaluations"):
        fem, masc = build_gg_targets(pairs, LEXICON, min_score=6.0)
    assert fem.words[0] == "casa" and masc.words[0] == "luna"
    assert "pair label M for 'luna' disagrees with lexicon F; using label" in caplog.text


def test_build_gg_targets_is_deterministic():
    first = build_gg_targets(OPPOSITE_PAIRS, LEXICON, 6.0)
    second = build_gg_targets(list(reversed(OPPOSITE_PAIRS)), LEXICON, 6.0)
    assert first[0].words == second[0].words
    assert first[1].words == second[1].words


# --- gg-weat on the synthetic oracle -------------------------------------------

def synthetic_gg_setup(seed=17):
    table, lexicon, planted, base = generate(SynthConfig(
        dimension=40, per_class=120, signal_strength=5.0, noise_scale=0.4, seed=seed))
    fem, masc = list(lexicon.feminine), list(lexicon.masculine)
    spec = GgWeatSpec(
        StimulusSet("targets-f", tuple(fem[:12])),
        StimulusSet("targets-m", tuple(masc[:12])),
        StimulusSet("attrs-f", tuple(fem[12:24])),
        StimulusSet("attrs-m", tuple(masc[12:24])),
    )
    return table, lexicon, planted, spec


def test_gg_weat_sign_convention_and_disentanglement():
    table, lexicon, planted, spec = synthetic_gg_setup()
    before = gg_weat(spec, table)
    assert before.effect_size > 1.0
    config = DisentangleConfig(per_class=120, seed=17,
                               classifier=TrainConfig(regularization_strength=0.1,
                                                      epochs=30, seed=17))
    after_table, stack = run(table, lexicon, config)
    after = gg_weat(spec, after_table)
    assert abs(after.effect_size) <= 0.2
    assert after.effect_size < before.effect_size


# --- per-word sweep -------------------------------------------------------------

def sweep_setup(seed=23):
    table, lexicon, planted, base = generate(SynthConfig(
        dimension=40, per_class=120, signal_strength=5.0, noise_scale=0.4, seed=seed))
    fem_attrs = StimulusSet("attrs-f", tuple(lexicon.feminine[100:110]))
    masc_attrs = StimulusSet("attrs-m", tuple(lexicon.masculine[100:110]))
    fem_sample = list(lexicon.feminine[:60])
    masc_sample = list(lexicon.masculine[:60])
    return table, planted, fem_attrs, masc_attrs, fem_sample, masc_sample


def test_sweep_identity_transform_weakens_nothing():
    table, _, fem_attrs, masc_attrs, fem_sample, masc_sample = sweep_setup()
    result = sc_gg_sweep(fem_sample, masc_sample, fem_attrs, masc_attrs,
                         table, table)
    assert result.weakened_fraction["overall"] == 0.0
    assert result.weakened_fraction_loose["overall"] == 0.0


def test_sweep_exact_gender_removal_weakens_nearly_all():
    table, planted, fem_attrs, masc_attrs, fem_sample, masc_sample = sweep_setup()
    stack = HyperplaneStack(directions=planted[None, :])
    after = apply_stack(table, stack)
    result = sc_gg_sweep(fem_sample, masc_sample, fem_attrs, masc_attrs,
                         table, after)
    assert result.weakened_fraction["overall"] >= 0.95
    assert result.mean_abs_after["feminine"] < result.mean_abs_before["feminine"]
    assert result.mean_abs_after["masculine"] < result.mean_abs_before["masculine"]
    for record in result.records[:5]:
        assert record.gender == "F"
        assert record.d_before > record.d_after


def test_sweep_sign_convention_feminine_positive():
    table, _, fem_attrs, masc_attrs, fem_sample, masc_sample = sweep_setup()
    result = sc_gg_sweep(fem_sample, masc_sample, fem_attrs, masc_attrs,
                         table, table)
    fem_scores = [r.d_before for r in result.records if r.gender == "F"]
    masc_scores = [r.d_before for r in result.records if r.gender == "M"]
    assert np.mean(fem_scores) > 0.5
    assert np.mean(masc_scores) < -0.5


def test_sweep_drop_policy_drops_words_without_direction():
    table, _, fem_attrs, masc_attrs, fem_sample, masc_sample = sweep_setup()
    table = with_tiny(table)
    result = sc_gg_sweep(fem_sample + ["tiny"], masc_sample, fem_attrs, masc_attrs,
                         table, table, on_missing="drop")
    assert [r.word for r in result.records] == fem_sample + masc_sample


def test_sweep_zero_norm_words_in_after_table_are_a_numeric_error():
    table, _, fem_attrs, masc_attrs, fem_sample, masc_sample = sweep_setup()
    zeroed = [fem_sample[3], masc_sample[0], masc_sample[7]]
    matrix = table.matrix.copy()
    matrix[[table.index_of(w) for w in zeroed]] = 0.0
    after = table.with_matrix(matrix)
    with pytest.raises(ZeroVectorError,
                       match=f"sweep sample: zero-norm vectors for: {', '.join(zeroed)}$"):
        sc_gg_sweep(fem_sample, masc_sample, fem_attrs, masc_attrs, table, after)
    result = sc_gg_sweep(fem_sample, masc_sample, fem_attrs, masc_attrs, table, after,
                         on_missing="drop")
    assert [r.word for r in result.records] == [
        w for w in fem_sample + masc_sample if w not in zeroed]
    assert [r.gender for r in result.records] == ["F"] * 59 + ["M"] * 58


def test_sweep_empty_sample_rejected():
    table, _, fem_attrs, masc_attrs, *_ = sweep_setup()
    with pytest.raises(DataError):
        sc_gg_sweep([], [], fem_attrs, masc_attrs, table, table)


# --- valence correlation ---------------------------------------------------------

def valnorm_setup(fixture_table, fixture_stimuli):
    pleasant = fixture_stimuli["fixture.attributes.a"]
    unpleasant = fixture_stimuli["fixture.attributes.b"]
    words = ["x1", "x2", "y1", "y2", "w0", "x5"]
    return pleasant, unpleasant, words


def test_valnorm_perfect_and_negated_correlation(fixture_table, fixture_stimuli):
    pleasant, unpleasant, words = valnorm_setup(fixture_table, fixture_stimuli)
    from ggsignal.association import sc_weat
    scores = [sc_weat(w, pleasant, unpleasant, fixture_table).effect_size for w in words]
    norms = [ValenceNorm(w, s) for w, s in zip(words, scores)]
    r, n = valnorm(norms, pleasant, unpleasant, fixture_table)
    assert n == len(words)
    assert r == pytest.approx(1.0, abs=1e-9)
    negated = [ValenceNorm(w, -s) for w, s in zip(words, scores)]
    r_neg, _ = valnorm(negated, pleasant, unpleasant, fixture_table)
    assert r_neg == pytest.approx(-1.0, abs=1e-9)


def test_valnorm_affine_invariance(fixture_table, fixture_stimuli):
    pleasant, unpleasant, words = valnorm_setup(fixture_table, fixture_stimuli)
    norms = [ValenceNorm(w, v) for w, v in zip(words, [1.0, 3.5, -2.0, 0.7, 9.9, 4.2])]
    r_base, _ = valnorm(norms, pleasant, unpleasant, fixture_table)
    rescaled = [ValenceNorm(n.word, 2.5 * n.valence + 11.0) for n in norms]
    r_scaled, _ = valnorm(rescaled, pleasant, unpleasant, fixture_table)
    assert r_scaled == pytest.approx(r_base, abs=1e-9)


def test_valnorm_drops_missing_words_and_counts(fixture_table, fixture_stimuli):
    pleasant, unpleasant, words = valnorm_setup(fixture_table, fixture_stimuli)
    norms = [ValenceNorm(w, v) for w, v in zip(words, [1, 2, 3, 4, 5, 6])]
    norms.append(ValenceNorm("notaword", 9.0))
    r, n = valnorm(norms, pleasant, unpleasant, fixture_table)
    assert n == len(words)
    norms.append(ValenceNorm("tiny", 7.0))
    assert valnorm(norms, pleasant, unpleasant, with_tiny(fixture_table),
                   on_missing="drop") == (r, n)


def test_valnorm_too_few_words_rejected(fixture_table, fixture_stimuli):
    pleasant, unpleasant, _ = valnorm_setup(fixture_table, fixture_stimuli)
    norms = [ValenceNorm("x1", 1.0), ValenceNorm("x2", 2.0)]
    with pytest.raises(DataError):
        valnorm(norms, pleasant, unpleasant, fixture_table)


def test_valnorm_zero_variance_rejected(fixture_table, fixture_stimuli):
    pleasant, unpleasant, words = valnorm_setup(fixture_table, fixture_stimuli)
    norms = [ValenceNorm(w, 5.0) for w in words]
    with pytest.raises(NumericError):
        valnorm(norms, pleasant, unpleasant, fixture_table)


# --- analogies -------------------------------------------------------------------

def analogy_table():
    e = np.eye(4)
    words = ["alpha", "beta", "gamma", "delta", "decoy"]
    matrix = np.vstack([
        e[0],                       # alpha
        e[1],                       # beta
        e[2],                       # gamma
        (e[1] + e[2]) / math.sqrt(2.0),  # delta = beta - alpha + gamma direction
        e[3],                       # decoy
    ])
    return EmbeddingTable(words, matrix)


def test_analogy_known_answer_and_query_exclusion():
    table = analogy_table()
    questions = [AnalogyQuestion("alpha", "beta", "gamma", "delta", "family")]
    accuracy, n = analogy_accuracy(questions, table)
    assert (accuracy, n) == (1.0, 1)
    # without delta in the vocabulary the decoy wins and the answer is wrong
    questions_bad = [AnalogyQuestion("alpha", "beta", "gamma", "missing", "family")]
    accuracy, n = analogy_accuracy(questions_bad, table)
    assert (accuracy, n) == (0.0, 1)


def test_analogy_drops_unresolvable_queries():
    table = analogy_table()
    questions = [
        AnalogyQuestion("alpha", "beta", "gamma", "delta", "family"),
        AnalogyQuestion("ghost", "beta", "gamma", "delta", "family"),
    ]
    accuracy, n = analogy_accuracy(questions, table)
    assert (accuracy, n) == (1.0, 1)


def test_analogy_section_filter():
    table = analogy_table()
    questions = [
        AnalogyQuestion("alpha", "beta", "gamma", "delta", "family"),
        AnalogyQuestion("alpha", "beta", "gamma", "decoy", "capitals"),
    ]
    accuracy, n = analogy_accuracy(questions, table, sections={"family"})
    assert (accuracy, n) == (1.0, 1)
    with pytest.raises(DataError):
        analogy_accuracy(questions, table, sections={"nothere"})


def test_analogy_scale_invariance():
    table = analogy_table()
    scaled = EmbeddingTable(table.words, table.matrix * 37.5)
    questions = [AnalogyQuestion("alpha", "beta", "gamma", "delta", "family")]
    assert analogy_accuracy(questions, table) == analogy_accuracy(questions, scaled)


def _unit_copy_winners(questions, table):
    """Reference: top candidate per question, scored against a normalized
    copy of the whole table (the form the copy-free scoring replaced)."""
    norms = np.linalg.norm(table.matrix, axis=1)
    usable = norms > 0.0
    unit = np.zeros_like(table.matrix)
    unit[usable] = table.matrix[usable] / norms[usable, None]
    index = {w: i for i, w in enumerate(table.words)}
    winners = []
    for q in questions:
        ra, rb, rc = index[q.a], index[q.b], index[q.c]
        scores = unit @ (unit[rb] - unit[ra] + unit[rc])
        scores[~usable] = -math.inf
        scores[[ra, rb, rc]] = -math.inf
        winners.append(table.words[int(np.argmax(scores))])
    return winners


def test_analogy_copy_free_scoring_matches_unit_copy():
    rng = np.random.default_rng(41)
    words = [f"w{i}" for i in range(400)]
    matrix = rng.normal(size=(400, 12)) * rng.uniform(0.1, 10.0, size=(400, 1))
    matrix[[5, 77, 300]] = 0.0
    table = EmbeddingTable(words, matrix)
    usable = [w for i, w in enumerate(words) if i not in (5, 77, 300)]
    # More questions than one scoring chunk, so a chunk boundary is crossed.
    picks = [rng.choice(len(usable), 3, replace=False) for _ in range(300)]
    queries = [AnalogyQuestion(usable[i], usable[j], usable[k], "", "s") for i, j, k in picks]
    winners = _unit_copy_winners(queries, table)
    questions = [AnalogyQuestion(q.a, q.b, q.c, d, "s") for q, d in zip(queries, winners)]
    assert analogy_accuracy(questions, table) == (1.0, 300)


@pytest.mark.parametrize("per_chunk", [1, 2, 3])
def test_analogy_chunk_from_score_budget_keeps_results(monkeypatch, per_chunk):
    rng = np.random.default_rng(43)
    words = [f"w{i}" for i in range(200)]
    table = EmbeddingTable(words, rng.normal(size=(200, 8)))
    picks = [rng.choice(200, 3, replace=False) for _ in range(40)]
    queries = [AnalogyQuestion(words[i], words[j], words[k], "", "s") for i, j, k in picks]
    winners = _unit_copy_winners(queries, table)
    # Half the questions expect their winner, the rest another word.
    questions = [AnalogyQuestion(q.a, q.b, q.c, d if n % 2 else words[n], "s")
                 for n, (q, d) in enumerate(zip(queries, winners))]
    expected = analogy_accuracy(questions, table)
    assert 0.0 < expected[0] < 1.0
    monkeypatch.setattr(evaluations, "_SCORE_BYTES", per_chunk * 8 * len(table) + 7)
    assert analogy_accuracy(questions, table) == expected


# --- pairwise gap ----------------------------------------------------------------

GAP_LEXICON = GenderLexicon("xx", ("luna", "casa"), ("sol", "rio"))

GENDERED_PAIRS = [
    pair("luna", "casa", 5.0),
    pair("sol", "rio", 5.0),
    pair("luna", "sol", 5.0),
    pair("casa", "rio", 5.0),
]
ENGLISH_PAIRS = [
    pair("moon", "house", 5.0),
    pair("sun", "river", 5.0),
    pair("moon", "sun", 5.0),
    pair("house", "river", 5.0),
]


def gap_tables(seed=31):
    rng = np.random.default_rng(seed)
    gendered = EmbeddingTable(["luna", "casa", "sol", "rio"], rng.normal(size=(4, 6)))
    disentangled = EmbeddingTable(["luna", "casa", "sol", "rio"], rng.normal(size=(4, 6)))
    english = EmbeddingTable(["moon", "house", "sun", "river"], rng.normal(size=(4, 6)))
    return gendered, disentangled, english


def brute_force_gap(table, pairs, split):
    sums = {"same": [], "diff": []}
    vec = {w: list(table.rows([w])[0]) for p in pairs for w in (p.word_a, p.word_b)}
    for p, kind in zip(pairs, split):
        a, b = vec[p.word_a], vec[p.word_b]
        dot = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(x * x for x in b))
        sums[kind].append(dot / (na * nb))
    avg = {k: sum(v) / len(v) for k, v in sums.items()}
    return avg["same"], avg["diff"]


def test_pairwise_gap_matches_brute_force_loop():
    gendered, disentangled, english = gap_tables()
    gap = pairwise_gap(GENDERED_PAIRS, ENGLISH_PAIRS, GAP_LEXICON,
                       gendered, disentangled, english)
    split = ["same", "same", "diff", "diff"]
    same_raw, diff_raw = brute_force_gap(gendered, GENDERED_PAIRS, split)
    same_dis, diff_dis = brute_force_gap(disentangled, GENDERED_PAIRS, split)
    same_en, diff_en = brute_force_gap(english, ENGLISH_PAIRS, split)
    assert gap.gap_raw == pytest.approx(same_raw - diff_raw, abs=1e-12)
    assert gap.gap_disentangled == pytest.approx(same_dis - diff_dis, abs=1e-12)
    assert gap.gap_english == pytest.approx(same_en - diff_en, abs=1e-12)
    assert gap.n_same == 2 and gap.n_diff == 2


def test_pairwise_gap_identity_gives_zero_reduction():
    gendered, _, english = gap_tables()
    gap = pairwise_gap(GENDERED_PAIRS, ENGLISH_PAIRS, GAP_LEXICON,
                       gendered, gendered, english)
    assert gap.reduction == pytest.approx(0.0, abs=1e-12)


def test_pairwise_gap_full_closure_gives_one():
    gendered, _, english = gap_tables()
    # disentangled table reproduces the English geometry exactly
    mapping = {"luna": "moon", "casa": "house", "sol": "sun", "rio": "river"}
    matrix = english.rows([mapping[w] for w in ("luna", "casa", "sol", "rio")])
    closed = EmbeddingTable(["luna", "casa", "sol", "rio"], matrix)
    gap = pairwise_gap(GENDERED_PAIRS, ENGLISH_PAIRS, GAP_LEXICON,
                       gendered, closed, english)
    assert gap.reduction == pytest.approx(1.0, abs=1e-12)


def test_pairwise_gap_undefined_reduction_reported_as_none():
    gendered, _, english = gap_tables()
    mapping = {"moon": "luna", "house": "casa", "sun": "sol", "river": "rio"}
    matrix = gendered.rows([mapping[w] for w in ("moon", "house", "sun", "river")])
    mirrored_english = EmbeddingTable(["moon", "house", "sun", "river"], matrix)
    gap = pairwise_gap(GENDERED_PAIRS, ENGLISH_PAIRS, GAP_LEXICON,
                       gendered, gendered, mirrored_english)
    assert gap.reduction is None


def test_pairwise_gap_requires_aligned_lists():
    gendered, disentangled, english = gap_tables()
    with pytest.raises(DataError):
        pairwise_gap(GENDERED_PAIRS, ENGLISH_PAIRS[:3], GAP_LEXICON,
                     gendered, disentangled, english)


def test_pairwise_gap_skips_non_lexicon_pairs():
    gendered, disentangled, english = gap_tables()
    extra_g = GENDERED_PAIRS + [pair("madre", "padre", 5.0)]
    extra_e = ENGLISH_PAIRS + [pair("mother", "father", 5.0)]
    gap = pairwise_gap(extra_g, extra_e, GAP_LEXICON, gendered, disentangled, english)
    assert gap.n_skipped == 1


def test_pairwise_gap_skips_pairs_without_direction():
    gendered, disentangled, english = gap_tables()
    base = pairwise_gap(GENDERED_PAIRS, ENGLISH_PAIRS, GAP_LEXICON,
                        gendered, disentangled, english)
    gap = pairwise_gap(GENDERED_PAIRS + [pair("luna", "rio", 5.0)],
                       ENGLISH_PAIRS + [pair("moon", "tiny", 5.0)], GAP_LEXICON,
                       gendered, disentangled, with_tiny(english))
    assert gap.n_skipped == 1
    assert gap.to_json() == {**base.to_json(), "n_skipped": 1}


# --- principal coordinates --------------------------------------------------------

def test_principal_coordinates_show_then_hide_gender(training_split):
    table, lexicon, planted, _ = generate(SynthConfig(
        dimension=40, per_class=100, signal_strength=5.0, noise_scale=0.4, seed=41))
    words = list(lexicon.feminine) + list(lexicon.masculine)
    labels = np.array([1.0] * 100 + [-1.0] * 100)
    coords_before = principal_coordinates(table.rows(words))

    def separability(coords):
        pos, neg = coords[labels > 0], coords[labels < 0]
        config = TrainConfig(regularization_strength=0.1, epochs=30, seed=41)
        return accuracy(train(pos, neg, config), *training_split(pos, neg, config))

    assert separability(coords_before) >= 0.8
    config = DisentangleConfig(per_class=100, seed=41,
                               classifier=TrainConfig(regularization_strength=0.1,
                                                      epochs=30, seed=41))
    after, _ = run(table, lexicon, config)
    coords_after = principal_coordinates(after.rows(words))
    assert separability(coords_after) <= 0.65


def test_principal_coordinates_reject_degenerate_inputs():
    with pytest.raises(DataError):
        principal_coordinates(np.zeros((2, 3)))
    with pytest.raises(NumericError):
        principal_coordinates(np.ones((5, 3)) * 2.0)
    # One column has one component: the second coordinate is zero, not an error.
    coords = principal_coordinates(np.arange(5.0)[:, None])
    assert coords.shape == (5, 2)
    assert np.all(coords[:, 1] == 0.0)
    assert np.allclose(np.abs(coords[:, 0]), [2, 1, 0, 1, 2])


def test_principal_coordinates_deterministic_sign():
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(30, 10))
    a = principal_coordinates(matrix)
    b = principal_coordinates(matrix.copy())
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))

"""Evaluation battery: grammatical-gender association tests built from
similarity pairs, per-word before/after sweeps, valence-norm correlation,
analogy accuracy, and the pairwise-distance gap reduction.

All operations are pure over immutable tables; per-word sweeps are
vectorized with a deterministic aggregation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

from .association import AssociationResult, PermutationConfig, sc_effect_sizes, weat
from .embeddings import EmbeddingTable
from .errors import DataError, NumericError
from .lexicon import (FEMININE, MASCULINE, MIN_SET_WORDS, AnalogyQuestion,
                      GenderLexicon, SimilarityPair, StimulusSet, ValenceNorm)

log = logging.getLogger(__name__)

GG_MIN_TARGETS = 8
# Analogy questions scored per matrix product against the whole vocabulary:
# at most ANALOGY_CHUNK, and fewer when their (questions x vocabulary) score
# matrix would exceed _SCORE_BYTES.
ANALOGY_CHUNK = 256
_SCORE_BYTES = 64 * 2**20


@dataclass(frozen=True)
class GgWeatSpec:
    """Targets are inanimate nouns of opposite grammatical gender; attributes
    are semantically gendered words. Positive effect size means the
    grammatical gender signal is present."""

    feminine_targets: StimulusSet
    masculine_targets: StimulusSet
    feminine_attributes: StimulusSet
    masculine_attributes: StimulusSet


def build_gg_targets(pairs: list[SimilarityPair], lexicon: GenderLexicon,
                     min_score: float = 6.0,
                     max_per_set: int | None = None) -> tuple[StimulusSet, StimulusSet]:
    """Build opposite-gender target sets from high-similarity noun pairs.

    A pair qualifies when its score reaches `min_score`, both members are in
    the (inanimate-only) lexicon, and their genders differ; the feminine
    member joins the feminine targets and the masculine member the masculine
    targets. Pairing words by high semantic similarity keeps the two sets
    close in meaning, so the test isolates grammatical rather than
    stereotypical gender. Pairs are processed by descending score then
    lexicographically; duplicates are dropped and the sets truncated to a
    common size so the downstream test sees balanced targets.
    """
    ordered = sorted(pairs, key=lambda p: (-p.score, p.word_a, p.word_b))
    feminine: list[str] = []
    masculine: list[str] = []
    fem_seen: set[str] = set()
    masc_seen: set[str] = set()
    for pair in ordered:
        if pair.score < min_score:
            continue
        gender_a = _pair_gender(pair.word_a, pair.gender_a, lexicon)
        gender_b = _pair_gender(pair.word_b, pair.gender_b, lexicon)
        if gender_a is None or gender_b is None or gender_a == gender_b:
            continue
        fem_word = pair.word_a if gender_a == FEMININE else pair.word_b
        masc_word = pair.word_b if gender_a == FEMININE else pair.word_a
        if fem_word not in fem_seen and (max_per_set is None or len(feminine) < max_per_set):
            feminine.append(fem_word)
            fem_seen.add(fem_word)
        if masc_word not in masc_seen and (max_per_set is None or len(masculine) < max_per_set):
            masculine.append(masc_word)
            masc_seen.add(masc_word)
        if max_per_set is not None and len(feminine) >= max_per_set and len(masculine) >= max_per_set:
            break
    size = min(len(feminine), len(masculine))
    feminine, masculine = feminine[:size], masculine[:size]
    if size < GG_MIN_TARGETS:
        raise DataError(f"only {size} qualifying opposite-gender pairs at "
                        f"min_score={min_score}; need at least {GG_MIN_TARGETS}")
    return (StimulusSet("gg-feminine-targets", tuple(feminine)),
            StimulusSet("gg-masculine-targets", tuple(masculine)))


def _pair_gender(word: str, label: str | None, lexicon: GenderLexicon) -> str | None:
    """Gender for a pair member; None when the word is not an inanimate noun
    of the lexicon. An explicit pair label wins over the lexicon tag."""
    lexicon_gender = lexicon.gender_of(word)
    if lexicon_gender is None:
        return None
    if label is not None and label != lexicon_gender:
        log.warning("pair label %s for %r disagrees with lexicon %s; using label",
                    label, word, lexicon_gender)
        return label
    return lexicon_gender


def gg_weat(spec: GgWeatSpec, table: EmbeddingTable,
            p_config: PermutationConfig = PermutationConfig(), *,
            on_missing: str = "error", min_words: int = MIN_SET_WORDS,
            trim_to_equal: bool = False) -> AssociationResult:
    """Grammatical-gender association strength; d > 0 means present."""
    return weat(spec.feminine_targets, spec.masculine_targets,
                spec.feminine_attributes, spec.masculine_attributes, table,
                p_config, on_missing=on_missing, min_words=min_words,
                trim_to_equal=trim_to_equal)


@dataclass(frozen=True)
class SweepRecord:
    word: str
    gender: str
    d_before: float
    d_after: float
    weakened: bool
    weakened_loose: bool


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]
    weakened_fraction: dict[str, float]
    weakened_fraction_loose: dict[str, float]
    mean_abs_before: dict[str, float]
    mean_abs_after: dict[str, float]

    def to_json(self) -> dict:
        return {
            "n_words": len(self.records),
            "weakened_fraction": self.weakened_fraction,
            "weakened_fraction_loose": self.weakened_fraction_loose,
            "mean_abs_effect_before": self.mean_abs_before,
            "mean_abs_effect_after": self.mean_abs_after,
        }


def sc_gg_sweep(feminine_words: list[str], masculine_words: list[str],
                feminine_attributes: StimulusSet, masculine_attributes: StimulusSet,
                table_before: EmbeddingTable, table_after: EmbeddingTable, *,
                on_missing: str = "error",
                min_words: int = MIN_SET_WORDS) -> SweepResult:
    """Per-word single-category effect sizes before and after disentanglement.

    Sign convention: d > 0 is association with semantic femininity. A word
    "weakens" when its magnitude shrinks AND the move runs against its
    grammatical gender pole: a feminine word's d must decrease, a masculine
    word's must increase. The looser magnitude-only count is reported
    alongside because the two readings differ on sign-incongruent words.
    Words are resolved against both tables under the missing-word policy of
    `EmbeddingTable.resolve`.
    """
    if not feminine_words and not masculine_words:
        raise DataError("sweep sample is empty")
    pairs = [(w, FEMININE) for w in feminine_words] + [(w, MASCULINE) for w in masculine_words]
    kept_words = [w for w, _ in pairs]
    for table in (table_before, table_after):
        kept_words = table.resolve(kept_words, "sweep sample", on_missing)
    if not kept_words:
        raise DataError("sweep sample empty after filtering")
    kept = set(kept_words)
    kept_genders = [g for w, g in pairs if w in kept]

    d_before, d_after = (sc_effect_sizes(table, kept_words, feminine_attributes,
                                         masculine_attributes, on_missing=on_missing,
                                         min_words=min_words)
                         for table in (table_before, table_after))

    records = []
    for word, gender, before, after in zip(kept_words, kept_genders, d_before, d_after):
        shrunk = abs(after) < abs(before)
        toward_neutral = after < before if gender == FEMININE else after > before
        records.append(SweepRecord(word, gender, float(before), float(after),
                                   shrunk and toward_neutral, shrunk))

    def fraction(items: list[SweepRecord], loose: bool) -> float:
        if not items:
            return 0.0
        hits = sum(1 for r in items if (r.weakened_loose if loose else r.weakened))
        return hits / len(items)

    by_gender = {g: [r for r in records if r.gender == g] for g in (FEMININE, MASCULINE)}
    keys = {"feminine": FEMININE, "masculine": MASCULINE}
    return SweepResult(
        records=tuple(records),
        weakened_fraction={**{k: fraction(by_gender[g], False) for k, g in keys.items()},
                           "overall": fraction(records, False)},
        weakened_fraction_loose={**{k: fraction(by_gender[g], True) for k, g in keys.items()},
                                 "overall": fraction(records, True)},
        mean_abs_before={k: float(np.mean([abs(r.d_before) for r in by_gender[g]]))
                         for k, g in keys.items() if by_gender[g]},
        mean_abs_after={k: float(np.mean([abs(r.d_after) for r in by_gender[g]]))
                        for k, g in keys.items() if by_gender[g]},
    )


def valnorm(norms: list[ValenceNorm], pleasant: StimulusSet, unpleasant: StimulusSet,
            table: EmbeddingTable, *, on_missing: str = "error",
            min_words: int = MIN_SET_WORDS) -> tuple[float, int]:
    """Pearson correlation between human valence ratings and embedding
    valence associations (per-word single-category effect sizes against the
    pleasant/unpleasant sets). Norm words without a usable vector are
    dropped and counted; at least 3 must remain.
    """
    usable = [norm for norm in norms if table.usable(norm.word)]
    dropped = len(norms) - len(usable)
    if dropped:
        log.info("valence norms: %d of %d words unresolvable, dropped", dropped, len(norms))
    if len(usable) < 3:
        raise DataError(f"only {len(usable)} valence words usable; need at least 3")

    embedding_scores = sc_effect_sizes(table, [n.word for n in usable], pleasant, unpleasant,
                                       on_missing=on_missing, min_words=min_words)
    human_scores = np.array([n.valence for n in usable])
    if float(np.std(embedding_scores)) == 0.0 or float(np.std(human_scores)) == 0.0:
        raise NumericError("zero variance in a valence series; correlation undefined")
    r = np.corrcoef(human_scores, embedding_scores)[0, 1]
    return float(r), len(usable)


def analogy_accuracy(questions: list[AnalogyQuestion], table: EmbeddingTable,
                     sections: set[str] | None = None) -> tuple[float, int]:
    """Offset-analogy accuracy over the table's whole vocabulary.

    The query direction is built from unit-normalized vectors of the first
    three words; the three query words are excluded from the candidates and
    the top-cosine candidate must equal the fourth word case-sensitively.
    Candidate scores are dot products divided by the candidates' norms, so
    no normalized copy of the table is made. Questions whose first three
    words are unresolvable are dropped and counted; a missing fourth word
    scores as incorrect.
    """
    pool = [q for q in questions if sections is None or q.section in sections]
    if not pool:
        raise DataError("no analogy questions after section filtering")

    matrix, norms = table.matrix, table.norms
    usable_row = norms > 0.0
    # Zero rows score 0 / inf = 0 before they are excluded below.
    divisor = np.where(usable_row, norms, inf)

    def row(word: str) -> int | None:
        return table.index_of(word) if table.usable(word) else None

    attempted: list[tuple[AnalogyQuestion, int, int, int]] = []
    dropped = 0
    for q in pool:
        ra, rb, rc = row(q.a), row(q.b), row(q.c)
        if ra is None or rb is None or rc is None:
            dropped += 1
            continue
        attempted.append((q, ra, rb, rc))
    if dropped:
        log.info("analogies: %d of %d questions dropped for unresolvable query words",
                 dropped, len(pool))
    if not attempted:
        raise DataError("every analogy question had unresolvable query words")

    def unit(i: int) -> np.ndarray:
        return matrix[i] / norms[i]

    chunk_rows = max(1, min(ANALOGY_CHUNK, _SCORE_BYTES // (8 * len(table))))
    correct = 0
    for start in range(0, len(attempted), chunk_rows):
        chunk = attempted[start:start + chunk_rows]
        queries = np.stack([unit(rb) - unit(ra) + unit(rc) for _, ra, rb, rc in chunk])
        scores = queries @ matrix.T
        scores /= divisor
        scores[:, ~usable_row] = -inf
        for j, (q, ra, rb, rc) in enumerate(chunk):
            scores[j, [ra, rb, rc]] = -inf
        winners = np.argmax(scores, axis=1)
        for (q, *_), winner in zip(chunk, winners):
            if table.words[winner] == q.d:
                correct += 1
    return correct / len(attempted), len(attempted)


@dataclass(frozen=True)
class GapReduction:
    avg_same_raw: float
    avg_diff_raw: float
    avg_same_disentangled: float
    avg_diff_disentangled: float
    avg_same_english: float
    avg_diff_english: float
    gap_raw: float
    gap_disentangled: float
    gap_english: float
    reduction: float | None
    n_same: int
    n_diff: int
    n_skipped: int

    def to_json(self) -> dict:
        return {
            "avg_same": {"raw": self.avg_same_raw, "disentangled": self.avg_same_disentangled,
                         "english": self.avg_same_english},
            "avg_diff": {"raw": self.avg_diff_raw, "disentangled": self.avg_diff_disentangled,
                         "english": self.avg_diff_english},
            "gap_raw": self.gap_raw,
            "gap_disentangled": self.gap_disentangled,
            "gap_english": self.gap_english,
            "reduction": self.reduction,
            "reduction_percent": None if self.reduction is None else 100.0 * self.reduction,
            "n_same": self.n_same,
            "n_diff": self.n_diff,
            "n_skipped": self.n_skipped,
        }


def pairwise_gap(pairs_gendered: list[SimilarityPair], pairs_english: list[SimilarityPair],
                 lexicon: GenderLexicon, table_raw: EmbeddingTable,
                 table_disentangled: EmbeddingTable,
                 table_english: EmbeddingTable) -> GapReduction:
    """Same-gender vs different-gender cosine gap, before/after, against the
    English reference.

    The two pair lists must be index-aligned: pair i of the English list is
    the translation of pair i of the gendered list, and a pair skipped on
    one side (missing word, not in the inanimate lexicon, zero vector) is
    skipped on both. The gap is the mean same-gender cosine minus the mean
    different-gender cosine; the reduction compares how far the
    disentangled gap moved from the raw gap toward the English one, and is
    undefined (None) when the raw gap already equals the English gap.
    """
    if len(pairs_gendered) != len(pairs_english):
        raise DataError(f"pair lists must be aligned: {len(pairs_gendered)} gendered "
                        f"vs {len(pairs_english)} English pairs")

    kept: list[tuple[SimilarityPair, SimilarityPair]] = []
    same: list[bool] = []
    for gendered, english in zip(pairs_gendered, pairs_english):
        gender_a = _pair_gender(gendered.word_a, gendered.gender_a, lexicon)
        gender_b = _pair_gender(gendered.word_b, gendered.gender_b, lexicon)
        if (gender_a is not None and gender_b is not None
                and all(table_raw.usable(w) and table_disentangled.usable(w)
                        for w in (gendered.word_a, gendered.word_b))
                and table_english.usable(english.word_a)
                and table_english.usable(english.word_b)):
            kept.append((gendered, english))
            same.append(gender_a == gender_b)
    n_same = sum(same)
    n_diff = len(same) - n_same
    if not n_same or not n_diff:
        raise DataError(f"need both same-gender and different-gender pairs "
                        f"({n_same} same, {n_diff} different usable)")
    skipped = len(pairs_gendered) - len(kept)
    if skipped:
        log.info("pairwise gap: %d of %d pairs skipped", skipped, len(pairs_gendered))

    is_same = np.array(same)

    def mean_cosines(table: EmbeddingTable, side: int) -> tuple[float, float]:
        """Mean same-gender and mean different-gender cosine of one side's pairs."""
        pairs = [p[side] for p in kept]
        cos = (table.unit_rows([p.word_a for p in pairs])
               * table.unit_rows([p.word_b for p in pairs])).sum(axis=1)
        return float(np.mean(cos[is_same])), float(np.mean(cos[~is_same]))

    same_raw, diff_raw = mean_cosines(table_raw, 0)
    same_dis, diff_dis = mean_cosines(table_disentangled, 0)
    same_en, diff_en = mean_cosines(table_english, 1)
    gap_raw = same_raw - diff_raw
    gap_dis = same_dis - diff_dis
    gap_en = same_en - diff_en
    if gap_raw == gap_en:
        reduction = None
        log.warning("raw gap equals the English gap; reduction undefined")
    else:
        reduction = 1.0 - (gap_dis - gap_en) / (gap_raw - gap_en)
    return GapReduction(
        avg_same_raw=same_raw, avg_diff_raw=diff_raw,
        avg_same_disentangled=same_dis, avg_diff_disentangled=diff_dis,
        avg_same_english=same_en, avg_diff_english=diff_en,
        gap_raw=gap_raw, gap_disentangled=gap_dis, gap_english=gap_en,
        reduction=reduction, n_same=n_same, n_diff=n_diff, n_skipped=skipped)


def principal_coordinates(matrix: np.ndarray, n_components: int = 2) -> np.ndarray:
    """Coordinates of each row on the top principal components.

    Rows are centered and decomposed by SVD; component signs are fixed so
    the largest-magnitude loading of each component is positive, making the
    output deterministic. Degenerate input (fewer than 3 rows, or no
    variance at all) raises instead of producing NaN coordinates.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 3:
        raise DataError("principal coordinates need at least 3 samples")
    centered = matrix - matrix.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    if not isfinite(float(s[0])) or float(s[0]) <= 1e-12 * max(matrix.shape):
        raise NumericError("sample has no variance; principal components undefined")
    k = min(n_components, s.shape[0])
    signs = np.sign(vt[np.arange(k), np.argmax(np.abs(vt[:k]), axis=1)])
    signs[signs == 0] = 1.0
    coords = u[:, :k] * s[:k] * signs
    if k < n_components:
        coords = np.hstack([coords, np.zeros((matrix.shape[0], n_components - k))])
    return coords
